"""Full evaluation matrix: activities x metrics x monitoring lengths x models.

Every cell trains on the chronological head of its dataset, searches
hyperparameters against a validation tail, and reports test MAPE for the
ML estimate next to the rough-HRV (sig-proc-only) estimate over the same
test windows.  All randomness is derived from the config seed plus the
cell identity, so rerunning a config reproduces every artifact byte for
byte (benchmark timings are the one exception and default to off).
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, build_hrv_dataset, chronological_split
from .errors import ConfigError, HrvError
from .io import write_results_csv, write_trace_csv
from .metrics import HrvMetricKind, mape
from .models.base import ModelKind
from .models.bench import MAX_REPETITIONS, MIN_REPETITIONS, bench_inference
from .models.codec import serialized_size
from .models.mlp import DEFAULT_MAX_EPOCHS
from .models.search import MAX_BUDGET, random_search
from .sigproc import SmoothedHrSeries, ppg_to_hr, smooth, zscore_adjust
from .synth import GroundTruth, activity_preset, generate_rr_trace, render_ppg

log = logging.getLogger(__name__)

DEFAULT_LENGTHS_S = (30, 60, 120, 180, 240, 300)


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: Path
    activities: tuple[str, ...] = ("sit", "sleep", "office_work")
    metrics: tuple[HrvMetricKind, ...] = (HrvMetricKind.RMSSD, HrvMetricKind.SDNN)
    lengths: tuple[int, ...] = DEFAULT_LENGTHS_S  # monitoring lengths n_s
    models: tuple[ModelKind, ...] = (
        ModelKind.DT,
        ModelKind.RF,
        ModelKind.KNN,
        ModelKind.MLP,
    )
    duration_s: float = 3600.0
    stride_s: int = 1
    budget: int = 10
    seed: int = 0
    train_fraction: float = 0.8
    val_fraction: float = 0.2
    bench_repetitions: int = 0  # 0 keeps timing out of the results (deterministic)
    clean: bool = False         # disable artifacts and sensor noise
    mlp_max_epochs: int = DEFAULT_MAX_EPOCHS

    def __post_init__(self):
        if not self.activities or not self.metrics or not self.lengths:
            raise ConfigError("need at least one activity, metric and monitoring length")
        if not self.models:
            raise ConfigError("need at least one model kind")
        if not 1 <= self.budget <= MAX_BUDGET:
            raise ConfigError(f"search budget must lie in [1, {MAX_BUDGET}], got {self.budget}")
        if self.stride_s < 1:
            raise ConfigError("stride_s must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.lengths) < 2:
            raise ConfigError(f"lengths must be >= 2 s, got {min(self.lengths)}")
        max_n = max(self.lengths)
        if self.duration_s < max_n + 60:
            raise ConfigError(
                f"duration_s={self.duration_s:g} leaves no room for "
                f"{max_n}s windows plus a test split"
            )
        if self.bench_repetitions != 0 and not (
            MIN_REPETITIONS <= self.bench_repetitions <= MAX_REPETITIONS
        ):
            raise ConfigError(
                f"bench_repetitions must be 0 (off) or lie in "
                f"[{MIN_REPETITIONS}, {MAX_REPETITIONS}], got {self.bench_repetitions}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie strictly between 0 and 1")
        if self.mlp_max_epochs < 1:
            raise ConfigError("mlp_max_epochs must be >= 1")
        # each activity's synth config rejects an unknown name and a duration
        # above synth.MAX_DURATION_S here, before run_experiment writes a file
        for activity in self.activities:
            activity_preset(activity, duration_s=self.duration_s)


@dataclass(frozen=True)
class ResultRow:
    activity: str
    metric: str
    n_s: int
    model: str
    mape_pct: float
    sigproc_mape_pct: float
    model_bytes: int
    latency_us_mean: float | None


def _cell_seed(root_seed: int, *parts) -> int:
    tag = zlib.crc32("|".join(str(p) for p in parts).encode())
    return int(np.random.SeedSequence((int(root_seed), tag)).generate_state(1)[0])


def _process_activity(
    cfg: ExperimentConfig, activity: str
) -> tuple[GroundTruth, SmoothedHrSeries]:
    synth_cfg = activity_preset(
        activity, duration_s=cfg.duration_s, seed=_cell_seed(cfg.seed, activity)
    )
    if cfg.clean:
        synth_cfg = replace(
            synth_cfg, artifact_rate_per_min=0.0, additive_noise_sigma=0.0
        )
    gt = generate_rr_trace(synth_cfg)
    ppg = render_ppg(gt, synth_cfg)
    shr = smooth(zscore_adjust(ppg_to_hr(ppg)))
    return gt, shr


def _trace_filename(activity: str, metric: str, n_s: int, model: str) -> str:
    return f"trace_{activity}_{metric}_{n_s}s_{model}.csv"


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every cell, write results.csv and per-cell trace CSVs.

    A failing cell is logged with its identity and skipped; the remaining
    cells still run and results.csv holds their rows.  Returns the rows in
    config order, or raises HrvError naming the failed cells once
    results.csv is written.
    """
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create out_dir {out_dir}: {err.strerror or err}") from None
    rows: list[ResultRow] = []
    failed: list[str] = []
    for activity in cfg.activities:
        gt, shr = _process_activity(cfg, activity)
        for metric in cfg.metrics:
            for n_s in cfg.lengths:
                try:
                    ds = build_hrv_dataset(
                        shr, gt, n_s=n_s, kind=metric, stride_s=cfg.stride_s
                    )
                    train, test = chronological_split(ds, cfg.train_fraction)
                    sigproc_est = test.features[:, n_s]  # the rough-HRV feature
                    sigproc_mape = mape(sigproc_est, test.labels)
                except HrvError as err:
                    log.error(
                        "cell %s/%s/n=%ds: dataset failed: %s",
                        activity, metric.value, n_s, err,
                    )
                    failed += [
                        f"{activity}/{metric.value}/{n_s}/{m.value}" for m in cfg.models
                    ]
                    continue
                for model_kind in cfg.models:
                    cell = (activity, metric.value, n_s, model_kind.value)
                    try:
                        rows.append(
                            _run_cell(
                                cfg, out_dir, cell, train, test,
                                sigproc_est, sigproc_mape, model_kind,
                            )
                        )
                    except HrvError as err:
                        failed.append("/".join(map(str, cell)))
                        log.error("cell %s failed: %s", failed[-1], err)
    write_results_csv(out_dir / "results.csv", rows)
    if failed:
        raise HrvError(
            f"{len(failed)} of {len(failed) + len(rows)} cells failed "
            f"({', '.join(failed)}); results.csv holds the other {len(rows)}"
        )
    return rows


def _run_cell(
    cfg: ExperimentConfig,
    out_dir: Path,
    cell: tuple,
    train: Dataset,
    test: Dataset,
    sigproc_est: np.ndarray,
    sigproc_mape: float,
    model_kind: ModelKind,
) -> ResultRow:
    activity, metric, n_s, model_name = cell
    result = random_search(
        train,
        model_kind,
        budget=cfg.budget,
        seed=_cell_seed(cfg.seed, *cell),
        val_fraction=cfg.val_fraction,
        mlp_max_epochs=cfg.mlp_max_epochs,
    )
    model = result.model
    preds = model.predict_batch(test.features)
    test_mape = mape(preds, test.labels)
    latency = None
    if cfg.bench_repetitions > 0:
        stats = bench_inference(
            model, list(test.features[:32]), repetitions=cfg.bench_repetitions
        )
        latency = stats.mean_us
    write_trace_csv(
        out_dir / _trace_filename(activity, metric, n_s, model_name),
        test.window_end_times_s,
        test.labels,
        sigproc_est,
        preds,
    )
    return ResultRow(
        activity=activity,
        metric=metric,
        n_s=int(n_s),
        model=model_name,
        mape_pct=test_mape,
        sigproc_mape_pct=sigproc_mape,
        model_bytes=serialized_size(model),
        latency_us_mean=latency,
    )
