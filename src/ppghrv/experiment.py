"""The pipeline's steps, and the evaluation matrix built from them.

A cell of the matrix (activity x metric x monitoring length x model) is
synth -> process -> chronological split -> train -> eval: `synthesize`,
`heart_rate` and build_hrv_dataset, chronological_split, random_search,
then `evaluate`.  The CLI's synth, process, train and eval subcommands call
the same functions, and take their defaults from ExperimentConfig.

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

from .data import Dataset, build_hrv_dataset, chronological_split, sigproc_estimates
from .data import check_train_fraction, check_window
from .errors import ConfigError, HrvError
from .io import write_results_csv, write_trace_csv
from .metrics import HrvMetricKind, mape
from .models.base import ModelKind, TrainedModel
from .models.bench import bench_inference, check_repetitions
from .models.codec import serialized_size
from .models.mlp import DEFAULT_MAX_EPOCHS
from .models.search import check_search, random_search
from .sigproc import DEFAULT_Z_SCORE, PpgSignal, SmoothedHrSeries, ppg_to_hr, smooth, zscore_adjust
from .synth import GroundTruth, activity_preset, derived_seed, generate_rr_trace, render_ppg

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: Path
    activities: tuple[str, ...] = ("sit", "sleep", "office_work")
    metrics: tuple[HrvMetricKind, ...] = (HrvMetricKind.RMSSD, HrvMetricKind.SDNN)
    lengths: tuple[int, ...] = (30, 60, 120, 180, 240, 300)  # monitoring lengths n_s
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
        for key in ("activities", "metrics", "lengths", "models"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{key} needs at least one entry")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:  # it would only run the same cells again
                shown = getattr(repeated[0], "value", repeated[0])
                raise ConfigError(f"{key} lists {shown} more than once")
        # each step's own checks, reached here so that a bad setting fails
        # before run_experiment writes a file
        for n_s in self.lengths:
            check_window(n_s, self.stride_s)
        max_n = max(self.lengths)
        if self.duration_s < max_n + 60:
            raise ConfigError(
                f"duration_s={self.duration_s:g} leaves no room for "
                f"{max_n}s windows plus a test split"
            )
        check_train_fraction(self.train_fraction)
        check_search(self.budget, self.seed, self.val_fraction, self.mlp_max_epochs)
        if self.bench_repetitions != 0:
            check_repetitions(self.bench_repetitions)
        # and synth's: an unknown name, a duration above synth.MAX_DURATION_S
        for activity in self.activities:
            activity_preset(activity, duration_s=self.duration_s, seed=self.seed)


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
    return derived_seed((int(root_seed), tag))


def synthesize(
    activity: str, duration_s: float, seed: int, clean: bool
) -> tuple[GroundTruth, PpgSignal]:
    """Synth step: the activity's beats and the PPG rendered from them.
    clean turns motion artifacts and sensor noise off."""
    cfg = activity_preset(activity, duration_s=duration_s, seed=seed)
    if clean:
        cfg = replace(cfg, artifact_rate_per_min=0.0, additive_noise_sigma=0.0)
    gt = generate_rr_trace(cfg)
    return gt, render_ppg(gt, cfg)


def heart_rate(ppg: PpgSignal, z_score: float) -> SmoothedHrSeries:
    """Process step: per-second HRs from a PPG (peaks, z-score repair, smoothing)."""
    return smooth(zscore_adjust(ppg_to_hr(ppg), z_score))


def evaluate(model: TrainedModel, ds: Dataset, trace_path) -> tuple[float, float]:
    """Eval step: the model's and the sig-proc-only MAPE over ds's windows;
    unless trace_path is None, then the trace CSV of their estimates."""
    preds = model.predict_batch(ds.features)
    sigproc = sigproc_estimates(ds)
    scores = mape(preds, ds.labels), mape(sigproc, ds.labels)
    if trace_path is not None:
        write_trace_csv(trace_path, ds.window_end_times_s, ds.labels, sigproc, preds)
    return scores


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
        gt, ppg = synthesize(activity, cfg.duration_s, _cell_seed(cfg.seed, activity), cfg.clean)
        shr = heart_rate(ppg, DEFAULT_Z_SCORE)
        del ppg  # the cells need only gt and shr; keeps the matrix's peak memory down
        for metric in cfg.metrics:
            for n_s in cfg.lengths:
                try:
                    ds = build_hrv_dataset(
                        shr, gt, n_s=n_s, kind=metric, stride_s=cfg.stride_s
                    )
                    train, test = chronological_split(ds, cfg.train_fraction)
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
                        rows.append(_run_cell(cfg, out_dir, cell, train, test, model_kind))
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
    model_kind: ModelKind,
) -> ResultRow:
    activity, metric, n_s, model_name = cell
    model = random_search(
        train, model_kind, budget=cfg.budget, seed=_cell_seed(cfg.seed, *cell),
        val_fraction=cfg.val_fraction, mlp_max_epochs=cfg.mlp_max_epochs,
    ).model
    test_mape, sigproc_mape = evaluate(
        model, test, out_dir / f"trace_{activity}_{metric}_{n_s}s_{model_name}.csv"
    )
    latency = None
    if cfg.bench_repetitions > 0:
        probes = list(test.features[:32])
        latency = bench_inference(model, probes, repetitions=cfg.bench_repetitions).mean_us
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
