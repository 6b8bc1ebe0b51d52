"""The four benchmark workloads, each a closed loop with one caller.

Every workload has three phases: ``setup()`` makes the inputs from the seed,
``run()`` is the timed pass, and ``check(out)`` verifies the pass's outputs
outside the timed region and returns an Outcome.  The workloads call the
package only through public functions, looked up on their defining module at
call time so that a Tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ppghrv import amplify, cli, data, metrics, sigproc, synth
from ppghrv import io as hrvio
from ppghrv.metrics import HrvMetricKind
from ppghrv.models import codec, forest, knn, mlp, tree

KINDS = ("dt", "rf", "knn", "mlp")
INGEST_ACTIVITIES = ("sit", "sleep", "office_work")
TRAIN_SEED = 0  # part of the fixed serve hyperparameters
TURNS = 4  # turns each model takes in a pass; a turn's cold first call stays out of the 1 % tail
FAST_MODEL_CALLS = 10  # dt, rf and mlp take this many times the knn calls: cheap, and steadier tails


@dataclass(frozen=True)
class Sizes:
    setups: int                  # set-ups per run; setup_s takes their median
    ingest_duration_s: float     # per recording
    ingest_n_s: int
    run_duration_s: float
    run_lengths: tuple[int, ...]
    run_budget: int
    run_mlp_max_epochs: int
    serve_duration_s: float
    serve_n_s: int
    serve_calls: int             # knn single predict calls per pass
    amplify_trials: int


# Passes are short (about 1-2 s, run_matrix aside), so that a run has several
# for wall_s to take the median of, and each pass is scaled by the host speed
# measured close to it (see speed.py).
FULL = Sizes(
    setups=3,
    ingest_duration_s=600.0,
    ingest_n_s=300,
    # the ROADMAP matrix: office_work, rmssd, n in {60, 300}, 1800 s, budget 3
    run_duration_s=1800.0,
    run_lengths=(60, 300),
    run_budget=3,
    run_mlp_max_epochs=500,
    serve_duration_s=1800.0,
    serve_n_s=300,
    serve_calls=500,  # with two passes or more, knn p99 has ten samples beyond it
    amplify_trials=250,
)

TOY = Sizes(
    setups=2,
    ingest_duration_s=150.0,
    ingest_n_s=30,
    run_duration_s=150.0,
    run_lengths=(30, 60),
    run_budget=1,
    run_mlp_max_epochs=5,
    serve_duration_s=150.0,
    serve_n_s=30,
    serve_calls=40,
    amplify_trials=3,
)


@dataclass
class Outcome:
    attempted: int
    failed: int
    mape_pct: float | None       # test MAPE of the pass's trained models, if any
    digests: dict[str, str]
    quality: dict = field(default_factory=dict)  # output figures reported as data
    latencies_us: dict[str, np.ndarray] = field(default_factory=dict)
    model_bytes: dict[str, int] = field(default_factory=dict)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    name = ""
    probe_mix = "numpy"  # the speed.MIXES entry that resembles the hot path

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir
        # replaced by Tracer.paused in a traced run, for calls that must not be spanned
        self.untraced = contextlib.nullcontext

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, out) -> Outcome:
        raise NotImplementedError


class Ingest(Workload):
    """PPG CSV -> per-second HR -> HRV dataset -> dataset CSV and back."""

    name = "ingest"
    probe_mix = "interpreter"  # CSV formatting and parsing dominate a pass

    def setup(self) -> None:
        self.recordings = []
        for activity in INGEST_ACTIVITIES:
            cfg = synth.activity_preset(
                activity, duration_s=self.sizes.ingest_duration_s, seed=self.seed
            )
            gt = synth.generate_rr_trace(cfg)
            path = self.work_dir / f"{activity}_ppg.csv"
            hrvio.write_ppg_csv(path, synth.render_ppg(gt, cfg))
            self.recordings.append((activity, path, gt))

    def run(self):
        out = []
        for activity, path, gt in self.recordings:
            signal = hrvio.read_ppg_csv(path)
            shr = sigproc.smooth(sigproc.zscore_adjust(sigproc.ppg_to_hr(signal)))
            ds = data.build_hrv_dataset(
                shr, gt, n_s=self.sizes.ingest_n_s, kind=HrvMetricKind.RMSSD
            )
            ds_path = self.work_dir / f"{activity}_dataset.csv"
            hrvio.write_dataset_csv(ds_path, ds)
            out.append((activity, len(shr), ds, hrvio.read_dataset_csv(ds_path), ds_path))
        return out

    def check(self, out) -> Outcome:
        n = self.sizes.ingest_n_s
        failed = 0
        digests = {}
        mapes = []
        for activity, n_hr, ds, back, ds_path in out:
            ok = len(ds) == n_hr - n + 1 and all(
                _same_bits(a, b)
                for a, b in (
                    (ds.features, back.features),
                    (ds.labels, back.labels),
                    (ds.window_end_times_s, back.window_end_times_s),
                )
            )
            failed += not ok
            digests[f"ingest.{activity}.dataset_csv"] = _sha256(ds_path.read_bytes())
            # error of the sig-proc-only (rough-HRV) feature against the label
            mapes.append(metrics.mape(ds.features[:, n], ds.labels))
        return Outcome(len(out), failed, None, digests,
                       quality={"ingest.sigproc_mape_pct": statistics.fmean(mapes)})


class RunMatrix(Workload):
    """`ppghrv run` in-process on a fixed matrix.

    The config seed stays fixed: it sets the search's hyperparameter draws,
    and with them how much work the matrix does.
    """

    name = "run_matrix"
    CONFIG_SEED = 0

    def setup(self) -> None:
        self.out_dir = self.work_dir / "run"
        self.out_dir.mkdir(exist_ok=True)
        s = self.sizes
        self.argv = [
            "run",
            "--out-dir", str(self.out_dir),
            "--activities", "office_work",
            "--metrics", "rmssd",
            "--lengths", ",".join(map(str, s.run_lengths)),
            "--duration-s", repr(s.run_duration_s),
            "--models", "dt,knn,mlp",
            "--budget", str(s.run_budget),
            "--mlp-max-epochs", str(s.run_mlp_max_epochs),
            "--seed", str(self.CONFIG_SEED),
        ]
        self.cells = len(s.run_lengths) * 3

    def run(self):
        (self.out_dir / "results.csv").unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, exit_code) -> Outcome:
        results = self.out_dir / "results.csv"
        if exit_code != 0 or not results.exists():
            return Outcome(self.cells, self.cells, float("nan"), {})
        with open(results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # run_experiment drops a failing cell and still exits 0
        failed = max(self.cells - len(rows), 0)
        mape = statistics.fmean(float(r["mape_pct"]) for r in rows) if rows else float("nan")
        return Outcome(self.cells, failed, mape,
                       {"run_matrix.results_csv": _sha256(results.read_bytes())})


def _train_models(train) -> dict:
    return {
        "dt": tree.train_dt(train, max_depth=8, seed=TRAIN_SEED),
        "rf": forest.train_rf(train, trees=2, max_depth=5, seed=TRAIN_SEED),
        "knn": knn.train_knn(train, k=5, distance="euclidean"),
        "mlp": mlp.train_mlp(
            train, (32, 32), "relu", cfg=mlp.MlpTrainingConfig(max_epochs=50), seed=TRAIN_SEED
        ),
    }


class Serve(Workload):
    """Decode each model, time single predicts, then one batch per model.

    The deployed models are fixed: they are trained at set-up on a recording
    made from DATA_SEED, so their bytes and accuracy do not vary with --seed.
    The seed orders the stream of single-call requests over the test rows.
    """

    name = "serve"
    DATA_SEED = 0

    def setup(self) -> None:
        s = self.sizes
        cfg = synth.activity_preset("office_work", duration_s=s.serve_duration_s,
                                    seed=self.DATA_SEED)
        gt = synth.generate_rr_trace(cfg)
        ppg = synth.render_ppg(gt, cfg)
        shr = sigproc.smooth(sigproc.zscore_adjust(sigproc.ppg_to_hr(ppg)))
        ds = data.build_hrv_dataset(shr, gt, n_s=s.serve_n_s, kind=HrvMetricKind.RMSSD)
        train, self.test = data.chronological_split(ds, 0.8)
        self.rows = list(self.test.features)
        n = len(self.rows)
        self.calls = {k: s.serve_calls * (1 if k == "knn" else FAST_MODEL_CALLS) for k in KINDS}
        self.order = np.random.default_rng(self.seed).permutation(
            np.arange(max(self.calls.values())) % n
        )
        self.models = _train_models(train)
        self.blobs = {k: codec.encode(m) for k, m in self.models.items()}
        self.model_bytes = {k: codec.serialized_size(m) for k, m in self.models.items()}
        self._reference = None

    def run(self):
        decoded = {k: codec.decode(blob) for k, blob in self.blobs.items()}
        latencies = {k: np.empty(self.calls[k]) for k in decoded}
        singles = {k: np.empty(self.calls[k]) for k in decoded}
        with self.untraced():  # each call is timed here already
            # models take turns of back-to-back calls, so each model's
            # samples span the whole phase rather than one burst
            for turn in range(TURNS):
                for kind, model in decoded.items():
                    lat, preds = latencies[kind], singles[kind]
                    calls = self.calls[kind]
                    for j in range(turn * calls // TURNS, (turn + 1) * calls // TURNS):
                        x = self.rows[self.order[j]]
                        # CPU time of this thread: a call's figure leaves out
                        # the time the host or the scheduler takes the CPU away
                        t0 = time.thread_time_ns()
                        preds[j] = model.predict(x)
                        lat[j] = time.thread_time_ns() - t0
        batches = {k: m.predict_batch(self.test.features) for k, m in decoded.items()}
        return decoded, {k: v / 1000.0 for k, v in latencies.items()}, singles, batches

    def reference(self) -> dict:
        """In-memory predictions: (one single call per test row, one batch)."""
        if self._reference is None:
            self._reference = {
                k: (np.array([m.predict(x) for x in self.rows]),
                    m.predict_batch(self.test.features))
                for k, m in self.models.items()
            }
        return self._reference

    def check(self, out) -> Outcome:
        decoded, latencies, singles, batches = out
        reference = self.reference()
        failed = 0
        attempted = 0
        mapes = []
        for kind in KINDS:
            ref_single, ref_batch = reference[kind]
            failed += int(np.count_nonzero(
                singles[kind].view(np.uint64)
                != ref_single[self.order[: self.calls[kind]]].view(np.uint64)
            ))
            failed += not _same_bits(batches[kind], ref_batch)
            failed += codec.encode(decoded[kind]) != self.blobs[kind]
            failed += self.model_bytes[kind] != len(self.blobs[kind])
            attempted += self.calls[kind] + 3
            mapes.append(metrics.mape(batches[kind], self.test.labels))
        digests = {f"serve.{k}.model": _sha256(b) for k, b in self.blobs.items()}
        return Outcome(attempted, failed, statistics.fmean(mapes), digests,
                       latencies_us=latencies, model_bytes=dict(self.model_bytes))


class Amplify(Workload):
    """The RR-to-HRV error amplification table."""

    name = "amplify"
    probe_mix = "interpreter"  # per-trial calls on short arrays

    def setup(self) -> None:
        self.base = amplify.default_base_trace(self.seed)

    def run(self):
        return amplify.amplification_table(self.base, trials=self.sizes.amplify_trials)

    def check(self, rows) -> Outcome:
        levels = amplify.DEFAULT_MAPE_LEVELS_PCT
        table = [[r.rr_mape_pct, r.rmssd_mape_pct, r.sdnn_mape_pct] for r in rows]
        failed = abs(len(rows) - len(levels))
        for (level, rmssd_err, sdnn_err), expected_level in zip(table, levels):
            if level != expected_level:
                failed += 1
            elif level == 0.0:
                failed += rmssd_err != 0.0 or sdnn_err != 0.0
            else:
                failed += not (np.isfinite([rmssd_err, sdnn_err]).all()
                               and rmssd_err > 0 and sdnn_err > 0)
        digest = _sha256(json.dumps([[repr(v) for v in row] for row in table]).encode())
        return Outcome(len(levels), failed, None, {"amplify.rows": digest},
                       quality={f"amplify.rr_{level:g}pct": [rmssd_err, sdnn_err]
                                for level, rmssd_err, sdnn_err in table})


WORKLOADS = {w.name: w for w in (Ingest, RunMatrix, Serve, Amplify)}
