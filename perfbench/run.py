"""ppghrv benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload {ingest,run_matrix,serve,amplify}
        --seed N --seconds S --trace {0,1} [--toy]

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2 if it is not there.  BLAS is pinned to one
thread and glibc's malloc thresholds are fixed.  With ``--trace 0`` the run
prints every end-to-end metric, its times in reference-speed seconds (see
``speed.py``); with ``--trace 1`` it sets up under a Tracer,
then alternates untraced and traced passes, and prints every per-layer metric.
The last line of standard output is the result object; the line before it,
starting with ``report``, holds sample counts, tail percentiles, output
digests and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it
# glibc mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and the
# values the benchmark fixes them at
MALLOC_SETTINGS = {-3: 32 << 20, -1: 1 << 30}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
# Reported by the traced run after the layer metrics.  Only serve (and, for
# mape_pct, run_matrix) produces them; the other workloads report 0.
# Single-call latencies are not end-to-end metrics: on a shared host they
# spread by more than the largest bound the benchmark may set (see README.md).
MODEL_METRICS = [("mape_pct", "%")]
MODEL_METRICS += [(f"predict_p50_us.{k}", "us") for k in ("dt", "rf", "knn", "mlp")]
MODEL_METRICS += [(f"predict_p99_us.{k}", "us") for k in ("dt", "rf", "knn", "mlp")]
MODEL_METRICS += [(f"model_bytes.{k}", "B") for k in ("dt", "rf", "knn", "mlp")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ingest", "run_matrix", "serve", "amplify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed passes stop before the next would exceed this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def summary(samples) -> dict:
    """Median, the highest tail percentile with MIN_BEYOND samples beyond it, n."""
    xs = sorted(samples)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    for pct in TAIL_PERCENTILES:
        if len(xs) * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            out[f"p{pct:g}"] = percentile(xs, pct)
            break
    return out


def percentile(sorted_xs, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def timed_pass(workload, on_pass) -> float:
    """One pass's seconds; `on_pass` checks its outputs outside the timing."""
    t0 = time.perf_counter()
    out = workload.run()
    seconds = time.perf_counter() - t0
    on_pass(out)
    return seconds


def timed_passes(workload, seconds: float, on_pass, probe) -> tuple[list, list]:
    """Closed loop: the next pass starts when the previous one is checked.

    At least one pass; stops before a pass that would end past `seconds` of
    passes and checks, judged by the mean so far.  Returns each pass's raw
    and reference-speed seconds.
    """
    raw, ref = [], []
    start = time.perf_counter()
    while True:
        out, seconds_raw, seconds_ref = probe.measure(workload.run)
        on_pass(out)
        raw.append(seconds_raw)
        ref.append(seconds_ref)
        elapsed = time.perf_counter() - start
        if elapsed * (len(raw) + 1) / len(raw) > seconds:
            return raw, ref


class Tally:
    """Outcomes of every checked pass: operation counts and digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.outcomes = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        for key, digest in outcome.digests.items():
            # every pass on the same inputs must give the same bytes
            if self.digests.setdefault(key, digest) != digest:
                self.failed += 1
        self.outcomes.append(outcome)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds, which otherwise move with the
    allocation history.  With them moving, knn's per-call temporaries of a few
    MB came either from the heap or from fresh, page-faulting mmaps, and its
    single-call latency switched between about 1.5 and 7 ms from run to run.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default: no mallopt"
    if all(mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS.items()):
        return "glibc mmap_threshold=32MiB trim_threshold=1GiB"
    return "default: mallopt refused"


def environment(args, np, scipy, malloc: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "malloc": malloc,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "toy": args.toy,
    }


def finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def measure_end_to_end(wl, sizes, args, import_s, speed_module):
    # the import ran before a probe could, and is no workload's hot path:
    # scale it by the numpy mix right after, leaving out the first probes,
    # which warm the probe's own code
    importer = speed_module.Probe("numpy")
    import_ref = importer.scale(import_s, [importer.probe_s() for _ in range(25)][5:])
    probe = speed_module.Probe(wl.probe_mix)
    tally = Tally()
    generation, generation_ref = [], []
    for _ in range(sizes.setups):
        _, seconds_raw, seconds_ref = probe.measure(wl.setup)
        generation.append(seconds_raw)
        generation_ref.append(seconds_ref)

    peak_rss = []

    def on_pass(out):
        tally.add(wl.check(out))
        if not peak_rss:  # later passes must not count, or memory would vary with their number
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    walls, walls_ref = timed_passes(wl, args.seconds, on_pass, probe)
    values = {
        # times are in reference-speed seconds, which leave out the host's
        # speed; see speed.py
        "setup_s": import_ref + statistics.median(generation_ref),
        # the first pass warms caches and the allocator, unless it is the only one
        "wall_s": statistics.median(walls_ref[1:] or walls_ref),
        "peak_rss_mb": peak_rss[0],
    }
    report = {
        "samples": {
            "setup_s": {"n": len(generation), "import_s": import_s, "import_ref_s": import_ref,
                        "generation_s": summary(generation),
                        "generation_ref_s": summary(generation_ref)},
            "wall_s": summary(walls_ref[1:] or walls_ref),
            "wall_raw_s": summary(walls),
            "peak_rss_mb": {"n": 1},
        },
        "digests": tally.digests,
        "quality": tally.outcomes[-1].quality,
    }
    return values, END_TO_END, tally, report


def model_metrics(outcomes, kinds) -> tuple[dict, dict]:
    """MODEL_METRICS over every checked pass, and the latency sample summaries."""
    mapes = [o.mape_pct for o in outcomes if o.mape_pct is not None]
    values = {"mape_pct": statistics.median(mapes) if mapes else 0.0}
    samples = {}
    for kind in kinds:
        calls = sorted(float(x) for o in outcomes for x in o.latencies_us.get(kind, ()))
        values[f"predict_p50_us.{kind}"] = statistics.median(calls) if calls else 0.0
        values[f"predict_p99_us.{kind}"] = percentile(calls, 99.0) if calls else 0.0
        values[f"model_bytes.{kind}"] = outcomes[0].model_bytes.get(kind, 0)
        if calls:
            samples[f"predict_us.{kind}"] = summary(calls)
    return values, samples


def measure_per_layer(wl, args, spans_module, kinds):
    tracer = spans_module.Tracer()
    tally = Tally()
    wl.untraced = tracer.paused

    def check(out):
        with tracer.paused():
            tally.add(wl.check(out))

    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    setup_totals = tracer.totals()
    setup_counts = dict(tracer.counters)
    tracer.counters.clear()

    # untraced and traced passes alternate, so that the overhead compares
    # passes made close together while the machine's speed drifts
    first = len(tracer.spans)
    untraced, traced = [], []
    while True:
        untraced.append(timed_pass(wl, check))
        tracer.install()
        try:
            traced.append(timed_pass(wl, check))
        finally:
            tracer.uninstall()
        if sum(untraced) + sum(traced) + untraced[-1] + traced[-1] > args.seconds:
            break

    values = spans_module.layer_metrics(
        setup_totals, tracer.totals(first), setup_counts, dict(tracer.counters),
        passes=len(traced),
        overhead_s=statistics.median(t - u for u, t in zip(untraced, traced)),
    )
    models, samples = model_metrics(tally.outcomes, kinds)
    values.update(models)
    report = {"samples": samples, "digests": tally.digests,
              "untraced_pass_s": summary(untraced), "traced_pass_s": summary(traced),
              "spans": len(tracer.spans)}
    return values, spans_module.PER_LAYER + MODEL_METRICS, tally, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ppghrv" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ppghrv'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    malloc = pin_malloc()  # before numpy allocates
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    import scipy
    import ppghrv
    import ppghrv.cli
    import_s = time.perf_counter() - t0
    if Path(ppghrv.__file__).resolve().parent != SRC / "ppghrv":
        print(f"perfbench: imported ppghrv from {ppghrv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    sizes = workloads.TOY if args.toy else workloads.FULL
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](sizes, args.seed, work_dir)
        if args.trace:
            import spans

            values, names, tally, report = measure_per_layer(wl, args, spans, workloads.KINDS)
        else:
            import speed

            values, names, tally, report = measure_end_to_end(wl, sizes, args, import_s, speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    metrics = {name: {"value": finite_or_none(values[name]), "unit": unit}
               for name, unit in names}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    report["environment"] = environment(args, np, scipy, malloc)
    print("report " + json.dumps(report, sort_keys=True))
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
