"""Per-layer tracing installed from outside the package.

A Tracer wraps the public entry points of each ppghrv layer where they are
bound: every ``ppghrv.*`` module attribute that is the original function is
replaced, so ``ppghrv.experiment.random_search`` and
``ppghrv.models.search.train_dt`` are traced without editing the package.
Model ``predict_batch`` methods are wrapped per class.  Nothing is patched
until ``install()`` and ``uninstall()`` restores every binding, so an
untraced run executes the package exactly as shipped.

Spans (name, parent index, start, end) stay in memory; counters are derived
from public arguments and return values only.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from ppghrv import amplify, cli, data, experiment, metrics, sigproc, synth
from ppghrv import io as hrvio
from ppghrv.models import codec, forest, knn, mlp, search, tree
from ppghrv.sigproc import HR_FALLBACK_BPM

# Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = [
    ("io.read_ppg_csv.s", "s"),
    ("io.write_ppg_csv.s", "s"),
    ("io.write_dataset_csv.s", "s"),
    ("io.read_dataset_csv.s", "s"),
    ("io.write_trace_csv.s", "s"),
    ("io.write_results_csv.s", "s"),
    ("io.bytes_read", "B"),
    ("io.bytes_written", "B"),
    ("sigproc.ppg_to_hr.s", "s"),
    ("sigproc.zscore_adjust.s", "s"),
    ("sigproc.smooth.s", "s"),
    ("sigproc.windows", "count"),
    ("sigproc.fresh_hr_ratio", "ratio"),
    ("sigproc.fallback_count", "count"),
    ("sigproc.zscore_repaired", "count"),
    ("synth.generate_rr_trace.s", "s"),
    ("synth.render_ppg.s", "s"),
    ("data.build_hrv_dataset.s", "s"),
    ("data.rows", "count"),
    ("metrics.hrv.s", "s"),
    ("metrics.hrv_calls", "count"),
    ("search.random_search.dt.s", "s"),
    ("search.random_search.knn.s", "s"),
    ("search.random_search.mlp.s", "s"),
    ("search.candidates", "count"),
    ("search.candidates_failed", "count"),
    ("tree.train_dt.s", "s"),
    ("tree.nodes_grown", "count"),
    ("tree.predict_batch.s", "s"),
    ("forest.train_rf.s", "s"),
    ("forest.nodes_grown", "count"),
    ("forest.predict_batch.s", "s"),
    ("knn.predict_batch.s", "s"),
    ("knn.distance_rows", "count"),
    ("mlp.train_mlp.s", "s"),
    ("mlp.predict_batch.s", "s"),
    ("codec.encode.s", "s"),
    ("codec.decode.s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("amplify.amplification_table.s", "s"),
    ("trace.overhead_s", "s"),
]

# Span names whose metric is self time (span minus child spans), not total.
SELF_TIMED = {"experiment.run_experiment", "cli.main"}


def _size_read(counters, args, kwargs, result):
    counters["io.bytes_read"] += os.path.getsize(args[0])


def _size_written(counters, args, kwargs, result):
    counters["io.bytes_written"] += os.path.getsize(args[0])


def _hr_quality(counters, args, kwargs, result):
    v = result.values
    counters["sigproc.windows"] += v.size
    counters["hr.changed"] += int(np.count_nonzero(v[1:] != v[:-1]))
    not_fallback = np.flatnonzero(v != HR_FALLBACK_BPM)
    counters["sigproc.fallback_count"] += int(not_fallback[0]) if not_fallback.size else v.size


def _zscore_repaired(counters, args, kwargs, result):
    counters["sigproc.zscore_repaired"] += int(np.count_nonzero(result.values != args[0].values))


def _dataset_rows(counters, args, kwargs, result):
    counters["data.rows"] += len(result)


def _hrv_call(counters, args, kwargs, result):
    counters["metrics.hrv_calls"] += 1


def _search(counters, args, kwargs, result):
    counters["search.candidates"] += len(result.candidates)
    counters["search.candidates_failed"] += sum(
        c.val_mape_pct is None for c in result.candidates
    )


def _search_name(args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return f"search.random_search.{kind.value}"


def _tree_nodes(counters, args, kwargs, result):
    counters["tree.nodes_grown"] += result.n_nodes()


def _forest_nodes(counters, args, kwargs, result):
    counters["forest.nodes_grown"] += sum(len(t) for t in result.trees)


def _distance_rows(counters, args, kwargs, result):
    model, queries = args[0], np.asarray(args[1])
    rows = 1 if queries.ndim == 1 else queries.shape[0]
    counters["knn.distance_rows"] += rows * model.X.shape[0]


# (module, attribute, span name or callable(args, kwargs) -> name, counter)
FUNCTIONS = [
    (hrvio, "read_ppg_csv", "io.read_ppg_csv", _size_read),
    (hrvio, "write_ppg_csv", "io.write_ppg_csv", _size_written),
    (hrvio, "write_dataset_csv", "io.write_dataset_csv", _size_written),
    (hrvio, "read_dataset_csv", "io.read_dataset_csv", _size_read),
    (hrvio, "write_trace_csv", "io.write_trace_csv", _size_written),
    (hrvio, "write_results_csv", "io.write_results_csv", _size_written),
    (sigproc, "ppg_to_hr", "sigproc.ppg_to_hr", _hr_quality),
    (sigproc, "zscore_adjust", "sigproc.zscore_adjust", _zscore_repaired),
    (sigproc, "smooth", "sigproc.smooth", None),
    (synth, "generate_rr_trace", "synth.generate_rr_trace", None),
    (synth, "render_ppg", "synth.render_ppg", None),
    (data, "build_hrv_dataset", "data.build_hrv_dataset", _dataset_rows),
    (metrics, "rmssd", "metrics.hrv", _hrv_call),
    (metrics, "sdnn", "metrics.hrv", _hrv_call),
    (search, "random_search", _search_name, _search),
    (tree, "train_dt", "tree.train_dt", _tree_nodes),
    (forest, "train_rf", "forest.train_rf", _forest_nodes),
    (mlp, "train_mlp", "mlp.train_mlp", None),
    (codec, "encode", "codec.encode", None),
    (codec, "decode", "codec.decode", None),
    (experiment, "run_experiment", "experiment.run_experiment", None),
    (cli, "main", "cli.main", None),
    (amplify, "amplification_table", "amplify.amplification_table", None),
]

# (model class, span name, counter) for the batch entry point of each model.
METHODS = [
    (tree.DecisionTree, "tree.predict_batch", None),
    (forest.RandomForest, "forest.predict_batch", None),
    (knn.KnnRegressor, "knn.predict_batch", _distance_rows),
    (mlp.MlpRegressor, "mlp.predict_batch", None),
]


_INHERITED = object()  # marks a method the class did not define itself


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._paused = False
        self._undo: list = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span_name, parent, t0, t1)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ppghrv" or n.startswith("ppghrv."))]
        for home, attr, name, count in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for cls, name, count in METHODS:
            own = vars(cls).get("predict_batch", _INHERITED)
            setattr(cls, "predict_batch", self._wrap(cls.predict_batch, name, count))
            self._undo.append((cls, "predict_batch", own))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside go unrecorded: serve's single-call loop, output checks."""
        was_paused, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was_paused

    def totals(self, first_span: int = 0) -> dict[str, float]:
        """Seconds per span name from first_span on; self time for SELF_TIMED."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= first_span:
                child[parent - first_span] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(spans):
            out[name] += (t1 - t0) - (child[i] if name in SELF_TIMED else 0.0)
        return out


def layer_metrics(
    setup_totals: dict[str, float],
    timed_totals: dict[str, float],
    setup_counts: dict[str, float],
    timed_counts: dict[str, float],
    passes: int,
    overhead_s: float,
) -> dict[str, float]:
    """Per-layer values for one set-up plus one timed pass."""

    def per_run(setup: dict, timed: dict, key: str) -> float:
        return setup.get(key, 0.0) + timed.get(key, 0.0) / passes

    values = {}
    for metric, unit in PER_LAYER:
        if unit == "s":
            span = metric.rsplit(".", 1)[0]
            values[metric] = per_run(setup_totals, timed_totals, span)
        else:
            values[metric] = per_run(setup_counts, timed_counts, metric)
    estimates = values["sigproc.windows"]
    changed = per_run(setup_counts, timed_counts, "hr.changed")
    values["sigproc.fresh_hr_ratio"] = changed / estimates if estimates else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
