"""Single-prediction latency measurement with warm-up excluded."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .base import TrainedModel

MIN_REPETITIONS = 100
# times_ns holds one float per call and a knn predict takes ~0.1 ms, so 10^6
# calls are 8 MB and about two minutes; 100x the CLI's default
MAX_REPETITIONS = 1_000_000
WARMUP_CALLS = 50


@dataclass(frozen=True)
class LatencyStats:
    min_us: float
    mean_us: float
    p99_us: float
    repetitions: int


def check_repetitions(repetitions: int) -> None:
    """ConfigError unless bench_inference may time `repetitions` calls."""
    if not MIN_REPETITIONS <= repetitions <= MAX_REPETITIONS:
        raise ConfigError(
            f"repetitions must lie in [{MIN_REPETITIONS}, {MAX_REPETITIONS}], got {repetitions}"
        )


def bench_inference(
    model: TrainedModel,
    probe_inputs,
    repetitions: int,
) -> LatencyStats:
    """Time `repetitions` single predict calls, cycling over the probes.

    The first WARMUP_CALLS calls are run untimed so caches and allocator state
    settle; statistics cover exactly `repetitions` timed calls.
    """
    check_repetitions(repetitions)
    probes = [np.asarray(p, dtype=np.float64) for p in probe_inputs]
    if not probes:
        raise ConfigError("need at least one probe input")
    n = len(probes)
    for i in range(WARMUP_CALLS):
        model.predict(probes[i % n])
    times_ns = np.empty(repetitions, dtype=np.float64)
    for i in range(repetitions):
        x = probes[i % n]
        t0 = time.perf_counter_ns()
        model.predict(x)
        times_ns[i] = time.perf_counter_ns() - t0
    us = times_ns / 1000.0
    return LatencyStats(
        min_us=float(us.min()),
        mean_us=float(us.mean()),
        p99_us=float(np.percentile(us, 99)),
        repetitions=repetitions,
    )
