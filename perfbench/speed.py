"""Host-speed probe: end-to-end times in reference-speed seconds.

On a shared 2-vCPU VM the host's speed moves by up to 2x, in states that
last from seconds to minutes, and thread CPU time moves with it (no time is
stolen; each instruction just runs slower).  Raw times of the same code then
spread over ten runs by more than the largest bound the benchmark may set.

The probe times a fixed reference mix of work like the workload's own (see
MIXES) at the start and the end of a timed region and every TICK_S inside
it, from a SIGALRM handler.  A region's reference-speed seconds are its own
seconds, less the probe's, times the mix's REFERENCE_S over the median probe
time: how long the region would have taken on a host where the mix takes
REFERENCE_S.  The mixes call nothing in ppghrv, so a change to the package
cannot move them.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import time

import numpy as np

TICK_S = 0.2  # program time between probes inside a region

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal(300)
_LARGE = _rng.standard_normal(100_000)
_TABLE = _rng.standard_normal(1 << 19)  # 4 MiB, past the L2 cache
_GATHER = _rng.integers(0, _TABLE.size, size=200_000)
_TEXT_ROWS = _LARGE[:350].tolist()


def _loops() -> None:
    s = 0
    for i in range(16_000):
        s += i * i % 7


def _small_numpy() -> None:
    for _ in range(45):
        d = np.diff(_SMALL)
        np.sqrt(np.mean(d * d))
        np.std(_SMALL)


def _large_numpy() -> None:
    np.cumsum(np.sort(_LARGE))
    np.exp(-np.abs(_LARGE))


def _csv_text() -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for v in _TEXT_ROWS:
        writer.writerow([repr(v), f"{v:.6f}"])
    for row in csv.reader(io.StringIO(buf.getvalue())):
        float(row[0])


def _memory() -> None:
    _TABLE[_GATHER].sum()


# A host slowdown moves interpreter-bound work and numpy work on large arrays
# by different amounts, so each workload names the mix that resembles its hot
# path.  (parts, REFERENCE_S): the parts run in turn, and REFERENCE_S is a
# fixed scale, near the mix's time on a 2-vCPU Xeon VM while the host is fast.
MIXES = {
    "interpreter": ((_loops, _csv_text), 0.0025),
    "numpy": ((_loops, _small_numpy, _large_numpy, _memory), 0.0055),
}


class Probe:
    """Times regions in reference-speed seconds; see the module docstring."""

    def __init__(self, mix: str):
        self._parts, self._reference_s = MIXES[mix]
        self._samples: list[float] = []
        self._spent = 0.0
        self._active = False

    def _tick(self, signum, frame) -> None:
        if not self._active:  # a signal left pending when the region ended
            return
        t0 = time.perf_counter()
        self._samples.append(self.probe_s())
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        self._spent += time.perf_counter() - t0

    def measure(self, fn):
        """Run fn(); return (its result, raw seconds, reference-speed seconds)."""
        self._samples = [self.probe_s()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0 - self._spent
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(self.probe_s())
        return out, seconds, self.scale(seconds, self._samples)

    def probe_s(self) -> float:
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        return time.perf_counter() - t0

    def scale(self, seconds: float, samples) -> float:
        return seconds * self._reference_s / statistics.median(samples)
