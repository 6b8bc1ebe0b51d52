"""Time-domain HRV metrics and the error measure used to compare estimators.

Metric values are milliseconds; mape() returns percent.  SDNN uses the
population form (divide by N), RMSSD averages the N-1 squared successive
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import HrvError

MS_PER_MINUTE = 60_000.0  # converts HR in bpm to an interval in ms


class HrvMetricKind(Enum):
    SDNN = "sdnn"
    RMSSD = "rmssd"


@dataclass(frozen=True)
class RrSeries:
    """Consecutive beat-to-beat intervals in milliseconds."""

    intervals_ms: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.intervals_ms, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("intervals_ms must be one-dimensional")
        if arr.size and not np.all(arr > 0):
            raise ValueError("RR intervals must be positive")
        object.__setattr__(self, "intervals_ms", arr)

    def __len__(self) -> int:
        return int(self.intervals_ms.size)


def sdnn(rr: RrSeries) -> float:
    """Standard deviation of the intervals around their mean (divide by N)."""
    x = rr.intervals_ms
    if x.size < 2:
        raise HrvError(f"sdnn needs at least 2 intervals, got {x.size}")
    return float(np.sqrt(np.mean((x - np.mean(x)) ** 2)))


def rmssd(rr: RrSeries) -> float:
    """Root mean square of successive differences over the N-1 pairs."""
    x = rr.intervals_ms
    if x.size < 2:
        raise HrvError(f"rmssd needs at least 2 intervals, got {x.size}")
    d = np.diff(x)
    return float(np.sqrt(np.sum(d * d) / d.size))


def rough_hrv(hr_per_s, kind: HrvMetricKind) -> float:
    """HRV estimated directly from a per-second HR sequence.

    Each HR value is converted to a pseudo RR interval 60000/HR and the
    requested metric is computed over those intervals.  This is the
    signal-processing-only estimate; smoothing upstream means it understates
    the true beat-to-beat variability.

    Accepts a SmoothedHrSeries or any 1-D array of HRs in bpm.
    """
    values = getattr(hr_per_s, "values", hr_per_s)
    hr = np.asarray(values, dtype=np.float64)
    if hr.size < 2:
        raise HrvError(f"rough_hrv needs at least 2 HR values, got {hr.size}")
    if not np.all(hr > 0):
        raise ValueError("HR values must be positive")
    pseudo = RrSeries(MS_PER_MINUTE / hr)
    return sdnn(pseudo) if kind is HrvMetricKind.SDNN else rmssd(pseudo)


def mape(estimates, truths) -> float:
    """Mean absolute percentage error of estimates against truths, in percent."""
    est = np.asarray(estimates, dtype=np.float64)
    tru = np.asarray(truths, dtype=np.float64)
    if est.ndim != 1 or tru.ndim != 1:
        raise HrvError("mape expects two one-dimensional sequences")
    if est.size != tru.size or est.size == 0:
        raise HrvError(
            f"mape needs equal non-empty lengths, got {est.size} and {tru.size}"
        )
    if np.any(tru == 0):
        raise HrvError("mape is undefined for zero truth values")
    return float(np.mean(np.abs(est - tru) / np.abs(tru)) * 100.0)
