"""Time-domain HRV metrics and the error measure used to compare estimators.

Metric values are milliseconds; mape() returns percent.  SDNN uses the
population form (divide by N), RMSSD averages the N-1 squared successive
differences.

Each formula is written once, as a kernel over the last axis of an array
(rmssd_rows, sdnn_rows, mape_rows; hrv_rows picks SDNN or RMSSD); the 1-D
functions check their input and call the kernel on it.  numpy reduces each
row along a last axis of unit stride with the same pairwise sum as a 1-D call
on that row, so a kernel's value for a row equals the 1-D value bit for bit.
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


def checked_array(values, name: str, ndim: int) -> np.ndarray:
    """values as a float64 array of ndim axes; HrvError naming the field
    `name` otherwise.  Every data type checks its arrays with it, and so
    does mape."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise HrvError(f"{name} must be numbers: {err}") from None
    if arr.ndim != ndim:
        raise HrvError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr


def check_positive(values: np.ndarray, name: str) -> None:
    """HrvError unless every value is > 0 (a nan is not)."""
    ok = values > 0
    if not ok.all():
        raise HrvError(f"{name} must be > 0, not {float(values[~ok][0])}")


@dataclass(frozen=True)
class RrSeries:
    """Consecutive beat-to-beat intervals in milliseconds."""

    intervals_ms: np.ndarray

    def __post_init__(self):
        arr = checked_array(self.intervals_ms, "intervals_ms", 1)
        check_positive(arr, "RR intervals")
        object.__setattr__(self, "intervals_ms", arr)

    def __len__(self) -> int:
        return int(self.intervals_ms.size)


def sdnn_rows(x: np.ndarray) -> np.ndarray:
    """SDNN of each row of x, intervals along the last axis (at least 2)."""
    return np.sqrt(np.mean((x - np.mean(x, axis=-1, keepdims=True)) ** 2, axis=-1))


def rmssd_rows(x: np.ndarray) -> np.ndarray:
    """RMSSD of each row of x, intervals along the last axis (at least 2)."""
    d = np.diff(x, axis=-1)
    return np.sqrt(np.sum(d * d, axis=-1) / d.shape[-1])


def sdnn(rr: RrSeries) -> float:
    """Standard deviation of the intervals around their mean (divide by N)."""
    x = rr.intervals_ms
    if x.size < 2:
        raise HrvError(f"sdnn needs at least 2 intervals, got {x.size}")
    return float(sdnn_rows(x))


def rmssd(rr: RrSeries) -> float:
    """Root mean square of successive differences over the N-1 pairs."""
    x = rr.intervals_ms
    if x.size < 2:
        raise HrvError(f"rmssd needs at least 2 intervals, got {x.size}")
    return float(rmssd_rows(x))


def hrv_rows(x: np.ndarray, kind: HrvMetricKind) -> np.ndarray:
    """The metric `kind` of each row of x, intervals along the last axis."""
    return sdnn_rows(x) if kind is HrvMetricKind.SDNN else rmssd_rows(x)


def rough_hrv(hr_per_s, kind: HrvMetricKind) -> np.ndarray:
    """HRV estimated directly from per-second HRs (bpm) along the last axis.

    Each HR value is converted to a pseudo RR interval 60000/HR and the
    requested metric is computed over those intervals.  This is the
    signal-processing-only estimate; smoothing upstream means it understates
    the true beat-to-beat variability.  A 1-D input gives a 0-d array.
    """
    hr = np.atleast_1d(np.asarray(hr_per_s, dtype=np.float64))
    if hr.shape[-1] < 2:
        raise HrvError(f"rough_hrv needs at least 2 HR values, got {hr.shape[-1]}")
    check_positive(hr, "HR values")
    return hrv_rows(MS_PER_MINUTE / hr, kind)


def mape_rows(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """MAPE in percent of each row of estimates against the 1-D truths."""
    if np.any(truths == 0):
        raise HrvError("mape is undefined for zero truth values")
    return np.mean(np.abs(estimates - truths) / np.abs(truths), axis=-1) * 100.0


def mape(estimates, truths) -> float:
    """Mean absolute percentage error of estimates against truths, in percent.

    HrvError names the first estimate that is not finite, with its row; a
    score that is not finite (say, from estimates near the float64 limit)
    raises too, so eval, run and the search never report an inf or nan.
    """
    est = checked_array(estimates, "estimates", 1)
    tru = checked_array(truths, "truths", 1)
    if est.size != tru.size or est.size == 0:
        raise HrvError(
            f"mape needs equal non-empty lengths, got {est.size} and {tru.size}"
        )
    bad = np.flatnonzero(~np.isfinite(est))
    if bad.size:
        raise HrvError(f"the estimate for row {bad[0]} is {est[bad[0]]}, not a finite number")
    with np.errstate(over="ignore", invalid="ignore"):
        score = float(mape_rows(est, tru))
    if not np.isfinite(score):
        raise HrvError(f"MAPE is {score}, not a finite number")
    return score
