"""Supervised datasets pairing processed HR features with exact labels.

An HRV sample holds n consecutive per-second HRs plus their rough HRV as
features; its label is the true metric over the ground-truth intervals in
the same time span.  Splitting is chronological; time series must never be
shuffled across the train/test boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, HrvError
from .metrics import HrvMetricKind, check_positive, checked_array, hrv_rows, rough_hrv
from .sigproc import HR_CLAMP_HIGH_BPM, HR_CLAMP_LOW_BPM, SmoothedHrSeries
from .synth import GroundTruth, first_non_increasing

CHUNK_BYTES = 256 * 1024  # bytes of windows measured at a time; bounds the temporaries


@dataclass(frozen=True)
class Dataset:
    """Time-ordered samples as dense arrays, one row per window; at least
    one row, so no trainer checks for an empty dataset."""

    features: np.ndarray          # (m, d)
    labels: np.ndarray            # (m,)
    window_end_times_s: np.ndarray  # (m,), strictly increasing

    def __post_init__(self):
        X = checked_array(self.features, "features", 2)
        y = checked_array(self.labels, "labels", 1)
        t = checked_array(self.window_end_times_s, "window_end_times_s", 1)
        if not (X.shape[0] == y.size == t.size):
            raise HrvError(
                f"features, labels and times must agree in length, "
                f"got {X.shape[0]}, {y.size} and {t.size}"
            )
        if y.size == 0:
            raise HrvError("a dataset needs at least one sample")
        bad = first_non_increasing(t)
        if bad is not None:
            raise HrvError(f"window end times must strictly increase, not at {float(t[bad])} s")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "window_end_times_s", t)

    def __len__(self) -> int:
        return int(self.labels.size)

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])


def check_processed(ds: Dataset) -> None:
    """HrvError naming the first row holding what process never writes: an
    HR feature outside [HR_CLAMP_LOW_BPM, HR_CLAMP_HIGH_BPM] (ppg_to_hr keeps
    its estimates inside, and z-score repair and smoothing average them), a
    rough HRV (the last feature) that is not finite and >= 0, or a label
    that is not > 0 (MAPE divides by it)."""
    X = ds.features
    ok = (X >= HR_CLAMP_LOW_BPM) & (X <= HR_CLAMP_HIGH_BPM)
    ok[:, -1] = (X[:, -1] >= 0) & (X[:, -1] < np.inf)
    bad = np.flatnonzero(~ok.all(axis=1) | ~(ds.labels > 0))
    if not bad.size:
        return
    i = int(bad[0])
    where = f"dataset row {i} (window end {float(ds.window_end_times_s[i])!r} s)"
    check_positive(ds.labels[i:i + 1], f"the label of {where}")
    j = int(np.argmin(ok[i]))
    x = float(X[i, j])
    if j == X.shape[1] - 1:
        raise HrvError(f"{where}: rough HRV feature f{j} = {x!r} must be finite and >= 0")
    raise HrvError(f"{where}: HR feature f{j} = {x!r} lies outside "
                   f"[{HR_CLAMP_LOW_BPM:g}, {HR_CLAMP_HIGH_BPM:g}] bpm")


def build_hrv_dataset(
    shr: SmoothedHrSeries,
    gt: GroundTruth,
    n_s: int,
    kind: HrvMetricKind,
    stride_s: int = 1,
) -> Dataset:
    """Sliding n-second windows over the per-second HRs, exactly labelled.

    Window w covers smoothed indices [w*stride, w*stride + n); its feature
    vector is those n HRs plus their rough HRV, and its label is the true
    metric over the ground-truth beats inside the same time span.  With
    stride 1 the dataset holds len(shr) - n + 1 samples.
    """
    check_window(n_s, stride_s)
    n = int(n_s)
    stride = int(stride_s)
    vals = shr.values
    if vals.size < n:
        raise HrvError(
            f"need {n} smoothed HRs for one window, trace has {vals.size}"
        )
    m = (vals.size - n) // stride + 1
    lo = np.arange(m) * stride
    t0 = shr.start_time_s + lo
    t_end = shr.start_time_s + (lo + n)
    first = np.searchsorted(gt.beat_times_s, t0 - 1e-9, side="left")
    beats = np.searchsorted(gt.beat_times_s, t_end + 1e-9, side="right") - first
    short = np.flatnonzero(beats < 3)  # fewer than two intervals
    if short.size:
        w = short[0]
        raise HrvError(
            f"window [{t0[w]:.1f}, {t_end[w]:.1f}]s holds {beats[w]} beats; "
            "need at least 3 for an HRV label"
        )
    X = np.empty((m, n + 1), dtype=np.float64)
    X[:, :n] = sliding_window_view(vals, n)[::stride]
    y = np.empty(m, dtype=np.float64)
    rr = gt.rr.intervals_ms
    # each kernel row is a fresh C-contiguous copy, so it equals a 1-D call
    step = max(1, CHUNK_BYTES // (8 * n))
    for c0 in range(0, m, step):
        X[c0 : c0 + step, n] = rough_hrv(X[c0 : c0 + step, :n], kind)
        counts = beats[c0 : c0 + step]
        for count in np.unique(counts):
            same = c0 + np.flatnonzero(counts == count)
            y[same] = hrv_rows(rr[first[same, None] + np.arange(count - 1)], kind)
    return Dataset(X, y, t_end)


def sigproc_estimates(ds: Dataset) -> np.ndarray:
    """Each window's sig-proc-only HRV estimate: the rough HRV that
    build_hrv_dataset writes as the last feature."""
    return ds.features[:, -1]


def check_window(n_s: int, stride_s: int) -> None:
    """ConfigError unless build_hrv_dataset can cut n_s s windows every stride_s s."""
    if n_s < 2:
        raise ConfigError(f"n_s must be at least 2 s, got {n_s}")
    if stride_s < 1:
        raise ConfigError(f"stride_s must be at least 1 s, got {stride_s}")


def check_train_fraction(train_fraction: float) -> None:
    """ConfigError unless chronological_split can split at train_fraction."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")


def chronological_split(d: Dataset, train_fraction: float) -> tuple[Dataset, Dataset]:
    """First ceil(fraction * m) samples train, the rest test; no shuffling.

    Both halves are guaranteed non-empty, nudging the boundary by one
    sample when rounding would empty either side.
    """
    check_train_fraction(train_fraction)
    m = len(d)
    if m < 2:
        raise HrvError(f"cannot split {m} sample(s) into train and test")
    n_train = int(np.ceil(train_fraction * m))
    n_train = min(max(n_train, 1), m - 1)

    def _slice(a, b):
        return Dataset(d.features[a:b], d.labels[a:b], d.window_end_times_s[a:b])

    return _slice(0, n_train), _slice(n_train, m)
