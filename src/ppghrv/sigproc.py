"""PPG signal to cleaned per-second heart rate.

The chain is detect_peaks -> ppg_to_hr (4 estimates/s from a trailing
window) -> zscore_adjust (statistical outlier repair) -> smooth (1 HR/s).
Designed around wrist-wearable constraints: low sampling rate, motion
artifacts, limited compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .errors import ConfigError, EmptySignal, SignalTooShort, TooShort
from .metrics import MS_PER_MINUTE

DEFAULT_SAMPLING_RATE_HZ = 25.0
HR_ESTIMATES_PER_S = 4                # one raw HR every 0.25 s
HR_WINDOW_LEN_S = 8.0                 # trailing window behind each estimate
MIN_PEAK_DISTANCE_S = 0.27            # refractory period, just under 220 bpm
PROMINENCE_FRACTION = 0.3             # of the detrended peak-to-peak range
DETREND_WINDOW_S = 1.0                # centred moving-average width
HR_CLAMP_LOW_BPM = 20.0               # exclusive physiological bounds;
HR_CLAMP_HIGH_BPM = 250.0             # estimates outside carry the previous
HR_FALLBACK_BPM = 60.0                # used when no previous estimate exists
DEFAULT_Z_SCORE = 3.0


@dataclass(frozen=True)
class PpgSignal:
    """Uniformly sampled PPG samples with a start offset in seconds."""

    sampling_rate_hz: float
    samples: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        object.__setattr__(self, "samples", arr)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sampling_rate_hz


@dataclass(frozen=True)
class RawHrSeries:
    """HR estimates at HR_ESTIMATES_PER_S; values[0] was emitted at start_time_s."""

    values: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size and not np.all(arr > 0):
            raise ValueError("HR values must be positive")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SmoothedHrSeries:
    """One HR per second; values[k] covers [start_time_s + k, start_time_s + k + 1)."""

    values: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def moving_average(x: np.ndarray, w: int) -> np.ndarray:
    """Centred moving average of width w, clipped to len(x); edges average
    the samples available."""
    w = max(1, min(w, x.size))
    kernel = np.ones(w)
    return np.convolve(x, kernel, mode="same") / np.convolve(
        np.ones_like(x), kernel, mode="same"
    )


def detect_peaks(window: PpgSignal) -> np.ndarray:
    """Indices of pulse peaks within one PPG window.

    The window is detrended with a centred moving average DETREND_WINDOW_S
    wide (or as wide as the window, if that is shorter) so baseline wander
    does not mask pulses.  Local maxima are then kept if their prominence
    reaches PROMINENCE_FRACTION of the detrended peak-to-peak range and they
    lie at least MIN_PEAK_DISTANCE_S apart.  A flat window yields an empty
    array; that is a valid result, not a failure.
    """
    if window.samples.size == 0:
        raise EmptySignal("detect_peaks got an empty window")
    if window.duration_s < 2 * MIN_PEAK_DISTANCE_S:
        raise SignalTooShort(
            f"window of {window.duration_s:.3f}s cannot hold two peaks "
            f"{MIN_PEAK_DISTANCE_S:.3f}s apart"
        )
    fs = window.sampling_rate_hz
    w = int(round(DETREND_WINDOW_S * fs)) | 1  # odd, so the average is centred
    x = window.samples - moving_average(window.samples, w)
    span = float(np.ptp(x))
    # a constant window leaves ~1e-16 of convolution residue, not exact zeros
    if span <= 1e-9 * max(1.0, float(np.max(np.abs(window.samples)))):
        return np.empty(0, dtype=np.intp)
    distance = max(1.0, MIN_PEAK_DISTANCE_S * fs)
    peaks, _ = find_peaks(x, distance=distance, prominence=PROMINENCE_FRACTION * span)
    return peaks


def ppg_to_hr(signal: PpgSignal) -> RawHrSeries:
    """Estimate HR at HR_ESTIMATES_PER_S from a trailing window over the PPG.

    Each estimate is 60000 / (mean inter-peak interval in ms) over the peaks
    detected inside the trailing HR_WINDOW_LEN_S window, so the first
    HR_WINDOW_LEN_S seconds produce no output.  Estimates outside (20, 250)
    bpm, and windows with fewer than two peaks, reuse the previous value;
    the very first falls back to 60 bpm.
    """
    if signal.samples.size == 0:
        raise EmptySignal("ppg_to_hr got an empty signal")
    fs = signal.sampling_rate_hz
    duration = signal.duration_s
    if duration < HR_WINDOW_LEN_S:
        raise SignalTooShort(
            f"need at least {HR_WINDOW_LEN_S}s of signal, got {duration:.2f}s"
        )
    step = 1.0 / HR_ESTIMATES_PER_S
    n_out = int(np.floor((duration - HR_WINDOW_LEN_S) / step + 1e-9)) + 1
    values = np.empty(n_out, dtype=np.float64)
    prev = None
    for j in range(n_out):
        end_t = HR_WINDOW_LEN_S + j * step
        i1 = int(round(end_t * fs))
        i0 = int(round((end_t - HR_WINDOW_LEN_S) * fs))
        peaks = detect_peaks(PpgSignal(fs, signal.samples[i0:i1]))
        hr = np.nan
        if peaks.size >= 2:
            mean_interval_ms = float(np.mean(np.diff(peaks))) / fs * 1000.0
            hr = MS_PER_MINUTE / mean_interval_ms
        if not (HR_CLAMP_LOW_BPM < hr < HR_CLAMP_HIGH_BPM):  # also catches nan
            hr = prev if prev is not None else HR_FALLBACK_BPM
        values[j] = hr
        prev = hr
    return RawHrSeries(
        values=values, start_time_s=signal.start_time_s + HR_WINDOW_LEN_S
    )


def zscore_adjust(hr: RawHrSeries, z_score: float = DEFAULT_Z_SCORE) -> RawHrSeries:
    """Replace statistical outliers with the average of their neighbours.

    mu and delta are the mean and population standard deviation of the whole
    input series; a point is an outlier when |HR_i - mu| > z * delta.
    Replacement walks left to right, so the left neighbour is the already
    adjusted value while the right neighbour is the raw next value.  Edge
    outliers take their single neighbour.  A zero-spread series comes back
    unchanged.

    Note the strict inequality: a lone spike among N-1 equal values reaches
    |HR - mu| = delta * sqrt(N-1) exactly, so at z=3 it is only repaired
    when the series has more than 10 points.  z_score must be finite and
    positive (ConfigError otherwise).
    """
    if not (np.isfinite(z_score) and z_score > 0):
        raise ConfigError(f"z_score must be a finite number > 0, got {z_score!r}")
    x = hr.values
    if x.size < 3:
        raise TooShort(f"zscore_adjust needs at least 3 values, got {x.size}")
    mu = float(np.mean(x))
    delta = float(np.std(x))
    if delta == 0.0:
        return hr
    outliers = np.flatnonzero(np.abs(x - mu) > z_score * delta)
    if outliers.size == 0:
        return hr
    adj = x.copy()
    last = x.size - 1
    for i in outliers:
        if i == 0:
            adj[0] = x[1]
        elif i == last:
            adj[last] = adj[last - 1]
        else:
            adj[i] = 0.5 * (adj[i - 1] + x[i + 1])
    return RawHrSeries(adj, hr.start_time_s)


def smooth(hr: RawHrSeries) -> SmoothedHrSeries:
    """Average each second's worth of raw estimates into one value.

    Groups of HR_ESTIMATES_PER_S consecutive estimates are averaged; a
    trailing partial group is discarded, so the output holds
    floor(len / HR_ESTIMATES_PER_S) values.
    """
    x = hr.values
    g = HR_ESTIMATES_PER_S
    if x.size < g:
        raise TooShort(f"smooth needs at least {g} values, got {x.size}")
    m = x.size // g
    vals = x[: m * g].reshape(m, g).mean(axis=1)
    return SmoothedHrSeries(values=vals, start_time_s=hr.start_time_s)
