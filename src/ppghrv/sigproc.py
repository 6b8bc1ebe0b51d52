"""PPG signal to cleaned per-second heart rate.

The chain is detect_peaks -> ppg_to_hr (4 estimates/s from a trailing
window) -> zscore_adjust (statistical outlier repair) -> smooth (1 HR/s).
Designed around wrist-wearable constraints: low sampling rate, motion
artifacts, limited compute.

detect_peaks defines one window's peaks.  ppg_to_hr does not call it per
window: consecutive windows overlap by all but 0.25 s, so _peak_spans
searches a block of windows with one detrend and two find_peaks calls, and
gets detect_peaks' result bit for bit.  The windows it marks alone go to
detect_peaks in one loop in ppg_to_hr, the only per-window fallback, before
the HR formula, clamp and carry-forward apply once to the whole series:

- Detrend.  _detrend_windows is the one detrend; detect_peaks calls it on a
  block of one window.  Each trend value sums only its own window's
  samples, in an order that depends neither on where the window sits in
  the block nor on the BLAS kernel.
- Separators.  The detrended windows are laid end to end with runs of
  2 * ceil(distance) + 1 samples of +inf between them, and searched as one
  array.  A sample next to +inf is never a local maximum, and every
  prominence scan stops at +inf as it stops at the end of a lone window.
  Each run forms one plateau peak; its length keeps that peak further than
  the refractory distance from any real one, so it suppresses none, and it
  is dropped afterwards.  wlen = 2n + 1 leaves the scans of real peaks
  whole and bounds those of the runs.  Each window's prominence bound is
  applied to the reported prominences with find_peaks' own pmin <= p test.
- Ties.  find_peaks applies the distance rule in np.argsort order of
  height, which is not stable.  Where two local maxima closer than the
  distance have equal height, the one kept could differ between the block
  and the lone window, so such windows are marked alone.  So are windows
  that might be flat, windows whose detrended values are not finite, and
  every window of a block whose windows are narrower than the detrend
  (empty windows, below 1/16 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HrvError
from .metrics import MS_PER_MINUTE, check_positive, checked_array

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
# window samples per block in ppg_to_hr: a block's arrays stay under about
# 400 KB at any sampling rate, while find_peaks' per-peak masks mostly stay
# above the 1 KB under which numpy keeps freed buffers for reuse (with 8192,
# hundreds of KB of such buffers were left scattered through the heap, and
# the process's peak RSS rose)
_BLOCK_SAMPLES = 16384


def check_rate(sampling_rate_hz: float) -> None:
    """ConfigError unless sampling_rate_hz is > 0 Hz; nan is not."""
    if not sampling_rate_hz > 0:
        raise ConfigError(f"sampling rate must be > 0 Hz, got {sampling_rate_hz:g}")


@dataclass(frozen=True)
class PpgSignal:
    """Uniformly sampled PPG samples with a start offset in seconds."""

    sampling_rate_hz: float
    samples: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        check_rate(self.sampling_rate_hz)
        object.__setattr__(self, "samples", checked_array(self.samples, "samples", 1))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sampling_rate_hz


@dataclass(frozen=True)
class RawHrSeries:
    """HR estimates at HR_ESTIMATES_PER_S; values[0] was emitted at start_time_s."""

    values: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        arr = checked_array(self.values, "values", 1)
        check_positive(arr, "HR values")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SmoothedHrSeries:
    """One HR per second; values[k] covers [start_time_s + k, start_time_s + k + 1)."""

    values: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", checked_array(self.values, "values", 1))

    def __len__(self) -> int:
        return int(self.values.size)


def _widths(fs: float) -> tuple[int, float]:
    """In samples: the detrending average's width, odd so that it is
    centred, and find_peaks' refractory distance."""
    return int(round(DETREND_WINDOW_S * fs)) | 1, max(1.0, MIN_PEAK_DISTANCE_S * fs)


def _flatness_bound(samples: np.ndarray) -> float:
    """A detrended span at most this is flat: a constant window leaves
    ~1e-16 of rounding residue, not exact zeros."""
    return 1e-9 * max(1.0, float(np.max(np.abs(samples))))


def detect_peaks(window: PpgSignal) -> np.ndarray:
    """Indices of pulse peaks within one PPG window.

    The window is detrended with a centred moving average DETREND_WINDOW_S
    wide, narrowed to the widest odd width the window holds ((n - 1) | 1
    for n samples), so baseline wander does not mask pulses.  Local maxima
    are then kept if their prominence reaches PROMINENCE_FRACTION of the
    detrended peak-to-peak range and they lie at least MIN_PEAK_DISTANCE_S
    apart.  A flat window yields an empty array; that is a valid result,
    not a failure.
    """
    if window.duration_s < 2 * MIN_PEAK_DISTANCE_S:
        raise HrvError(
            f"window of {window.duration_s:.3f}s cannot hold two peaks "
            f"{MIN_PEAK_DISTANCE_S:.3f}s apart"
        )
    n = window.samples.size
    w, distance = _widths(window.sampling_rate_hz)
    x = np.empty((1, n))
    _detrend_windows(window.samples, np.zeros(1, dtype=np.intp), min(w, (n - 1) | 1), x)
    with np.errstate(invalid="ignore"):  # inf - inf where the sums overflowed
        span = float(np.ptp(x))
    if span <= _flatness_bound(window.samples):
        return np.empty(0, dtype=np.intp)
    from scipy.signal import find_peaks  # here, so only peak searches pay its import

    peaks, _ = find_peaks(x[0], distance=distance, prominence=PROMINENCE_FRACTION * span)
    return peaks


def ppg_to_hr(signal: PpgSignal) -> RawHrSeries:
    """Estimate HR at HR_ESTIMATES_PER_S from a trailing window over the PPG.

    Estimate j covers samples round(j / 4 * fs) up to round((8 + j / 4) * fs),
    the trailing HR_WINDOW_LEN_S window, so the first HR_WINDOW_LEN_S
    seconds produce no output.  It is 60000 / (mean inter-peak interval in
    ms) over the peaks detect_peaks finds in that window; the mean of the
    integer gaps is exactly (last - first) / (count - 1).  Estimates
    outside (20, 250) bpm, and windows with fewer than two peaks, reuse the
    previous value; the very first falls back to 60 bpm.  A nan or inf
    sample raises HrvError.

    One pass: _peak_spans fills every window's peak count and span,
    _BLOCK_SAMPLES samples' worth at a time (see the module docstring);
    the windows it marks alone go to detect_peaks here, and the formula,
    clamp and carry-forward apply once to the series.  The result equals
    one detect_peaks call per window bit for bit.
    """
    x = signal.samples
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise HrvError(f"PPG sample {bad} is {x[bad]!r}")
    fs = signal.sampling_rate_hz
    duration = signal.duration_s
    if duration < HR_WINDOW_LEN_S:
        raise HrvError(
            f"need at least {HR_WINDOW_LEN_S}s of signal, got {duration:.2f}s"
        )
    step = 1.0 / HR_ESTIMATES_PER_S
    n_out = int(np.floor((duration - HR_WINDOW_LEN_S) / step + 1e-9)) + 1
    # np.rint rounds half to even, as round() does
    end_t = HR_WINDOW_LEN_S + np.arange(n_out) * step
    i1 = np.rint(end_t * fs).astype(np.intp)
    i0 = np.rint((end_t - HR_WINDOW_LEN_S) * fs).astype(np.intp)
    count = np.empty(n_out, dtype=np.intp)
    gap_sum = np.empty(n_out, dtype=np.intp)
    alone = np.empty(n_out, dtype=bool)
    per_block = max(1, int(_BLOCK_SAMPLES / (HR_WINDOW_LEN_S * fs)))
    for j0 in range(0, n_out, per_block):
        lengths = i1[j0 : j0 + per_block] - i0[j0 : j0 + per_block]
        for n in np.unique(lengths):  # two at most, when 8 * fs is fractional
            rows = j0 + np.flatnonzero(lengths == n)
            count[rows], gap_sum[rows], alone[rows] = _peak_spans(x, fs, i0[rows], int(n))
    for j in np.flatnonzero(alone):
        peaks = detect_peaks(PpgSignal(fs, x[i0[j] : i1[j]]))
        count[j] = peaks.size
        gap_sum[j] = peaks[-1] - peaks[0] if peaks.size else 0
    hr = np.full(n_out, np.nan)
    paired = count >= 2
    hr[paired] = MS_PER_MINUTE / (gap_sum[paired] / (count[paired] - 1) / fs * 1000.0)
    fresh = (HR_CLAMP_LOW_BPM < hr) & (hr < HR_CLAMP_HIGH_BPM)  # not nan
    last = np.maximum.accumulate(np.where(fresh, np.arange(n_out), -1))
    values = np.where(last >= 0, hr[last], HR_FALLBACK_BPM)
    return RawHrSeries(
        values=values, start_time_s=signal.start_time_s + HR_WINDOW_LEN_S
    )


def _peak_spans(
    x: np.ndarray, fs: float, starts: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak count and last - first peak index of each window x[s : s + n],
    as detect_peaks gives them (see the module docstring), and the mask of
    the windows left to detect_peaks, whose count and span mean nothing."""
    from scipy.signal import find_peaks  # here, so only peak searches pay its import

    w, distance = _widths(fs)
    if n < w:  # only n = 0, below 1/16 Hz; detect_peaks words the error
        zeros = np.zeros(starts.size, dtype=np.intp)
        return zeros, zeros, np.ones(starts.size, dtype=bool)
    seg = x[starts[0] : starts[-1] + n]
    rel = starts - starts[0]
    reach = int(np.ceil(distance))
    stride = n + 2 * reach + 1  # a window and the +inf run after it
    buf = np.full((starts.size, stride), np.inf)
    body = buf[:, :n]
    _detrend_windows(seg, rel, w, body)
    # samples near the float64 limit overflow the sums; such windows are
    # left to detect_peaks
    with np.errstate(invalid="ignore"):
        span = body.max(axis=1) - body.min(axis=1)
    # the block's flatness bound is at least each window's, so every window
    # that might be flat, or whose values overflowed, is searched alone
    alone = ~np.isfinite(span) | (span <= _flatness_bound(seg))
    body[alone] = 0.0
    line = buf.ravel()
    # so is every window where two local maxima closer than reach tie
    maxima, _ = find_peaks(line)
    heights = line[maxima]
    for lag in range(1, reach):
        near = maxima[lag:] - maxima[:-lag] < reach
        if not near.any():
            break
        tied = near & (heights[lag:] == heights[:-lag])
        alone[maxima[lag:][tied] // stride] = True
    # prominence=(None, None) reports prominences without applying a bound
    peaks, props = find_peaks(
        line, distance=distance, prominence=(None, None), wlen=2 * n + 1
    )
    row, col = np.divmod(peaks, stride)
    keep = (col < n) & (PROMINENCE_FRACTION * span[row] <= props["prominences"])
    row, col = row[keep], col[keep]  # col >= n: the separators' own peaks
    count = np.bincount(row, minlength=starts.size)
    end = np.cumsum(count)
    gap_sum = np.zeros(starts.size, dtype=np.intp)
    some = count > 0
    gap_sum[some] = col[end[some] - 1] - col[end[some] - count[some]]
    return count, gap_sum, alone


def _runs(a: np.ndarray, n: int) -> np.ndarray:
    """Read-only view of every n-long run of the 1-D a, row i = a[i : i + n]:
    sliding_window_view(a, n) without its Python-level argument handling."""
    a = np.ascontiguousarray(a)
    step = a.strides[0]
    view = np.ndarray((a.size - n + 1, n), a.dtype, a, 0, (step, step))
    view.flags.writeable = False
    return view


def _detrend_windows(seg: np.ndarray, rel: np.ndarray, w: int, out: np.ndarray) -> None:
    """out[i] = v - trend for v = seg[rel[i] : rel[i] + n], n = out.shape[1]
    >= w, w odd: trend[k] averages v[k - h : k + h + 1], h = w // 2, by
    np.sum inside and by np.cumsum of the samples that exist within h of an
    end.  Sums that overflow give +-inf or nan, without a warning."""
    n = out.shape[1]
    h = w // 2
    out[:] = _runs(seg, n)[rel]
    with np.errstate(over="ignore", invalid="ignore"):
        trend = _runs(seg, w).sum(axis=1) / w
        out[:, h : n - h] -= _runs(trend, n - 2 * h)[rel]
        if not h:
            return
        counts = np.arange(h + 1, 2 * h + 1)
        ends = _runs(seg, 2 * h)
        head = np.cumsum(ends[rel], axis=1)[:, h:]
        tail = np.cumsum(ends[rel + n - 2 * h, ::-1], axis=1)[:, h:]
        out[:, :h] -= head / counts
        out[:, : n - h - 1 : -1] -= tail / counts


def check_z_score(z_score: float) -> None:
    """ConfigError unless z_score is a finite number > 0."""
    if not (np.isfinite(z_score) and z_score > 0):
        raise ConfigError(f"z_score must be a finite number > 0, got {z_score!r}")


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
    when the series has more than 10 points.
    """
    check_z_score(z_score)
    x = hr.values
    if x.size < 3:
        raise HrvError(f"zscore_adjust needs at least 3 values, got {x.size}")
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
        raise HrvError(f"smooth needs at least {g} values, got {x.size}")
    m = x.size // g
    vals = x[: m * g].reshape(m, g).mean(axis=1)
    return SmoothedHrSeries(values=vals, start_time_s=hr.start_time_s)
