"""Peak detection and the PPG -> per-second HR chain."""

import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppghrv
from ppghrv.errors import ConfigError, HrvError
from ppghrv.metrics import MS_PER_MINUTE
from ppghrv.sigproc import (
    HR_CLAMP_HIGH_BPM,
    HR_CLAMP_LOW_BPM,
    HR_ESTIMATES_PER_S,
    HR_FALLBACK_BPM,
    HR_WINDOW_LEN_S,
    PpgSignal,
    RawHrSeries,
    _detrend_windows,
    detect_peaks,
    ppg_to_hr,
    smooth,
    zscore_adjust,
)
from ppghrv.io import read_ppg_csv
from ppghrv.synth import (
    ACTIVITY_PRESETS,
    SynthConfig,
    activity_preset,
    generate_rr_trace,
    render_ppg,
)

FS = 25.0


@pytest.mark.parametrize("rate", [0.0, -25.0, float("nan")])
def test_every_rate_check_rejects_the_same_way(tmp_path, rate):
    # the PPG reader checks the declared rate before it opens the file
    makers = [
        lambda: PpgSignal(rate, np.zeros(3)),
        lambda: read_ppg_csv(tmp_path / "absent.csv", declared_rate_hz=rate),
    ]
    if not np.isnan(rate):  # SynthConfig rejects a nan setting as not finite
        makers.append(lambda: SynthConfig(duration_s=10.0, sampling_rate_hz=rate))
    for make in makers:
        with pytest.raises(ConfigError, match=f"sampling rate must be > 0 Hz, got {rate:g}"):
            make()


def sine_signal(freq_hz, duration_s, fs=FS, amplitude=1.0, offset=0.0):
    t = np.arange(int(round(duration_s * fs))) / fs
    return PpgSignal(fs, amplitude * np.sin(2 * np.pi * freq_hz * t) + offset)


class TestDetectPeaks:
    def test_one_hz_sine_gives_sixty_peaks(self):
        peaks = detect_peaks(sine_signal(1.0, 60.0))
        assert 59 <= peaks.size <= 61

    def test_offset_does_not_change_indices(self):
        base = sine_signal(1.0, 30.0)
        shifted = PpgSignal(FS, base.samples + 5.0)
        np.testing.assert_array_equal(detect_peaks(base), detect_peaks(shifted))

    def test_flat_window_has_no_peaks(self):
        flat = PpgSignal(FS, np.full(250, 3.7))
        assert detect_peaks(flat).size == 0

    def test_empty_signal(self):
        with pytest.raises(HrvError, match='window of 0.000s cannot hold two peaks'):
            detect_peaks(PpgSignal(FS, np.array([])))

    def test_too_short_for_two_peaks(self):
        with pytest.raises(HrvError, match='cannot hold two peaks'):
            detect_peaks(PpgSignal(FS, np.ones(12)))  # 0.48 s < 2 * 0.27 s

    @pytest.mark.parametrize("n", range(14, 25))
    def test_window_shorter_than_detrend_width(self, n):
        # 14..24 samples at 25 Hz are under the 25-sample detrend width, which
        # is then clipped to the window; the 2 Hz crests lie at 3.125 and 15.625
        t = np.arange(n) / FS
        peaks = detect_peaks(PpgSignal(FS, np.sin(2 * np.pi * 2.0 * t)))
        assert all(min(abs(p - 3.125), abs(p - 15.625)) <= 1 for p in peaks)
        if n >= 19:
            np.testing.assert_array_equal(peaks, [3, 16])

    def test_refractory_spacing(self):
        rng = np.random.default_rng(21)
        noisy = sine_signal(1.5, 40.0)
        noisy = PpgSignal(FS, noisy.samples + 0.05 * rng.standard_normal(1000))
        peaks = detect_peaks(noisy)
        assert peaks.size > 2
        assert np.all(np.diff(peaks) >= np.ceil(0.27 * FS))

    def test_small_ripples_rejected(self):
        t = np.arange(int(20 * FS)) / FS
        x = np.sin(2 * np.pi * 0.5 * t) + 0.05 * np.sin(2 * np.pi * 3.0 * t)
        peaks = detect_peaks(PpgSignal(FS, x))
        # only the ten 0.5 Hz crests survive the prominence threshold
        assert 9 <= peaks.size <= 11

    def test_indices_strictly_increasing(self):
        peaks = detect_peaks(sine_signal(1.3, 45.0))
        assert np.all(np.diff(peaks) > 0)


class TestPpgToHr:
    def test_emission_count_and_offset(self):
        out = ppg_to_hr(sine_signal(1.2, 60.0))
        assert len(out) == int((60.0 - 8.0) / 0.25) + 1  # 209
        assert out.start_time_s == 8.0

    def test_recovers_72_bpm(self):
        out = ppg_to_hr(sine_signal(1.2, 60.0))
        assert np.all(out.values > 70.0)
        assert np.all(out.values < 74.0)

    def test_too_short(self):
        with pytest.raises(HrvError, match='s of signal, got 5.00s'):
            ppg_to_hr(sine_signal(1.2, 5.0))

    def test_empty_signal_gets_the_duration_message(self):
        with pytest.raises(HrvError, match="need at least 8.0s of signal, got 0.00s"):
            ppg_to_hr(PpgSignal(FS, np.array([])))

    def test_fallback_then_carry(self):
        # first 10 s are flat, so the earliest windows have no peaks at all
        sine = sine_signal(1.2, 10.0)
        x = np.concatenate([np.zeros(int(10 * FS)), sine.samples])
        out = ppg_to_hr(PpgSignal(FS, x))
        assert out.values[0] == 60.0
        assert 70.0 < out.values[-1] < 74.0

    def test_all_values_inside_clamp(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(int(30 * FS))  # pure noise
        out = ppg_to_hr(PpgSignal(FS, x))
        assert np.all(out.values > 20.0)
        assert np.all(out.values < 250.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 300, -1])
    def test_non_finite_sample_is_rejected(self, value, where):
        # one bad sample used to turn every window holding it into a 60 bpm
        # fallback or a carried value, with no error
        x = sine_signal(1.2, 30.0).samples.copy()
        x[where] = value
        with pytest.raises(HrvError, match="PPG sample"):
            ppg_to_hr(PpgSignal(FS, x))


def oracle_ppg_to_hr(signal):
    """ppg_to_hr as one detect_peaks call per window, the definition."""
    fs = signal.sampling_rate_hz
    step = 1.0 / HR_ESTIMATES_PER_S
    n_out = int(np.floor((signal.duration_s - HR_WINDOW_LEN_S) / step + 1e-9)) + 1
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
        if not (HR_CLAMP_LOW_BPM < hr < HR_CLAMP_HIGH_BPM):
            hr = prev if prev is not None else HR_FALLBACK_BPM
        values[j] = hr
        prev = hr
    return values


def assert_matches_oracle(signal):
    out = ppg_to_hr(signal)
    expected = oracle_ppg_to_hr(signal)
    assert out.values.tobytes() == expected.tobytes()
    assert out.start_time_s == signal.start_time_s + HR_WINDOW_LEN_S


def preset_ppg(activity, duration_s, fs=FS, seed=5):
    cfg = replace(activity_preset(activity, duration_s=duration_s, seed=seed), sampling_rate_hz=fs)
    return render_ppg(generate_rr_trace(cfg), cfg)


def pulse_train(fs, duration_s, period_samples, seed):
    """Sharp spikes every period_samples on light noise: peaks sit at every
    offset of the windows, the first and last samples among them."""
    rng = np.random.default_rng(seed)
    x = 0.05 * rng.standard_normal(int(round(duration_s * fs)))
    x[int(rng.integers(period_samples)) :: period_samples] += 1.0
    return PpgSignal(fs, x)


def tied_pairs(fs, duration_s):
    """An integer-valued period as long as the detrend width, holding two
    equal maxima 4 samples apart: every interior moving average is the
    same, so the detrended maxima tie exactly inside the refractory
    distance."""
    w = int(round(fs)) | 1
    period = np.zeros(w)
    period[[0, 4]] = 10.0
    period[[1, 3]] = 6.0
    period[2] = 3.0
    reps = int(np.ceil(duration_s * fs / w))
    return PpgSignal(fs, np.tile(period, reps)[: int(round(duration_s * fs))])


class TestBlockedMatchesPerWindow:
    """ppg_to_hr searches blocks of windows at once; every case must give
    the per-window loop's output bit for bit."""

    @pytest.mark.parametrize("activity", sorted(ACTIVITY_PRESETS))
    def test_activity_presets(self, activity):
        assert_matches_oracle(preset_ppg(activity, 300.0))

    @pytest.mark.parametrize("fs", [12.7, 25.3, 30.1, 7.9, 50.0])
    def test_window_length_varies_with_fractional_rate(self, fs):
        assert_matches_oracle(preset_ppg("office_work", 90.0, fs=fs))

    @pytest.mark.parametrize("fs, duration_s", [(250.0, 12.0), (1000.0, 13.3)])
    def test_high_rates_with_wide_detrends(self, fs, duration_s):
        # widths of 251 and 1001 samples; at 1000 Hz a block holds two windows
        assert_matches_oracle(preset_ppg("office_work", duration_s, fs=fs))

    @pytest.mark.parametrize("extra", [0, 1, 2, 5])
    @pytest.mark.parametrize("fs", [25.0, 12.7, 30.1])
    def test_signal_just_longer_than_one_window(self, fs, extra):
        n = int(np.ceil(HR_WINDOW_LEN_S * fs)) + extra
        assert_matches_oracle(PpgSignal(fs, preset_ppg("sit", 20.0, fs=fs).samples[:n]))

    def test_flat_stretches(self):
        sine = sine_signal(1.2, 30.0).samples
        x = np.concatenate([np.full(250, 2.0), sine, np.zeros(400), sine, np.full(300, -1.5)])
        assert_matches_oracle(PpgSignal(FS, x))

    @pytest.mark.parametrize("value", [3.7, 1 / 3, 2.73, 5.46])
    def test_constant_signal(self, value):
        # the detrend leaves ~1e-16 of residue near the window's ends, in
        # which find_peaks alone finds peaks; at 2.73 and 5.46 they would
        # give an estimate of 23 bpm
        assert_matches_oracle(PpgSignal(FS, np.full(int(20 * FS), value)))

    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_quantised_signal_with_plateaus(self, decimals):
        x = preset_ppg("office_work", 120.0).samples
        assert_matches_oracle(PpgSignal(FS, np.round(x * 3.0, decimals)))

    @pytest.mark.parametrize("fs", [25.0, 30.1])
    def test_equal_maxima_inside_the_refractory_distance(self, fs):
        assert_matches_oracle(tied_pairs(fs, 40.0))

    @pytest.mark.parametrize("period", [7, 11, 20, 33])
    def test_peaks_at_window_edges(self, period):
        assert_matches_oracle(pulse_train(FS, 40.0, period, seed=period))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e307, 1.7e308])
    @pytest.mark.parametrize("period", [17, 50])
    def test_samples_near_the_float64_limit(self, scale, period):
        # sums through the -1.7e308 samples overflow to -inf, so the detrend
        # holds +inf and nan; such windows go to detect_peaks, and neither
        # route warns
        x = scale * sine_signal(1.2, 16.0).samples
        x[::period] = -1.7e308
        assert_matches_oracle(PpgSignal(FS, x))

    @pytest.mark.parametrize("w", [1, 3, 11, 13, 25, 31, 51])
    def test_detrend_rows_equal_each_window_alone(self, w):
        # a one-ulp change seldom moves a peak, so the detrended values are
        # compared directly, with the block, with the window as a block of
        # one (detect_peaks' route) and with the definition written out
        rng = np.random.default_rng(w)
        h = w // 2
        for n in (w, w + 1, 2 * w + 5, 8 * w + 3):
            seg = 10.0 ** rng.uniform(-3, 6) * rng.standard_normal(n + 60)
            rel = np.sort(rng.choice(61, size=12, replace=False))
            out = np.empty((rel.size, n))
            _detrend_windows(seg, rel, w, out)
            for row, r in zip(out, rel):
                v = seg[r : r + n]
                alone = np.empty((1, n))
                _detrend_windows(v, np.zeros(1, dtype=np.intp), w, alone)
                assert row.tobytes() == alone.tobytes()
                trend = np.empty(n)
                for k in range(n):
                    if k < h:
                        trend[k] = np.cumsum(v[: k + h + 1])[-1] / (k + h + 1)
                    elif k >= n - h:
                        trend[k] = np.cumsum(v[k - h :][::-1])[-1] / (n - k + h)
                    else:
                        trend[k] = np.sum(v[k - h : k + h + 1]) / w
                assert row.tobytes() == (v - trend).tobytes()

    def test_low_rate_without_detrend_edges(self):
        # below 1.5 Hz the detrend is one sample wide
        assert_matches_oracle(PpgSignal(1.2, np.sin(np.arange(40) * 2.1)))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_property(self, data):
        fs = data.draw(st.sampled_from([4.0, 10.0, 12.7, 25.0, 25.3, 30.1, 64.0]))
        # up to 33 s: more than one block of windows from 25 Hz up
        n = int(np.ceil(HR_WINDOW_LEN_S * fs)) + data.draw(st.integers(0, int(25 * fs)))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * data.draw(st.floats(0.6, 3.0)) * t)
        x += data.draw(st.sampled_from([0.0, 0.05, 0.5])) * rng.standard_normal(n)
        if data.draw(st.booleans()):
            x[rng.integers(n) :: max(2, int(rng.integers(2, 3 * fs)))] += 2.0
        if data.draw(st.booleans()):
            a = int(rng.integers(n))
            x[a : a + int(rng.integers(1, 4 * fs))] = x[a]
        decimals = data.draw(st.sampled_from([None, 0, 1]))
        if decimals is not None:
            x = np.round(x * 2.0, decimals)
        assert_matches_oracle(PpgSignal(fs, x, start_time_s=data.draw(st.floats(0, 100))))


KERNEL_PROBE = """
import hashlib
import numpy as np
from ppghrv.sigproc import PpgSignal, _detrend_windows, ppg_to_hr

digest = hashlib.sha256()
rng = np.random.default_rng(15)
for w in (3, 25, 101, 1001):
    n = 4 * w + 7
    seg = 10.0 ** rng.uniform(-3, 6, n + 200) * rng.standard_normal(n + 200)
    rel = np.sort(rng.choice(201, size=16, replace=False))
    out = np.empty((rel.size, n))
    _detrend_windows(seg, rel, w, out)
    digest.update(out.tobytes())
t = np.arange(3000) / 25.0
x = np.sin(2 * np.pi * 1.2 * t) + np.cumsum(0.02 * rng.standard_normal(t.size))
x += 0.3 * rng.standard_normal(t.size)
digest.update(ppg_to_hr(PpgSignal(25.0, x)).values.tobytes())
print(digest.hexdigest())
"""


def _uses_openblas() -> bool:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _uses_openblas(),
    reason="OPENBLAS_CORETYPE selects kernels of numpy's OpenBLAS on x86-64 only",
)
def test_detrend_and_hr_do_not_depend_on_the_blas_kernel():
    # numpy's dot, and so np.convolve, gave other last bits under other
    # OpenBLAS kernels; the detrend's sums must not go through BLAS
    env = dict(os.environ, PYTHONPATH=str(Path(ppghrv.__file__).parents[1]))
    digests = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_PROBE], env=env | extra,
            capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


class TestZscoreAdjust:
    @pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
    def test_z_score_must_be_finite_and_positive(self, z):
        with pytest.raises(ConfigError, match="z_score"):
            zscore_adjust(RawHrSeries(np.full(20, 70.0)), z_score=z)

    def test_spike_among_twenty_is_repaired(self):
        x = np.full(20, 70.0)
        x[3] = 200.0
        out = zscore_adjust(RawHrSeries(x))
        assert out.values[3] == 70.0
        rest = np.delete(out.values, 3)
        np.testing.assert_array_equal(rest, np.full(19, 70.0))

    def test_spike_among_ten_sits_exactly_on_the_boundary(self):
        # max attainable z in N samples is sqrt(N-1); at N=10 that is exactly
        # 3, so the strict > comparison leaves the spike alone
        x = np.full(10, 70.0)
        x[3] = 200.0
        out = zscore_adjust(RawHrSeries(x))
        np.testing.assert_array_equal(out.values, x)

    def test_constant_series_unchanged(self):
        x = np.full(12, 65.0)
        out = zscore_adjust(RawHrSeries(x))
        np.testing.assert_array_equal(out.values, x)

    def test_first_point_uses_right_neighbour(self):
        x = np.full(20, 70.0)
        x[0] = 250.0
        out = zscore_adjust(RawHrSeries(x))
        assert out.values[0] == 70.0

    def test_last_point_uses_left_neighbour(self):
        x = np.full(20, 70.0)
        x[-1] = 250.0
        out = zscore_adjust(RawHrSeries(x))
        assert out.values[-1] == 70.0

    def test_adjacent_outliers_cascade_left_to_right(self):
        x = np.full(30, 70.0)
        x[3] = 400.0
        x[4] = 400.0
        out = zscore_adjust(RawHrSeries(x))
        # index 3 averages the adjusted left (70) and raw right (400);
        # index 4 then sees the already-adjusted 235 on its left
        assert out.values[3] == 235.0
        assert out.values[4] == 152.5

    def test_too_short(self):
        with pytest.raises(HrvError, match='zscore_adjust needs at least 3 values, got 2'):
            zscore_adjust(RawHrSeries(np.array([60.0, 61.0])))

    def test_non_outliers_never_touched(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(20, 200))
            x = rng.uniform(55.0, 85.0, size=n)
            spikes = rng.choice(n, size=3, replace=False)
            x[spikes] = rng.uniform(180.0, 240.0, size=3)
            mu, delta = np.mean(x), np.std(x)
            mask = np.abs(x - mu) > 3.0 * delta
            out = zscore_adjust(RawHrSeries(x))
            np.testing.assert_array_equal(out.values[~mask], x[~mask])
            assert len(out) == n

    def test_replacement_bounded_by_isolated_neighbours(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            n = int(rng.integers(30, 120))
            x = rng.uniform(60.0, 80.0, size=n)
            i = int(rng.integers(1, n - 1))
            x[i] = 220.0
            mu, delta = np.mean(x), np.std(x)
            if not abs(x[i] - mu) > 3.0 * delta:
                continue
            out = zscore_adjust(RawHrSeries(x))
            lo, hi = sorted((x[i - 1], x[i + 1]))
            assert lo <= out.values[i] <= hi

    def test_custom_z(self):
        x = np.full(20, 70.0)
        x[5] = 90.0
        loose = zscore_adjust(RawHrSeries(x), z_score=10.0)
        np.testing.assert_array_equal(loose.values, x)
        tight = zscore_adjust(RawHrSeries(x), z_score=1.0)
        assert tight.values[5] == 70.0


class TestSmooth:
    def test_single_group(self):
        out = smooth(RawHrSeries(np.array([60.0, 62.0, 64.0, 66.0])))
        np.testing.assert_array_equal(out.values, [63.0])

    def test_remainder_discarded(self):
        out = smooth(RawHrSeries(np.full(7, 70.0)))
        assert len(out) == 1

    def test_length_is_floor(self):
        rng = np.random.default_rng(25)
        for n in (4, 5, 8, 13, 400, 401, 402, 403):
            x = rng.uniform(50.0, 90.0, size=n)
            assert len(smooth(RawHrSeries(x))) == n // 4

    def test_too_short(self):
        with pytest.raises(HrvError, match='smooth needs at least'):
            smooth(RawHrSeries(np.array([60.0, 61.0, 62.0])))

    def test_mean_per_block(self):
        rng = np.random.default_rng(26)
        x = rng.uniform(50.0, 90.0, size=16)
        out = smooth(RawHrSeries(x))
        expected = [np.mean(x[i * 4 : (i + 1) * 4]) for i in range(4)]
        np.testing.assert_allclose(out.values, expected, rtol=1e-15)

    def test_start_time_carried_over(self):
        out = smooth(RawHrSeries(np.full(8, 66.0), start_time_s=8.0))
        assert out.start_time_s == 8.0
