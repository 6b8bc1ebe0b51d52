"""Peak detection and the PPG -> per-second HR chain."""

import numpy as np
import pytest

from ppghrv.errors import ConfigError, EmptySignal, SignalTooShort, TooShort
from ppghrv.sigproc import (
    PpgSignal,
    RawHrSeries,
    detect_peaks,
    ppg_to_hr,
    smooth,
    zscore_adjust,
)

FS = 25.0


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
        with pytest.raises(EmptySignal):
            detect_peaks(PpgSignal(FS, np.array([])))

    def test_too_short_for_two_peaks(self):
        with pytest.raises(SignalTooShort):
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
        with pytest.raises(SignalTooShort):
            ppg_to_hr(sine_signal(1.2, 5.0))

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
        with pytest.raises(TooShort):
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
        with pytest.raises(TooShort):
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
