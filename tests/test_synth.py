"""Generator contracts: exact ground truth, determinism, render fidelity."""

import numpy as np
import pytest
from dataclasses import replace

from ppghrv.errors import ConfigError, HrvError
from ppghrv.metrics import HrvMetricKind, RrSeries, mape, rmssd, sdnn, rough_hrv
from ppghrv.sigproc import PpgSignal, ppg_to_hr, smooth, zscore_adjust
from ppghrv.synth import (
    ACTIVITY_PRESETS,
    MAX_DURATION_S,
    PULSE_RISE_FRACTION,
    GroundTruth,
    SynthConfig,
    activity_preset,
    generate_rr_trace,
    inject_motion_artifacts,
    render_ppg,
    derived_rng,
    first_non_increasing,
    sample_artifact_epochs,
    _ARTIFACT_STREAM,
    _pulse_curve,
)


class TestTimeOrder:
    @pytest.mark.parametrize("t, index", [
        ([0.0, 1.0, 1.0, 2.0], 2),
        ([0.0, 1.0, 2.0, 1.5, 3.0], 3),
        ([0.0, 1.0, float("nan"), 3.0], 2),
        ([float("nan"), 1.0, 2.0], 1),
        ([0.0, 1.0, 2.0], None),
        ([5.0], None),
        ([], None),
    ], ids=["repeat", "decrease", "nan", "leading_nan", "increasing", "one", "empty"])
    def test_first_non_increasing(self, t, index):
        assert first_non_increasing(np.array(t, dtype=np.float64)) == index

    def test_ground_truth_names_the_time(self):
        with pytest.raises(HrvError, match=r"not at 0\.5 s"):
            GroundTruth(np.array([0.0, 1.0, 0.5]))
        with pytest.raises(HrvError, match=r"not at nan s"):
            GroundTruth(np.array([0.0, np.nan]))


class TestGenerateRrTrace:
    def test_steady_60_bpm_gives_exact_seconds(self):
        gt = generate_rr_trace(SynthConfig(duration_s=60.0, base_hr_bpm=60.0))
        assert len(gt.rr) == 60
        assert np.all(gt.rr.intervals_ms == 1000.0)

    def test_rr_matches_beat_diffs_exactly(self):
        cfg = SynthConfig(duration_s=300.0, rr_jitter_ms=40.0, seed=3)
        gt = generate_rr_trace(cfg)
        np.testing.assert_array_equal(
            gt.rr.intervals_ms, np.diff(gt.beat_times_s) * 1000.0
        )

    def test_jitter_sets_sdnn(self):
        cfg = SynthConfig(duration_s=3600.0, base_hr_bpm=70.0, rr_jitter_ms=30.0, seed=4)
        gt = generate_rr_trace(cfg)
        assert 27.0 <= sdnn(gt.rr) <= 33.0

    def test_clamped_to_physiological_bounds(self):
        cfg = SynthConfig(duration_s=600.0, base_hr_bpm=70.0, rr_jitter_ms=500.0, seed=5)
        gt = generate_rr_trace(cfg)
        # intervals are recomputed from beat times, so allow 1 ulp of slack
        assert np.all(gt.rr.intervals_ms >= 250.0 - 1e-9)
        assert np.all(gt.rr.intervals_ms <= 2000.0 + 1e-9)
        # with jitter that wide the clamp must actually engage
        at_lo = np.isclose(gt.rr.intervals_ms, 250.0, atol=1e-9)
        at_hi = np.isclose(gt.rr.intervals_ms, 2000.0, atol=1e-9)
        assert at_lo.any() or at_hi.any()

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(duration_s=120.0, rr_jitter_ms=25.0, seed=9)
        a = generate_rr_trace(cfg)
        b = generate_rr_trace(cfg)
        np.testing.assert_array_equal(a.beat_times_s, b.beat_times_s)
        c = generate_rr_trace(replace(cfg, seed=10))
        assert not np.array_equal(a.beat_times_s, c.beat_times_s)

    def test_drift_moves_mean_rr(self):
        cfg = SynthConfig(
            duration_s=600.0,
            base_hr_bpm=70.0,
            hr_drift_amplitude_bpm=8.0,
            hr_drift_period_s=120.0,
        )
        gt = generate_rr_trace(cfg)
        lo = 60000.0 / 78.0
        hi = 60000.0 / 62.0
        assert gt.rr.intervals_ms.min() >= lo - 1.0
        assert gt.rr.intervals_ms.max() <= hi + 1.0
        assert gt.rr.intervals_ms.max() - gt.rr.intervals_ms.min() > 100.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(duration_s=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(duration_s=60.0, base_hr_bpm=25.0)
        with pytest.raises(ConfigError):
            SynthConfig(duration_s=60.0, base_hr_bpm=60.0, hr_drift_amplitude_bpm=40.0)
        with pytest.raises(ConfigError):
            SynthConfig(duration_s=60.0, seed=-1)
        with pytest.raises(ConfigError):
            SynthConfig(duration_s=60.0, rr_jitter_ms=-5.0)

    def test_duration_at_most_a_day(self):
        SynthConfig(duration_s=MAX_DURATION_S)
        with pytest.raises(ConfigError, match="duration_s"):
            SynthConfig(duration_s=float(np.nextafter(MAX_DURATION_S, np.inf)))

    @pytest.mark.parametrize("field, value", [
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("sampling_rate_hz", float("inf")),
        ("hr_drift_period_s", float("nan")),
        ("hr_drift_period_s", float("inf")),
        ("rr_jitter_ms", float("nan")),
        ("artifact_rate_per_min", float("inf")),
        ("additive_noise_sigma", float("inf")),
    ])
    def test_non_finite_setting_rejected(self, field, value):
        # each of these kept generate_rr_trace looping, or slipped through
        with pytest.raises(ConfigError, match=field):
            SynthConfig(**{"duration_s": 60.0, field: value})


    @pytest.mark.parametrize("field, value, message", [
        ("hr_drift_amplitude_bpm", -1.0, "hr_drift_amplitude_bpm must be >= 0"),
        ("artifact_rate_per_min", -1.0, "artifact_rate_per_min must be >= 0"),
        ("additive_noise_sigma", -0.1, "additive_noise_sigma must be >= 0"),
        ("hr_drift_period_s", 0.0, "hr_drift_period_s must be positive"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
    ])
    def test_out_of_range_setting_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            SynthConfig(**{"duration_s": 60.0, field: value})

class TestRenderPpg:
    def test_sample_count(self):
        cfg = SynthConfig(duration_s=60.0, base_hr_bpm=60.0)
        sig = render_ppg(generate_rr_trace(cfg), cfg)
        assert sig.samples.size == 1500
        assert sig.sampling_rate_hz == 25.0

    def test_peaks_recover_beat_period(self):
        from ppghrv.sigproc import detect_peaks

        cfg = SynthConfig(duration_s=60.0, base_hr_bpm=60.0)
        sig = render_ppg(generate_rr_trace(cfg), cfg)
        peaks = detect_peaks(sig)
        intervals_ms = np.diff(peaks) / sig.sampling_rate_hz * 1000.0
        assert np.all(np.abs(intervals_ms - 1000.0) <= 40.0)

    def test_autocorrelation_is_periodic_at_the_beat_period(self):
        cfg = SynthConfig(duration_s=120.0, base_hr_bpm=60.0)
        sig = render_ppg(generate_rr_trace(cfg), cfg)
        x = sig.samples - np.mean(sig.samples)
        lag = 25  # one beat at 60 bpm and 25 Hz
        half = lag // 2
        r0 = float(np.dot(x, x))
        r_lag = float(np.dot(x[:-lag], x[lag:]))
        r_half = float(np.dot(x[:-half], x[half:]))
        assert r_lag / r0 > 0.9
        assert r_half / r0 < 0.2

    def test_beats_whose_pulse_covers_no_sample(self):
        # at 1 Hz and 150 bpm a pulse spans 0.4 s, so many fall between two
        # samples; they add nothing, and every other pulse adds its curve
        cfg = SynthConfig(duration_s=60.0, base_hr_bpm=150.0, sampling_rate_hz=1.0, seed=0)
        gt = generate_rr_trace(cfg)
        t = np.arange(60.0)
        rr_s = np.diff(gt.beat_times_s)
        want = np.zeros(t.size)
        uncovered = 0
        for i, b in enumerate(gt.beat_times_s):
            rise = PULSE_RISE_FRACTION * rr_s[max(i - 1, 0)]
            decay = (1.0 - PULSE_RISE_FRACTION) * rr_s[min(i, rr_s.size - 1)]
            uncovered += not ((t >= b - rise) & (t <= b + decay)).any()
            want += _pulse_curve(t, b, rise, decay)
        assert uncovered > 0
        np.testing.assert_array_equal(render_ppg(gt, cfg).samples, want)

    def test_noise_is_deterministic(self):
        cfg = SynthConfig(duration_s=30.0, additive_noise_sigma=0.1, seed=11)
        gt = generate_rr_trace(cfg)
        a = render_ppg(gt, cfg)
        b = render_ppg(gt, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestMotionArtifacts:
    def test_zero_rate_is_identity(self):
        cfg = SynthConfig(duration_s=30.0, base_hr_bpm=70.0)
        sig = render_ppg(generate_rr_trace(cfg), cfg)
        out = inject_motion_artifacts(sig, cfg)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_epoch_count_follows_the_rate(self):
        # rate 6/min over 10 minutes: expect 60 epochs within 3 sigma
        cfg = SynthConfig(duration_s=600.0, artifact_rate_per_min=6.0, seed=12)
        epochs = sample_artifact_epochs(cfg, derived_rng((cfg.seed, _ARTIFACT_STREAM)))
        assert abs(len(epochs) - 60.0) <= 3.0 * np.sqrt(60.0)
        for start, dur in epochs:
            assert 0.0 <= start <= 600.0
            assert 0.5 <= dur <= 2.0

    def test_epochs_past_the_last_sample_are_skipped(self):
        # a signal cut where an epoch starts, after the one before it ends:
        # the epochs from there on start past its last sample and add
        # nothing, and the ones before add what they add to the whole signal
        cfg = SynthConfig(duration_s=300.0, artifact_rate_per_min=6.0, seed=14)
        whole = render_ppg(generate_rr_trace(cfg), replace(cfg, artifact_rate_per_min=0.0))
        fs = whole.sampling_rate_hz
        epochs = sample_artifact_epochs(cfg, derived_rng((cfg.seed, _ARTIFACT_STREAM)))
        ends = [round(s * fs) + max(2, round(d * fs)) for s, d in epochs]
        k = next(k for k in range(len(epochs) // 2, len(epochs))
                 if ends[k - 1] <= round(epochs[k][0] * fs))
        n = round(epochs[k][0] * fs)
        cut = inject_motion_artifacts(PpgSignal(fs, whole.samples[:n]), cfg)
        np.testing.assert_array_equal(
            cut.samples, inject_motion_artifacts(whole, cfg).samples[:n]
        )
        assert not np.array_equal(cut.samples, whole.samples[:n])

    def test_artifacts_change_the_signal_locally(self):
        cfg = SynthConfig(duration_s=120.0, base_hr_bpm=70.0, artifact_rate_per_min=3.0, seed=13)
        gt = generate_rr_trace(cfg)
        clean = render_ppg(gt, replace(cfg, artifact_rate_per_min=0.0))
        dirty = render_ppg(gt, cfg)
        changed = np.flatnonzero(clean.samples != dirty.samples)
        assert changed.size > 0
        assert changed.size < clean.samples.size  # bursts, not global noise


def _windowed_sigproc_mape(sig, gt, kind, window_s=60.0):
    shr = smooth(zscore_adjust(ppg_to_hr(sig)))
    w = int(window_s)
    n_win = len(shr) // w
    est, tru = [], []
    for i in range(n_win):
        hr_win = shr.values[i * w : (i + 1) * w]
        t0 = shr.start_time_s + i * w
        t1 = t0 + w
        beats = gt.beat_times_s
        sel = beats[(beats >= t0) & (beats <= t1)]
        rr_win = RrSeries(np.diff(sel) * 1000.0)
        truth = sdnn(rr_win) if kind is HrvMetricKind.SDNN else rmssd(rr_win)
        est.append(rough_hrv(hr_win, kind))
        tru.append(truth)
    return mape(np.array(est), np.array(tru))


class TestArtifactsHurtSigprocAccuracy:
    def test_rmssd_error_grows_with_artifacts(self):
        cfg = SynthConfig(
            duration_s=600.0,
            base_hr_bpm=70.0,
            hr_drift_amplitude_bpm=3.0,
            hr_drift_period_s=60.0,
            rr_jitter_ms=30.0,
            additive_noise_sigma=0.02,
            seed=7,
        )
        gt = generate_rr_trace(cfg)  # rr stream is independent of artifacts
        clean = render_ppg(gt, cfg)
        dirty = render_ppg(gt, replace(cfg, artifact_rate_per_min=6.0))
        m_clean = _windowed_sigproc_mape(clean, gt, HrvMetricKind.RMSSD)
        m_dirty = _windowed_sigproc_mape(dirty, gt, HrvMetricKind.RMSSD)
        assert m_dirty > m_clean


class TestPresets:
    def test_known_names(self):
        assert set(ACTIVITY_PRESETS) == {"sit", "sleep", "office_work"}

    def test_artifact_intensity_ordering(self):
        rates = [
            ACTIVITY_PRESETS[name]["artifact_rate_per_min"]
            for name in ("sit", "sleep", "office_work")
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_preset_builds_config(self):
        cfg = activity_preset("sit", duration_s=600.0, seed=42)
        assert cfg.duration_s == 600.0
        assert cfg.seed == 42
        assert cfg.artifact_rate_per_min == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            activity_preset("marathon", duration_s=60.0, seed=0)
