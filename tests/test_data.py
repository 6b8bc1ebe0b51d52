import math
import re
import tracemalloc

import numpy as np
import pytest

from ppghrv.data import (
    Dataset,
    build_hrv_dataset,
    check_processed,
    chronological_split,
)
from ppghrv.errors import ConfigError, HrvError
from ppghrv.metrics import MS_PER_MINUTE, HrvMetricKind, RrSeries, rmssd, rough_hrv, sdnn
from ppghrv.sigproc import (
    PpgSignal,
    RawHrSeries,
    SmoothedHrSeries,
    ppg_to_hr,
    smooth,
    zscore_adjust,
)
from ppghrv.synth import (
    GroundTruth,
    SynthConfig,
    activity_preset,
    generate_rr_trace,
    render_ppg,
)


def oracle_window_label(gt, t0, t1, kind):
    """Metric over intervals whose beats both fall inside [t0, t1]."""
    beats = [float(b) for b in gt.beat_times_s if t0 - 1e-9 <= b <= t1 + 1e-9]
    rr = [(beats[i + 1] - beats[i]) * 1000.0 for i in range(len(beats) - 1)]
    mean = sum(rr) / len(rr)
    if kind is HrvMetricKind.SDNN:
        return math.sqrt(sum((v - mean) ** 2 for v in rr) / len(rr))
    diffs = [rr[i + 1] - rr[i] for i in range(len(rr) - 1)]
    return math.sqrt(sum(v * v for v in diffs) / len(diffs))


def oracle_build_hrv_dataset(shr, gt, n_s, kind, stride_s=1):
    """The builder one window at a time, each value from a 1-D metric call."""
    one = sdnn if kind is HrvMetricKind.SDNN else rmssd
    vals, bt = shr.values, gt.beat_times_s
    m = (vals.size - n_s) // stride_s + 1
    X = np.empty((m, n_s + 1))
    y = np.empty(m)
    t_end = np.empty(m)
    for w in range(m):
        lo = w * stride_s
        hi = lo + n_s
        t0 = shr.start_time_s + lo
        t1 = shr.start_time_s + hi
        X[w, :n_s] = vals[lo:hi]
        X[w, n_s] = one(RrSeries(MS_PER_MINUTE / vals[lo:hi]))
        a = int(np.searchsorted(bt, t0 - 1e-9, side="left"))
        b = int(np.searchsorted(bt, t1 + 1e-9, side="right"))
        beats = bt[a:b]
        if beats.size < 3:
            raise HrvError(
                f"window [{t0:.1f}, {t1:.1f}]s holds {beats.size} beats; "
                "need at least 3 for an HRV label"
            )
        y[w] = one(RrSeries(np.diff(beats) * 1000.0))
        t_end[w] = t1
    return Dataset(X, y, t_end)


def _outcome(build, *args):
    try:
        ds = build(*args)
    except HrvError as err:  # the message is what is compared
        return str(err)
    return tuple(a.tobytes() for a in (ds.features, ds.labels, ds.window_end_times_s))


def metronome_gt(n_beats, rr_s=1.0):
    bt = np.arange(n_beats, dtype=np.float64) * rr_s
    return GroundTruth(beat_times_s=bt)


@pytest.fixture(scope="module")
def jittered_gt():
    cfg = SynthConfig(duration_s=240.0, base_hr_bpm=70.0, rr_jitter_ms=30.0, seed=11)
    return generate_rr_trace(cfg)


@pytest.fixture(scope="module")
def office_trace():
    cfg = activity_preset("office_work", duration_s=600.0, seed=5)
    gt = generate_rr_trace(cfg)
    return gt, smooth(zscore_adjust(ppg_to_hr(render_ppg(gt, cfg))))


def fast_gt():
    # about 160 bpm with uneven intervals, so 2 s windows hold 4 to 6 beats
    bt = np.cumsum(np.random.default_rng(8).uniform(0.3, 0.45, size=800))
    return GroundTruth(beat_times_s=bt)


def gap_gt():
    # a 30 s silence after 100 s leaves the windows inside it short of beats
    bt = np.concatenate([np.arange(0.0, 100.0, 0.8), np.arange(130.0, 300.0, 0.8)])
    return GroundTruth(beat_times_s=bt)


class TestMatchesPerWindowOracle:
    @pytest.mark.parametrize("kind", list(HrvMetricKind))
    @pytest.mark.parametrize("start", [8.0, 8.37, 0.0])
    @pytest.mark.parametrize("n, stride", [(60, 1), (300, 1), (30, 7), (120, 1000)])
    def test_office_trace(self, office_trace, kind, start, n, stride):
        gt, shr = office_trace
        shr = SmoothedHrSeries(shr.values, start_time_s=start)
        got = _outcome(build_hrv_dataset, shr, gt, n, kind, stride)
        assert isinstance(got, tuple)
        assert got == _outcome(oracle_build_hrv_dataset, shr, gt, n, kind, stride)

    @pytest.mark.parametrize("kind", list(HrvMetricKind))
    @pytest.mark.parametrize("start", [0.0, 8.37])
    @pytest.mark.parametrize("n, stride", [(2, 1), (3, 2), (3, 7)])
    def test_short_windows_of_differing_beat_counts(self, kind, start, n, stride):
        gt = fast_gt()
        shr = SmoothedHrSeries(np.random.default_rng(2).uniform(60, 90, 250), start)
        got = _outcome(build_hrv_dataset, shr, gt, n, kind, stride)
        assert isinstance(got, tuple)
        assert got == _outcome(oracle_build_hrv_dataset, shr, gt, n, kind, stride)

    @pytest.mark.parametrize("kind", list(HrvMetricKind))
    @pytest.mark.parametrize("start, n, stride", [(0.0, 2, 1), (8.37, 20, 3), (8.0, 20, 95)])
    def test_first_short_window_message(self, kind, start, n, stride):
        gt = gap_gt()
        shr = SmoothedHrSeries(np.full(280, 75.0), start)
        got = _outcome(build_hrv_dataset, shr, gt, n, kind, stride)
        assert "need at least 3 for an HRV label" in got
        assert got == _outcome(oracle_build_hrv_dataset, shr, gt, n, kind, stride)


def test_peak_memory_is_the_arrays_plus_one_mib():
    # the windows are measured a bounded block of rows at a time, so no
    # (windows x n) temporary stands beside the returned arrays
    cfg = activity_preset("office_work", duration_s=1800.0, seed=5)
    gt = generate_rr_trace(cfg)
    shr = smooth(zscore_adjust(ppg_to_hr(render_ppg(gt, cfg))))
    build_hrv_dataset(shr, gt, 300, HrvMetricKind.RMSSD)  # one-off allocations
    tracemalloc.start()
    try:
        ds = build_hrv_dataset(shr, gt, 300, HrvMetricKind.RMSSD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = ds.features.nbytes + ds.labels.nbytes + ds.window_end_times_s.nbytes
    assert peak < arrays + 1024 * 1024, (peak, arrays)


class TestBuildHrvDataset:
    def test_sample_count_one_hour(self):
        gt = metronome_gt(3700)
        shr = SmoothedHrSeries(np.full(3600, 60.0))
        ds = build_hrv_dataset(shr, gt, n_s=300, kind=HrvMetricKind.RMSSD)
        assert len(ds) == 3301
        assert ds.n_features == 301

    def test_sample_count_stride_two(self):
        gt = metronome_gt(3700)
        shr = SmoothedHrSeries(np.full(3600, 60.0))
        ds = build_hrv_dataset(shr, gt, n_s=300, kind=HrvMetricKind.SDNN, stride_s=2)
        assert len(ds) == 1651

    def test_features_are_window_plus_rough_hrv(self, jittered_gt):
        rng = np.random.default_rng(4)
        vals = rng.uniform(60.0, 80.0, size=150)
        shr = SmoothedHrSeries(vals, start_time_s=8.0)
        ds = build_hrv_dataset(shr, jittered_gt, n_s=40, kind=HrvMetricKind.RMSSD, stride_s=13)
        for w in range(len(ds)):
            lo = w * 13
            np.testing.assert_array_equal(ds.features[w, :40], vals[lo : lo + 40])
            expect = rough_hrv(vals[lo : lo + 40], HrvMetricKind.RMSSD)
            assert ds.features[w, 40] == expect

    def test_window_end_times(self):
        gt = metronome_gt(400)
        shr = SmoothedHrSeries(np.full(200, 60.0), start_time_s=8.0)
        ds = build_hrv_dataset(shr, gt, n_s=60, kind=HrvMetricKind.SDNN, stride_s=10)
        np.testing.assert_allclose(
            ds.window_end_times_s, 8.0 + np.arange(len(ds)) * 10.0 + 60.0
        )

    @pytest.mark.parametrize("kind", [HrvMetricKind.SDNN, HrvMetricKind.RMSSD])
    def test_labels_match_oracle(self, jittered_gt, kind):
        shr = SmoothedHrSeries(np.full(220, 70.0), start_time_s=8.0)
        ds = build_hrv_dataset(shr, jittered_gt, n_s=60, kind=kind, stride_s=7)
        assert len(ds) == (220 - 60) // 7 + 1
        for w in range(len(ds)):
            t1 = ds.window_end_times_s[w]
            expect = oracle_window_label(jittered_gt, t1 - 60.0, t1, kind)
            assert ds.labels[w] == pytest.approx(expect, rel=1e-12)

    def test_metronome_labels_are_zero(self):
        gt = metronome_gt(400)
        shr = SmoothedHrSeries(np.full(200, 60.0))
        ds = build_hrv_dataset(shr, gt, n_s=30, kind=HrvMetricKind.SDNN)
        assert np.all(ds.labels == pytest.approx(0.0, abs=1e-9))

    def test_beat_gap_raises_empty_window(self):
        # 10 s of beats, a 60 s silence, then beats again
        bt = np.concatenate([np.arange(0.0, 10.0), np.arange(70.0, 120.0)])
        gt = GroundTruth(beat_times_s=bt)
        shr = SmoothedHrSeries(np.full(100, 60.0))
        with pytest.raises(HrvError, match='need at least 3 for an HRV label'):
            build_hrv_dataset(shr, gt, n_s=20, kind=HrvMetricKind.RMSSD)

    def test_trace_shorter_than_window(self):
        gt = metronome_gt(100)
        shr = SmoothedHrSeries(np.full(50, 60.0))
        with pytest.raises(HrvError, match='need 60 smoothed HRs for one window'):
            build_hrv_dataset(shr, gt, n_s=60, kind=HrvMetricKind.SDNN)

    def test_bad_config(self):
        gt = metronome_gt(100)
        shr = SmoothedHrSeries(np.full(50, 60.0))
        with pytest.raises(ConfigError):
            build_hrv_dataset(shr, gt, n_s=1, kind=HrvMetricKind.SDNN)
        with pytest.raises(ConfigError):
            build_hrv_dataset(shr, gt, n_s=10, kind=HrvMetricKind.SDNN, stride_s=0)


class TestDatasetValidation:
    def test_times_must_increase(self):
        with pytest.raises(HrvError):
            Dataset(
                np.zeros((3, 2)),
                np.zeros(3),
                np.array([1.0, 1.0, 2.0]),
            )

    def test_non_increasing_time_is_named(self):
        with pytest.raises(HrvError, match=r"not at 1\.0 s"):
            Dataset(np.zeros((3, 2)), np.zeros(3), np.array([1.0, 1.0, 2.0]))
        with pytest.raises(HrvError, match=r"not at nan s"):
            Dataset(np.zeros((3, 2)), np.zeros(3), np.array([1.0, 2.0, np.nan]))

    def test_lengths_must_agree(self):
        with pytest.raises(HrvError, match="must agree in length, got 3, 4 and 3"):
            Dataset(
                np.zeros((3, 2)),
                np.zeros(4),
                np.arange(3.0),
            )


class TestCheckProcessed:
    """check_processed accepts what process writes and names the first row
    holding anything else."""

    @staticmethod
    def dataset(row=None, column=None, value=None):
        X = np.tile([20.0, 250.0, 72.5, 0.0], (4, 1))  # the range's ends are inside
        y = np.full(4, 30.0)
        if column == "label":
            y[row] = value
        elif column is not None:
            X[row, column] = value
        return Dataset(X, y, np.arange(4.0) + 10.0)

    def test_process_output_passes(self, office_trace):
        gt, shr = office_trace
        for kind in HrvMetricKind:
            check_processed(build_hrv_dataset(shr, gt, 30, kind))
        check_processed(self.dataset())

    @pytest.mark.parametrize("column, value, message", [
        (0, 19.999, "HR feature f0 = 19.999 lies outside [20, 250] bpm"),
        (1, 250.001, "HR feature f1 = 250.001 lies outside [20, 250] bpm"),
        (2, -1e308, "HR feature f2 = -1e+308 lies outside"),
        (2, np.nan, "HR feature f2 = nan lies outside"),
        (3, -5e-324, "rough HRV feature f3 = -5e-324 must be finite and >= 0"),
        (3, np.inf, "rough HRV feature f3 = inf must be finite and >= 0"),
        (3, np.nan, "rough HRV feature f3 = nan must be finite and >= 0"),
        ("label", 0.0, "the label of dataset row 2 (window end 12.0 s) must be > 0, not 0.0"),
        ("label", -3.0, "must be > 0, not -3.0"),
        ("label", np.nan, "must be > 0, not nan"),
    ])
    def test_first_bad_row_is_named(self, column, value, message):
        ds = self.dataset(2, column, value)
        with pytest.raises(HrvError, match=re.escape(message)) as err:
            check_processed(ds)
        assert "dataset row 2 (window end 12.0 s)" in str(err.value)

    def test_earliest_row_is_named(self):
        ds = self.dataset(3, 0, 1.0)
        ds.labels[1] = 0.0
        with pytest.raises(HrvError, match=re.escape("dataset row 1 (window end 11.0 s)")):
            check_processed(ds)


# each data type and a maker for it from the array of the named field
_DATA_TYPE_FIELDS = {
    "PpgSignal": (lambda a: PpgSignal(25.0, a), "samples"),
    "RawHrSeries": (RawHrSeries, "values"),
    "SmoothedHrSeries": (SmoothedHrSeries, "values"),
    "RrSeries": (RrSeries, "intervals_ms"),
    "GroundTruth": (GroundTruth, "beat_times_s"),
    "Dataset.labels": (lambda a: Dataset(np.ones((2, 1)), a, np.arange(2.0)), "labels"),
    "Dataset.window_end_times_s": (
        lambda a: Dataset(np.ones((2, 1)), np.ones(2), a), "window_end_times_s"
    ),
}


class TestDataTypeArrays:
    """Every data type checks its arrays with metrics.checked_array, so bad
    arrays are data errors (exit 2) that name the field."""

    @pytest.mark.parametrize("name", _DATA_TYPE_FIELDS)
    def test_wrong_axes_name_the_field(self, name):
        make, field = _DATA_TYPE_FIELDS[name]
        with pytest.raises(HrvError, match=rf"^{field} must be 1-D, got shape \(2, 2\)$"):
            make(np.ones((2, 2)))

    @pytest.mark.parametrize("name", _DATA_TYPE_FIELDS)
    @pytest.mark.parametrize("values", [["70", "x"], [[1.0], [1.0, 2.0]]], ids=["text", "ragged"])
    def test_values_that_are_not_numbers_name_the_field(self, name, values):
        make, field = _DATA_TYPE_FIELDS[name]
        with pytest.raises(HrvError, match=f"^{field} must be numbers: "):
            make(values)

    def test_features_must_be_two_dimensional(self):
        with pytest.raises(HrvError, match=r"^features must be 2-D, got shape \(3,\)$"):
            Dataset(np.ones(3), np.ones(3), np.arange(3.0))

    @pytest.mark.parametrize("make, message", [
        (RawHrSeries, "HR values"),
        (RrSeries, "RR intervals"),
        (lambda a: rough_hrv(a, HrvMetricKind.RMSSD), "HR values"),
    ], ids=["RawHrSeries", "RrSeries", "rough_hrv"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_values_must_be_positive(self, make, message, bad):
        # these were bare ValueErrors, which the CLI reports as exit 3
        with pytest.raises(HrvError, match=rf"^{message} must be > 0, not {bad}$"):
            make(np.array([70.0, 71.0, bad]))

    def test_ground_truth_needs_two_beats(self):
        with pytest.raises(HrvError, match="need at least two beat times, got 1"):
            GroundTruth(np.array([1.0]))

    def test_dataset_needs_a_row(self):
        with pytest.raises(HrvError, match="a dataset needs at least one sample"):
            Dataset(np.empty((0, 2)), np.empty(0), np.empty(0))


class TestChronologicalSplit:
    @pytest.fixture()
    def tiny(self):
        m = 10
        return Dataset(
            np.arange(m * 2, dtype=np.float64).reshape(m, 2),
            np.arange(m, dtype=np.float64),
            np.arange(m, dtype=np.float64),
        )

    def test_eighty_twenty(self, tiny):
        train, test = chronological_split(tiny, 0.8)
        assert len(train) == 8 and len(test) == 2
        np.testing.assert_array_equal(train.labels, np.arange(8.0))
        np.testing.assert_array_equal(test.labels, np.array([8.0, 9.0]))

    def test_order_preserved_and_disjoint(self, tiny):
        train, test = chronological_split(tiny, 0.65)
        assert train.window_end_times_s[-1] < test.window_end_times_s[0]
        together = np.concatenate([train.labels, test.labels])
        np.testing.assert_array_equal(together, tiny.labels)

    def test_both_sides_nonempty_after_rounding(self):
        d = Dataset(
            np.zeros((2, 1)),
            np.array([1.0, 2.0]),
            np.array([0.0, 1.0]),
        )
        train, test = chronological_split(d, 0.9)  # ceil(1.8) = 2 would empty test
        assert len(train) == 1 and len(test) == 1

    def test_too_few_samples(self):
        d = Dataset(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(HrvError, match='cannot split'):
            chronological_split(d, 0.8)

    def test_bad_fraction(self, tiny):
        with pytest.raises(ConfigError):
            chronological_split(tiny, 1.0)
        with pytest.raises(ConfigError):
            chronological_split(tiny, 0.0)
