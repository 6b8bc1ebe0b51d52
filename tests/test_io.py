import csv

import numpy as np
import pytest

from ppghrv.data import Dataset
from ppghrv.errors import ConfigError, HrvError
from ppghrv.io import (
    read_dataset_csv,
    read_ppg_csv,
    read_rr_csv,
    write_dataset_csv,
    write_hr_csv,
    write_ppg_csv,
    write_rr_csv,
)
from ppghrv.sigproc import SmoothedHrSeries
from ppghrv.synth import SynthConfig, generate_rr_trace, render_ppg


@pytest.fixture(scope="module")
def trace():
    cfg = SynthConfig(duration_s=30.0, base_hr_bpm=72.0, rr_jitter_ms=20.0, seed=3)
    gt = generate_rr_trace(cfg)
    return gt, render_ppg(gt, cfg)


class TestPpgRoundTrip:
    def test_exact_values_back(self, tmp_path, trace):
        _, ppg = trace
        path = tmp_path / "ppg.csv"
        write_ppg_csv(path, ppg)
        back = read_ppg_csv(path)
        np.testing.assert_array_equal(back.samples, ppg.samples)
        assert back.sampling_rate_hz == ppg.sampling_rate_hz
        assert back.start_time_s == ppg.start_time_s

    def test_rate_mismatch(self, tmp_path, trace):
        _, ppg = trace
        path = tmp_path / "ppg.csv"
        write_ppg_csv(path, ppg)
        with pytest.raises(HrvError, match='more than 1% off the declared 30 Hz'):
            read_ppg_csv(path, declared_rate_hz=30.0)

    @pytest.mark.parametrize("rate", [0.0, -25.0])
    def test_declared_rate_must_be_positive(self, tmp_path, trace, rate):
        _, ppg = trace
        path = tmp_path / "ppg.csv"
        write_ppg_csv(path, ppg)
        with pytest.raises(ConfigError, match="sampling rate"):
            read_ppg_csv(path, declared_rate_hz=rate)

    def test_shuffled_rows(self, tmp_path):
        path = tmp_path / "ppg.csv"
        path.write_text("time_s,value\n0.0,1.0\n0.08,1.2\n0.04,1.1\n")
        with pytest.raises(HrvError, match=':4: time_s does not strictly increase'):
            read_ppg_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ppg.csv"
        path.write_text("")
        with pytest.raises(HrvError, match='empty file'):
            read_ppg_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "ppg.csv"
        path.write_text("time_s,value\n")
        with pytest.raises(HrvError, match='need at least 2 samples, got 0'):
            read_ppg_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "ppg.csv"
        path.write_text("t,v\n0.0,1.0\n")
        with pytest.raises(HrvError, match=':1: expected header'):
            read_ppg_csv(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "ppg.csv"
        path.write_text("time_s,value\n0.0,1.0\n0.04,oops\n")
        with pytest.raises(HrvError, match=":3:"):
            read_ppg_csv(path)


class TestRrRoundTrip:
    def test_exact_values_back(self, tmp_path, trace):
        gt, _ = trace
        path = tmp_path / "rr.csv"
        write_rr_csv(path, gt)
        back = read_rr_csv(path)
        np.testing.assert_array_equal(back.beat_times_s, gt.beat_times_s)
        np.testing.assert_array_equal(back.rr.intervals_ms, gt.rr.intervals_ms)

    def test_non_monotone_beats(self, tmp_path):
        path = tmp_path / "rr.csv"
        path.write_text("beat_time_s,rr_ms\n0.0,\n1.0,1000.0\n0.5,500.0\n")
        with pytest.raises(HrvError, match=':4: beat_time_s does not strictly increase'):
            read_rr_csv(path)

    def test_first_row_must_omit_rr(self, tmp_path):
        path = tmp_path / "rr.csv"
        path.write_text("beat_time_s,rr_ms\n0.0,900.0\n0.9,900.0\n")
        with pytest.raises(HrvError, match=':2: first row must leave rr_ms empty'):
            read_rr_csv(path)


class TestHrCsv:
    def test_round_trip(self, tmp_path):
        shr = SmoothedHrSeries(np.array([61.5, 62.25, 63.0]), start_time_s=8.0)
        path = tmp_path / "hr.csv"
        write_hr_csv(path, shr)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["time_s", "hr_bpm"]
        assert [float(t) for t, _ in rows] == [8.0, 9.0, 10.0]
        assert [float(v) for _, v in rows] == shr.values.tolist()


@pytest.mark.parametrize("reader, text", [
    (read_ppg_csv, "time_s,value\n0.0,1.0\n0.04,nan\n0.08,1.0\n"),
    (read_ppg_csv, "time_s,value\n0.0,1.0\nnan,1.1\n0.08,1.0\n"),
    (read_rr_csv, "beat_time_s,rr_ms\n0.0,\n0.8,inf\n1.6,800.0\n"),
    (read_dataset_csv, "window_end_time_s,f0,label\n1.0,2.0,3.0\n2.0,Infinity,3.0\n"),
    (read_dataset_csv, "window_end_time_s,f0,label\n1.0,2.0,3.0\n2.0,2.0,nan\n"),
], ids=["ppg_value", "ppg_time", "rr", "dataset_feature", "dataset_label"])
def test_non_finite_value_reports_line(tmp_path, reader, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(HrvError, match=":3: non-finite"):
        reader(path)


@pytest.mark.parametrize("reader, text", [
    (read_ppg_csv, "time_s,value\n0.0,1.0\n\n0.04,1.0\n0.02,1.0\n"),
    (read_rr_csv, "beat_time_s,rr_ms\n0.0,\n\n1.0,1000.0\n0.5,500.0\n"),
    (read_dataset_csv, "window_end_time_s,f0,label\n1.0,2.0,3.0\n\n2.0,2.0,3.0\n1.5,2.0,3.0\n"),
], ids=["ppg", "rr", "dataset"])
def test_non_increasing_time_after_blank_line_reports_line(tmp_path, reader, text):
    # _rows skips the blank line 3, so the bad row is the file's line 5
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(HrvError, match=":5: "):
        reader(path)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            rng.normal(size=(12, 4)),
            rng.uniform(10, 50, size=12),
            np.arange(12.0) + 30.0,
        )
        path = tmp_path / "ds.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.window_end_times_s, ds.window_end_times_s)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("window_end_time_s,f0,f2,label\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(HrvError, match=':1: expected header'):
            read_dataset_csv(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("window_end_time_s,f0,label\n1.0,2.0\n")
        with pytest.raises(HrvError, match=":2:"):
            read_dataset_csv(path)
