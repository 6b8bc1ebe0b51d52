import csv
import dataclasses
import hashlib
import io
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ppghrv import io as hrvio
from ppghrv.amplify import AmplificationRow
from ppghrv.data import Dataset, build_hrv_dataset
from ppghrv.errors import ConfigError, HrvError
from ppghrv.experiment import ResultRow
from ppghrv.io import (
    opened,
    read_dataset_csv,
    read_ppg_csv,
    read_rr_csv,
    write_amplification_csv,
    write_dataset_csv,
    write_hr_csv,
    write_ppg_csv,
    write_results_csv,
    write_rr_csv,
    write_trace_csv,
)
from ppghrv.metrics import HrvMetricKind
from ppghrv.sigproc import PpgSignal, SmoothedHrSeries, ppg_to_hr, smooth, zscore_adjust
from ppghrv.synth import GroundTruth, SynthConfig, generate_rr_trace, render_ppg


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

    @pytest.mark.parametrize("rows, message", [
        ("0.8,5000.0\n1.6,800.0", ":3: rr_ms 5000.0 differs from its beat-time difference 800.0 ms"),
        ("0.8,800.0\n\n1.6,800.002", ":5: rr_ms 800.002 differs from its beat-time difference"),
    ], ids=["far", "past_tolerance_after_blank_line"])
    def test_rr_must_agree_with_beat_times(self, tmp_path, rows, message):
        # the labels come from the beat times alone, so a disagreeing rr_ms
        # column used to be read and ignored
        path = tmp_path / "rr.csv"
        path.write_text(f"beat_time_s,rr_ms\n0.0,\n{rows}\n")
        with pytest.raises(HrvError, match=re.escape(message)):
            read_rr_csv(path)

    def test_rr_within_tolerance_reads(self, tmp_path):
        path = tmp_path / "rr.csv"
        path.write_text("beat_time_s,rr_ms\n0.0,\n0.8,800.0009\n1.6,799.9991\n")
        np.testing.assert_array_equal(read_rr_csv(path).beat_times_s, [0.0, 0.8, 1.6])

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


@pytest.mark.parametrize("rr", ["0.0", "-0.0", "-800.0"])
def test_non_positive_rr_reports_line(tmp_path, rr):
    path = tmp_path / "rr.csv"
    path.write_text(f"beat_time_s,rr_ms\n0.0,\n0.8,800.0\n1.6,{rr}\n")
    with pytest.raises(HrvError, match=re.escape(f":4: rr_ms must be > 0, got '{rr}'")):
        read_rr_csv(path)


def test_readers_peak_memory_is_below_three_tables(tmp_path):
    # a reader's peak is measured against the float64 table its file holds
    # (rows x columns; for the dataset, the bytes of the arrays returned):
    # for a file the writers wrote, no list of Python floats may stand
    # between the file and the array
    rng = np.random.default_rng(0)
    write_dataset_csv(tmp_path / "ds.csv", Dataset(
        rng.normal(size=(300, 301)), rng.normal(size=300), np.arange(300.0)
    ))
    write_ppg_csv(tmp_path / "ppg.csv", PpgSignal(25.0, rng.normal(size=15_000)))
    for read, name, table_bytes in [
        (read_dataset_csv, "ds.csv", 300 * 303 * 8),
        (read_ppg_csv, "ppg.csv", 15_000 * 2 * 8),
    ]:
        read(tmp_path / name)  # the first call's one-off allocations are not counted
        tracemalloc.start()
        try:
            read(tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * table_bytes, (name, peak / table_bytes)


def test_dataset_writer_peak_memory_is_below_two_tables(tmp_path):
    # the writer stacks and formats a bounded block of rows at a time, so
    # neither a second full table nor a whole-table index stands beside ds
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(300, 301)), rng.normal(size=300), np.arange(300.0))
    table_bytes = 300 * 303 * 8
    write_dataset_csv(tmp_path / "ds.csv", ds)  # the first call's one-off allocations
    tracemalloc.start()
    try:
        write_dataset_csv(tmp_path / "ds.csv", ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table_bytes, peak / table_bytes


LONG_FIELD = "1" * 200_000  # longer than csv's 131 072-character field limit


@pytest.mark.parametrize("reader, text, lineno", [
    (read_ppg_csv, f"time_s,value\n{LONG_FIELD}\n", 2),
    (read_rr_csv, f"beat_time_s,rr_ms\n{LONG_FIELD}\n", 2),
    (read_dataset_csv, f"window_end_time_s,f0,label\n{LONG_FIELD}\n", 2),
    (read_dataset_csv, f"window_end_time_s,{LONG_FIELD},label\n1.0,2.0,3.0\n", 1),
], ids=["ppg", "rr", "dataset", "dataset_header"])
def test_line_csv_rejects_reports_line(tmp_path, reader, text, lineno):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(HrvError, match=f":{lineno}: field larger than field limit"):
        reader(path)


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_opened_maps_write_failures_to_config_error(tmp_path, mode):
    for path in [tmp_path, tmp_path / "nodir" / "out.csv"]:
        with pytest.raises(ConfigError) as info:
            with opened(path, mode):
                pass
        assert str(info.value).startswith(f"cannot write {path}: ")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("text, message", [
    ('time_s,value\n"0.0\n",1.0\n0.04,oops\n', ":4: bad value value 'oops'"),
    ('time_s,value\n"0.0\n",1.0\n0.04,1.0\n0.04,1.0\n', ":5: time_s does not strictly increase"),
], ids=["bad_field", "repeated_time"])
def test_quoted_newline_counts_physical_lines(tmp_path, text, message):
    # the quoted field spans lines 2 and 3, so the next row is line 4
    path = tmp_path / "in.csv"
    path.write_text(text, newline="")
    with pytest.raises(HrvError, match=re.escape(message)):
        read_ppg_csv(path)


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


def csv_writer_bytes(rows) -> bytes:
    """What csv.writer writes for these rows of strings."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def oracle_dataset_bytes(ds: Dataset) -> bytes:
    """The dataset file as csv.writer wrote it, one repr per field."""
    header = ["window_end_time_s"] + [f"f{i}" for i in range(ds.n_features)] + ["label"]
    rows = (
        [repr(float(t))] + [repr(float(v)) for v in x] + [repr(float(label))]
        for t, x, label in zip(ds.window_end_times_s, ds.features, ds.labels)
    )
    return csv_writer_bytes([header, *rows])


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.125,
]


def random_dataset(rng, m, d) -> Dataset:
    values = np.where(
        rng.random((m, d + 1)) < 0.3,
        rng.choice(SPECIAL_FLOATS, size=(m, d + 1)),
        rng.normal(0.0, 10.0 ** rng.integers(-5, 6, size=(m, d + 1))),
    )
    times = np.cumsum(rng.uniform(1e-3, 1e3, size=m))
    return Dataset(values[:, :d], values[:, d], times)


class TestDatasetCsvFastPaths:
    @pytest.mark.parametrize("seed", range(6))
    def test_writer_bytes_match_csv_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, int(rng.integers(1, 40)), int(rng.integers(1, 30)))
        path = tmp_path / "ds.csv"
        write_dataset_csv(path, ds)
        assert path.read_bytes() == oracle_dataset_bytes(ds)

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_reader_gives_the_written_bits(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        ds = random_dataset(rng, int(rng.integers(1, 40)), int(rng.integers(1, 30)))
        path = tmp_path / "ds.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        ppg = PpgSignal(
            25.0, np.concatenate([ds.features.ravel(), ds.labels]),
            start_time_s=float(ds.window_end_times_s[0]),
        )
        write_ppg_csv(path, ppg)
        ppg_back = read_ppg_csv(path)
        assert ppg_back.start_time_s == ppg.start_time_s
        for got, want in [(back.features, ds.features), (back.labels, ds.labels),
                          (back.window_end_times_s, ds.window_end_times_s),
                          (ppg_back.samples, ppg.samples)]:
            assert got.tobytes() == want.tobytes()
            assert got.flags["C_CONTIGUOUS"]


def block_rows(n_features: int) -> int:
    """Rows of an n_features dataset that write_dataset_csv formats at a time."""
    return max(1, hrvio._WRITE_BLOCK_BYTES // (8 * (n_features + 2)))


class TestDatasetWriterBlocks:
    """write_dataset_csv formats a block of rows at a time, each run of equal
    bits once; its bytes must not depend on where the blocks fall."""

    def assert_oracle_bytes(self, tmp_path, ds):
        path = tmp_path / "ds.csv"
        write_dataset_csv(path, ds)
        assert path.read_bytes() == oracle_dataset_bytes(ds)

    def test_table_spanning_several_blocks(self, tmp_path):
        rows = block_rows(20)
        ds = random_dataset(np.random.default_rng(7), 3 * rows + rows // 2, 20)
        self.assert_oracle_bytes(tmp_path, ds)

    def test_row_wider_than_a_block(self, tmp_path):
        d = hrvio._WRITE_BLOCK_BYTES // 8 + 10
        assert block_rows(d) == 1
        self.assert_oracle_bytes(tmp_path, random_dataset(np.random.default_rng(8), 3, d))

    def test_signed_zeros_in_one_block_and_across_blocks(self, tmp_path):
        # 0.0 == -0.0, but the two print differently
        rows = block_rows(4)
        X = np.ones((3 * rows, 4))
        X[:rows, 2] = np.where(np.arange(rows) % 2, 0.0, -0.0)  # block 0 mixes both
        X[rows:2 * rows, 0] = -0.0                              # block 1: -0.0 only
        X[2 * rows:, 3] = 0.0                                   # block 2: 0.0 only
        ds = Dataset(X, np.ones(3 * rows), np.arange(3.0 * rows) + 1.0)
        self.assert_oracle_bytes(tmp_path, ds)

    def test_sliding_window_dataset(self, tmp_path):
        cfg = SynthConfig(duration_s=420.0, base_hr_bpm=70.0, rr_jitter_ms=30.0, seed=9)
        gt = generate_rr_trace(cfg)
        shr = smooth(zscore_adjust(ppg_to_hr(render_ppg(gt, cfg))))
        ds = build_hrv_dataset(shr, gt, 60, HrvMetricKind.RMSSD)
        assert len(ds) > block_rows(ds.n_features)
        self.assert_oracle_bytes(tmp_path, ds)


def oracle_table(path, header: list[str]) -> np.ndarray:
    """The per-field reference reader: csv.reader, then float and
    math.isfinite for each field, then the time-order check, with io's
    messages.  A row's line number is the physical line it ends on."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader, None)
            if head is None:
                raise HrvError(f"{path}: empty file")
            if head != header:
                raise HrvError(
                    f"{path}:1: expected header {','.join(header)!r}, got {','.join(head)!r}"
                )
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num
                if len(row) != len(header):
                    raise HrvError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                values = []
                for text, column in zip(row, header):
                    try:
                        v = float(text)
                    except ValueError:
                        raise HrvError(f"{path}:{lineno}: bad {column} value {text!r}") from None
                    if not math.isfinite(v):
                        raise HrvError(f"{path}:{lineno}: non-finite {column} value {text!r}")
                    values.append(v)
                rows.append((lineno, values))
        except csv.Error as err:
            raise HrvError(f"{path}:{reader.line_num}: {err}") from None
    for (_, before), (lineno, values) in zip(rows, rows[1:]):
        if not values[0] > before[0]:
            raise HrvError(f"{path}:{lineno}: {header[0]} does not strictly increase")
    return np.array([values for _, values in rows], dtype=np.float64).reshape(-1, len(header))


def oracle_dataset(path) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        n_features = max(fh.readline().count(",") - 1, 1)
    table = oracle_table(path, hrvio._dataset_header(n_features))
    if not len(table):
        raise HrvError(f"{path}: no data rows")
    return Dataset(table[:, 1:-1], table[:, -1], table[:, 0])


def oracle_ppg(path, rate_hz: float) -> PpgSignal:
    table = oracle_table(path, ["time_s", "value"])
    if len(table) < 2:
        raise HrvError(f"{path}: need at least 2 samples, got {len(table)}")
    inferred = 1.0 / float(np.median(np.diff(table[:, 0])))
    if abs(inferred - rate_hz) > 0.01 * rate_hz:
        raise HrvError(
            f"{path}: inferred rate {inferred:.3f} Hz is more than 1% off "
            f"the declared {rate_hz:g} Hz"
        )
    return PpgSignal(rate_hz, table[:, 1], start_time_s=float(table[0, 0]))


def _outcome(read, path):
    try:
        got = read(path)
    except Exception as err:  # the type and message are what is compared
        return type(err), str(err)
    if isinstance(got, Dataset):
        return tuple(a.tobytes() for a in (got.features, got.labels, got.window_end_times_s))
    return got.samples.tobytes(), got.start_time_s


H = "window_end_time_s,f0,label"


def as_ppg(text: str, drop: int) -> str:
    """A dataset case as a PPG case: the header H becomes the PPG header, and
    every line after it loses field `drop` (1 = f0, 2 = label) if it has one,
    so each quirk of the other two fields is kept in a two-column file.  Text
    that does not start with H is returned as it is."""
    if not text.startswith(H):
        return text
    parts = re.split(r"(\r\n|\r|\n)", text[len(H):])  # lines, with their endings between
    for i in range(0, len(parts), 2):
        fields = parts[i].split(",")
        if len(fields) > drop:
            del fields[drop]
        parts[i] = ",".join(fields)
    return "time_s,value" + "".join(parts)


@pytest.mark.parametrize("text", [
    f"{H}\r\n1.0,2.0,3.0\r\n2.0,-0.0,4e-320\r\n",
    f"{H}\n1.0,2.0,3.0\n\n\n2.0,2.5,3.5\n",
    f"{H}\r1.0,2.0,3.0\r2.0,2.5,3.5\r",
    f"{H}\r\n1.0,2.0,3.0\r\r\n2.0,2.5,3.5",
    f"{H}\n1.0,+2.,.5e+1\n2.0,1E3,-3\n",
    f"{H}\n\"1.0\",2.0,\"3.0\"\n2.0,2.5,3.5\n",
    f"{H}\n\"1.0\n\",2.0,3.0\n",
    f"{H}\n\"1.0\n\",2.0,3.0\n2.0,oops,oops\n",
    f"{H}\n\"1.0\n\",2.0,3.0\n2.0,2.5,3.5\n2.0,2.5,3.5\n",
    f"{H}\n1.0,2.0\x0b,3.0\n2.0,2.5,3.5\n",
    f"{H}\n1.0,2.\x0b0,3.0\n",
    f"{H}\n1.0,\x0c2.0,3.0\n2.0,2.5,3.5\n",
    f"{H}\n1.0,2.0\u2028,3.0\n2.0,2.5,3.5\n",
    f"{H}\n1.0,2\u20280,3.0\n",
    f"{H}\n 1.0,2.0 ,3.0\n2.0,2.5,3.5\n",
    f"{H}\n1_0,2.0,3.0\n2_0,2.5,3.5\n",
    f"{H}\n1.0,nan,3.0\n",
    f"{H}\n1.0,2.0,inf\n",
    f"{H}\n1.0,2.0,1e999\n",
    f"{H}\n1.0,2.0,3.0\n2.0,2.5\n",
    f"{H}\n1.0,2.0,3.0\n2.0,2.5,3.5,4.5\n",
    f"{H}\n1.0,2.0,3.0\n2.0,,3.5\n",
    f"{H}\n1.0,2.0,3.0\n2.0,1.2.3,3.5\n",
    f"{H}\n1.0,2.0,3.0\n2.0,e,3.5\n",
    f"{H}\n1.0,2.0,3.0\n,\n",
    f"{H}\n2.0,2.0,3.0\n\n1.0,2.5,3.5\n",
    f"{H}\n1.0,2.0,3.0\n1.0,2.5,3.5\n",
    f"{H}\n",
    f"{H}\n\n\r\n",
    "",
    "window_end_time_s,f0,f1\n1.0,2.0,3.0\n",
    "window_end_time_s,f0,\"label\n1.0,2.0,3.0\n",
    f"{H}\n1.0,2.0,{'1' * 200_000}e-199999\n",
], ids=[
    "crlf", "blank_lines", "cr_only", "cr_cr_lf", "signs_and_exponents",
    "quoted", "quoted_newline", "quoted_newline_then_bad_field",
    "quoted_newline_then_repeated_time", "vt_after_field", "vt_inside_field",
    "ff_before_field", "line_separator_after_field", "line_separator_inside_field",
    "spaces", "underscores", "nan", "inf", "overflow", "short_row", "long_row",
    "empty_field", "two_points", "bare_exponent", "commas_only",
    "decreasing_after_blank", "repeated_time", "header_only", "header_and_blanks",
    "empty_file", "wrong_header", "open_quote_in_header", "field_over_csv_limit",
])
def test_dataset_reader_paths_agree(tmp_path, text):
    # the dataset reader gives the per-field oracle's outcome: the same
    # error type and message, or the same arrays bit for bit
    path = tmp_path / "ds.csv"
    path.write_text(text, newline="")
    assert _outcome(read_dataset_csv, path) == _outcome(oracle_dataset, path)
    for drop in (1, 2):
        path.write_text(as_ppg(text, drop), newline="")
        assert _outcome(partial(read_ppg_csv, declared_rate_hz=1.0), path) == _outcome(
            partial(oracle_ppg, rate_hz=1.0), path
        )


def _table_outcome(read, path, header):
    try:
        table = read(path, header)
    except HrvError as err:
        return str(err)
    return table.shape, table.tobytes()


LIMIT = csv.field_size_limit()
# a finite number of LIMIT + 1 characters, then one of LIMIT; 64 KB from the
# file's start, a field crosses the byte scan's first block boundary
OVER = "0" * LIMIT + "2"
AT = "0" * (LIMIT - 1) + "2"


@pytest.mark.parametrize("text", [
    f"time_s,value\n0,1\n1,{OVER}\n",
    f"time_s,value\n0,1\n1,{OVER}",
    f"time_s,value\n0,1\n1,1\n2,{OVER}\n3,4\n",
    f"time_s,value\n0,1\n1,{AT}\n",
    f"time_s,value\n0,{'0' * (64 * 1024 - 20)}1\n1,{AT}\n2,{OVER}\n",
    f"time_s,value\n0,1\n{chr(10) * (LIMIT + 1)}1,2\n",
    'time_s,value\n0,1\n1,1"2"\n',
    'time_s,value\n0,1\n1,"2"\n',
    'time_s,value\n0,1\n1,"2\n3"\n2,3\n',
], ids=["over_limit_row_2", "over_limit_no_final_end", "over_limit_row_3",
        "at_limit", "across_block", "blank_run_over_limit", "quote_inside",
        "quoted", "quoted_line_end"])
def test_table_reads_with_float_what_loadtxt_reads_otherwise(tmp_path, text):
    # past the first row, csv's field limit and quotes still give the per-field
    # oracle's outcome: numpy's tokenizer has no limit and is given no quote
    path = tmp_path / "in.csv"
    path.write_text(text, newline="")
    assert _table_outcome(hrvio._table, path, hrvio.PPG_HEADER) == _table_outcome(
        oracle_table, path, hrvio.PPG_HEADER
    )


# float's grammar (sign, digits, point, exponent), then texts where float
# and numpy's parser part ways or that a reader must reject
_DIGITS = st.text("0123456789", min_size=1, max_size=25)
_SIGN = st.sampled_from(["", "+", "-"])
_GRAMMAR = st.builds(
    "{}{}{}".format,
    _SIGN,
    st.one_of(_DIGITS, _DIGITS.map("{}.".format), st.builds("{}.{}".format, _DIGITS, _DIGITS),
              _DIGITS.map(".{}".format)),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"), _SIGN,
                                     st.text("0123456789", min_size=1, max_size=2))),
)
_QUIRKS = st.sampled_from([
    "+1.5", "1.", ".5", "-0.0", "5e-324", "1e-400", "1e999", "1" * 400, "0." + "7" * 400,
    "nan", "-NaN", "inf", "Infinity", "-iNF", "infinity", "1_5", "1__5", "_15",
    "\u0661\u0662", "\uff15.\uff15", "#", "#1", "1#", "", "e", "e5", "1e", ".", "+", "1.2.3",
    "0x1p3", "1d5", "--1", "in", "nanx", "\ufeff1", "1\x002", '1"2"', '1"2',
])
# beside a number: float skips ASCII whitespace and non-ASCII spaces, numpy's
# parser \x1c-\x1f as well; neither skips a BOM
_SPACE = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                         "\u2028", "\u3000", "\ufeff"])


@st.composite
def _field_text(draw, value: int | None, noise: str | None) -> str:
    """A field's text: row index `value` spelled as a number, else a number
    in float's grammar or a finite float's repr; spaced by a space or a tab,
    and maybe quoted, holding a line end.  With one noise: a quirk (or any
    float's repr) or a non-finite spelling for the text, a character before
    or after it that float or numpy's parser may skip as a space, or a
    doubled quote or text after the closing quote."""
    if noise == "quirk":
        text = draw(st.one_of(_QUIRKS, st.floats().map(repr)))
    elif noise == "non-finite":
        text = draw(st.sampled_from(["nan", "-NaN", "inf", "+Infinity", "-iNF", "1e999"]))
    elif value is not None:
        text = draw(st.sampled_from([str(value), f"{value}.0", f"+{value}.", f"{value}e0"]))
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        text = draw(st.one_of(_GRAMMAR, finite))
    text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\t"]))
    if noise == "space":
        text = draw(st.sampled_from(["{}{}", "{1}{0}"])).format(draw(_SPACE), text)
    if noise == "quote":
        return '"' + text + draw(st.sampled_from(['""', '"" ', '"x', '" x', '"', ""]))
    if draw(st.integers(0, 3)) == 0:
        text = '"' + text + draw(st.sampled_from(["", "\n", "\r\n"])) + '"'
    return text


@st.composite
def _csv_text(draw, header: list[str]) -> str:
    """A file with this header, then rows of field texts, with blank lines,
    CR, LF or CRLF line ends and perhaps no final one.  Most files carry one
    kind of noise: noisy fields, a BOM, quoting or a wrong name in the
    header, a row of another width, or a # after a row."""
    kind = draw(st.sampled_from(["clean", "fields", "fields", "header", "width", "comment"]))
    noise = st.sampled_from([None] * 4 + ["quirk", "non-finite", "space", "quote"])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    head = ",".join(header)
    if kind == "header":
        head = draw(st.sampled_from([
            "\ufeff" + head, '"' + head.replace(",", '","') + '"', head + ",",
            head.replace(header[-1], "x"),
        ]))
    rows = [
        [draw(_field_text(i if c == 0 else None, draw(noise) if kind == "fields" else None))
         for c in range(len(header))]
        for i in range(draw(st.sampled_from(range(7))))  # integers() draws mostly 0
    ]
    if rows and kind in ("width", "comment"):
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "comment":  # what loadtxt would take for a comment
            fields[-1] += draw(st.sampled_from(["#", "#1", "#,1"]))
        elif len(fields) > 1 and draw(st.booleans()):
            fields.pop()
        else:  # an empty field is a trailing comma
            fields.append(draw(st.one_of(st.just(""), _field_text(None, None))))
    lines = [head]
    for fields in rows:
        lines += [""] * draw(st.integers(0, 1)) + [",".join(fields)]
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_agrees_with_the_per_field_oracle(tmp_path, data):
    # numpy's C tokenizer or float's fall-through: _table gives the oracle's
    # bits, or raises its message
    header = data.draw(st.sampled_from([hrvio.PPG_HEADER, hrvio._dataset_header(1),
                                        hrvio._dataset_header(3)]))
    path = tmp_path / "in.csv"
    path.write_text(data.draw(_csv_text(header)), encoding="utf-8", newline="")

    assert _table_outcome(hrvio._table, path, header) == _table_outcome(oracle_table, path, header)


def test_every_writer_writes_what_csv_writer_would(tmp_path, trace):
    # re-rendering each parsed file with csv.writer gives the same bytes: no
    # field needed quoting and every line ends with \r\n
    gt, ppg = trace
    shr = SmoothedHrSeries(np.array([61.5, 62.25, 63.0]), start_time_s=8.0)
    result = ResultRow("office_work", "rmssd", 60, "dt", 12.5, 98.25, 1234, None)
    writers = {
        "ppg": lambda p: write_ppg_csv(p, ppg),
        "rr": lambda p: write_rr_csv(p, gt),
        "hr": lambda p: write_hr_csv(p, shr),
        "results": lambda p: write_results_csv(
            p, [result, dataclasses.replace(result, latency_us_mean=3.5)]
        ),
        "trace": lambda p: write_trace_csv(p, [1.0, 2.0], [3.0, 4.0], [5.0, -0.0], [7.0, 8.0]),
        "amplification": lambda p: write_amplification_csv(
            p, [AmplificationRow(0.0, 0.0, 0.0, 10, 3), AmplificationRow(1.0, 9.5, 4.25, 10, 3)]
        ),
    }
    for name, write in writers.items():
        path = tmp_path / f"{name}.csv"
        write(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1, name
        assert path.read_bytes() == csv_writer_bytes(rows), name


def test_record_writers_bytes_are_pinned(tmp_path):
    # None, numpy floats, signed zeros, a subnormal and ints in fixed rows; a
    # float32 prints its float64 value, which str would not
    results = [
        ResultRow("office_work", "rmssd", 60, "dt", np.float64(12.5), -0.0, 1234, None),
        ResultRow("sit", "sdnn", 300, "knn", 1e-320, np.float64(98.25), 1_450_000,
                  np.float32(0.1)),
    ]
    amplification = [
        AmplificationRow(0.0, -0.0, 1e-320, 10, 3),
        AmplificationRow(np.float64(1.0), np.float64(9.5), 4.25, 250, 777),
    ]
    gt = GroundTruth(np.array([-0.0, 1e-320, 0.8125, 1.6]))
    writers = {
        "results": lambda p: write_results_csv(p, results),
        "amplification": lambda p: write_amplification_csv(p, amplification),
        "rr": lambda p: write_rr_csv(p, gt),
    }
    found = {}
    for name, write in writers.items():
        write(tmp_path / name)
        found[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert found == {
        "results": "f17b04ae3dcab9024854412adc40ed648721f69da2a748111280fc9b4f91e94d",
        "amplification": "90a136d23f2e1e96773735b79c20bec546b38209185d840300196797c8fe387c",
        "rr": "04a4d60679f4950e27c0844650391eb3d36581cb154e8002a4753de47b7024fc",
    }
