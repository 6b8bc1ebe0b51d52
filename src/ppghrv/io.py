"""CSV wire formats, and `opened`, the package's one way to open a file.

Formats (headers are exact):

    PPG trace        time_s,value
    RR ground truth  beat_time_s,rr_ms      (first row's rr_ms is empty)
    per-second HR    time_s,hr_bpm          (written only; nothing reads it back)
    dataset          window_end_time_s,f0..f{d-1},label
    results table    activity,metric,n_s,model,mape_pct,sigproc_mape_pct,model_bytes,latency_us_mean
    estimation trace window_end_s,truth_ms,sigproc_ms,model_ms
    amplification    rr_mape,rmssd_mape,sdnn_mape,trials,seed

Floats are written with repr (shortest round-trip), so write->read returns
the exact in-memory values.  Readers raise HrvError for a malformed or
non-finite (nan, inf) value, an rr_ms that is not > 0 or that differs from
its beat-time difference by more than RR_TOLERANCE_MS, timestamps that do
not strictly increase, and a PPG interval more than 1% off 1 / the declared
rate (a gap, or samples closer than the rate allows), naming the file and
line, and for a PPG file whose rate inferred from the median interval is off
the declared one by more than 1%; a declared rate that is not > 0 is a
ConfigError.  A line csv rejects (such as a field longer than csv's field
limit) is an HrvError naming the line.

The PPG and dataset readers (`_table`) have two parsers.  Once csv has
checked the header, np.loadtxt (numpy's C tokenizer) parses the rows, and
its table is taken if it has the header's width and only finite values.  A
file it fails on, warns on, or might read otherwise than csv and float (see
`_float_reads_only`) is read field by field with float instead
(`_float_table`), and that reader alone words every error.  So either way
the values taken, the messages and their line numbers are the float
reader's.

The dataset writer sorts each block of rows by value and formats each run
of equal bits once, so a value that recurs across rows is formatted about
once per block; the bytes equal one repr per field.

Every file the package reads or writes, CSV or binary model, is opened by
`opened`.  A file that cannot be read (missing, a directory, no permission,
text that is not UTF-8) raises HrvError naming the path; one that cannot be
written raises ConfigError, because an output path is a setting.  Writes go
straight to the target, so a failure mid-write (say, a full disk) can leave
a partial file.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import warnings
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError, HrvError
from .sigproc import DEFAULT_SAMPLING_RATE_HZ, PpgSignal, SmoothedHrSeries, check_rate
from .synth import GroundTruth, first_non_increasing

PPG_HEADER = ["time_s", "value"]
RR_HEADER = ["beat_time_s", "rr_ms"]
HR_HEADER = ["time_s", "hr_bpm"]
RESULTS_HEADER = [
    "activity",
    "metric",
    "n_s",
    "model",
    "mape_pct",
    "sigproc_mape_pct",
    "model_bytes",
    "latency_us_mean",
]
TRACE_HEADER = ["window_end_s", "truth_ms", "sigproc_ms", "model_ms"]
AMPLIFICATION_HEADER = ["rr_mape", "rmssd_mape", "sdnn_mape", "trials", "seed"]

RATE_TOLERANCE = 0.01  # inferred vs declared sampling rate, and each interval vs 1 / rate
# rr_ms vs 1000 x its beat-time difference; the labels use only the beat
# times, and a file written here holds exactly that product
RR_TOLERANCE_MS = 1e-3
_WRITE_BLOCK_BYTES = 64 * 1024  # float64 bytes of dataset rows formatted at a time
# a file holding one is read by float: the writers never quote, and numpy's
# float parser skips \x1c-\x1f as whitespace around a number (str.isspace
# holds for them), float does not
_FLOAT_ONLY_BYTES = b'"\x1c\x1d\x1e\x1f'
_SCAN_BLOCK_BYTES = 64 * 1024


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def opened(path, mode: str):
    """Open path in mode ("r", "w", "rb" or "wb"); text is UTF-8, newlines
    untranslated.  A failed read raises HrvError, a failed write ConfigError,
    each naming the path."""
    text = "b" not in mode
    try:
        with open(
            path, mode, encoding="utf-8" if text else None, newline="" if text else None
        ) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        if mode.startswith("r"):
            raise HrvError(f"cannot read {path}: {reason}") from None
        raise ConfigError(f"cannot write {path}: {reason}") from None


def _write_csv(path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header and the lines, each ended by csv's \\r\\n.

    Every field written is a float repr, an integer or a fixed name, none of
    which csv would quote, so joining fields with commas gives the bytes
    csv.writer gives.
    """
    with opened(path, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line + "\r\n" for line in lines)


def _field(value) -> str:
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, (float, np.floating)) else str(value)


def _write_records(path, header: Sequence[str], records: Iterable[Sequence]) -> None:
    """Write one line per record, a field per value: None is left empty, a
    float (numpy's too) is written by _fmt and anything else by str."""
    _write_csv(path, header, (",".join(map(_field, r)) for r in records))


def _rows(path, expected_header: Sequence[str]):
    """Yield (line_number, row) for data rows; validates the header.  The
    number is the physical line a row ends on, so a quoted field that spans
    lines does not shift the numbers of the rows after it."""
    with opened(path, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise HrvError(f"{path}: empty file")
            if header != list(expected_header):
                raise HrvError(
                    f"{path}:1: expected header {','.join(expected_header)!r}, "
                    f"got {','.join(header)!r}"
                )
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num
                if len(row) != len(expected_header):
                    raise HrvError(
                        f"{path}:{lineno}: expected {len(expected_header)} fields, "
                        f"got {len(row)}"
                    )
                yield lineno, row
        except csv.Error as err:
            raise HrvError(f"{path}:{reader.line_num}: {err}") from None


def _parse_float(path, lineno: int, text: str, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise HrvError(f"{path}:{lineno}: bad {column} value {text!r}") from None
    if not math.isfinite(v):
        raise HrvError(f"{path}:{lineno}: non-finite {column} value {text!r}")
    return v


def _fail_at(path, header: Sequence[str], row: int, message: str) -> NoReturn:
    """HrvError naming the line data row `row` ends on, read back from _rows
    (which skips blank lines) on this error path rather than kept for every row."""
    lineno, _ = next(itertools.islice(_rows(path, header), row, None))
    raise HrvError(f"{path}:{lineno}: {message}")


def _check_increasing(path, header: Sequence[str], t: np.ndarray) -> None:
    """t holds one time per data row (column header[0]); name the line of the
    first that does not increase."""
    bad = first_non_increasing(t)
    if bad is not None:
        _fail_at(path, header, bad, f"{header[0]} does not strictly increase")


def _float_reads_only(path) -> bool:
    """path holds what np.loadtxt might read otherwise than csv and float: a
    byte of _FLOAT_ONLY_BYTES (in UTF-8 no other character holds one), or a
    run of more bytes with no comma than csv's field limit.  A field has at
    least as many bytes as characters, so a field csv rejects as too long
    lies in such a run; numpy's tokenizer has no limit."""
    limit = csv.field_size_limit()
    run = 0  # bytes since the last comma
    with opened(path, "rb") as fh:
        # a block is no longer than the limit, so only a run that crosses
        # into a block from the ones before it can exceed the limit
        for block in iter(lambda: fh.read(min(_SCAN_BLOCK_BYTES, limit)), b""):
            if any(byte in block for byte in _FLOAT_ONLY_BYTES):
                return True
            first = block.find(b",")
            if first < 0:
                run += len(block)
            elif run + first > limit:
                return True
            else:
                run = len(block) - 1 - block.rfind(b",")
            if run > limit:
                return True
    return False


def _float_table(path, header: Sequence[str]) -> np.ndarray:
    """The data rows as one (rows, len(header)) float64 array, each field
    read by _parse_float, which raises for the first bad field or line in
    file order."""
    return np.array([
        _parse_float(path, lineno, text, column)
        for lineno, row in _rows(path, header)
        for text, column in zip(row, header)
    ], dtype=np.float64).reshape(-1, len(header))


def _table(path, header: Sequence[str]) -> np.ndarray:
    """The data rows as one (rows, len(header)) float64 array whose column 0
    strictly increases.

    Once _rows has checked the header, np.loadtxt (numpy's C tokenizer)
    parses the rows of a file _float_reads_only passes.  Its table is taken
    if it has len(header) columns and every value is finite.
    On anything else (an exception, a warning such as loadtxt's on a file
    with no data rows, another width, a value that is not finite)
    _float_table reads the file, as it would alone, and words every error.
    """
    # raises for an empty file, a wrong header or a first row of another
    # width; a header that matches holds no line end, so skiprows=1 skips it
    rows = _rows(path, header)
    next(rows, None)
    rows.close()
    table = None
    if not _float_reads_only(path):
        with suppress(Exception), warnings.catch_warnings(), opened(path, "r") as fh:
            warnings.simplefilter("error")
            table = np.loadtxt(fh, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2,
                               comments=None)
    if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
        table = _float_table(path, header)
    _check_increasing(path, header, table[:, 0])
    return table


def _write_series(path, header: Sequence[str], start_s: float, rate_hz: float, values) -> None:
    """One line per value: its time start_s + i / rate_hz, then the value."""
    lines = (f"{_fmt(start_s + i / rate_hz)},{_fmt(v)}" for i, v in enumerate(values))
    _write_csv(path, header, lines)


def write_ppg_csv(path, signal: PpgSignal) -> None:
    _write_series(path, PPG_HEADER, signal.start_time_s, signal.sampling_rate_hz, signal.samples)


def read_ppg_csv(path, declared_rate_hz: float = DEFAULT_SAMPLING_RATE_HZ) -> PpgSignal:
    check_rate(declared_rate_hz)
    table = _table(path, PPG_HEADER)
    if len(table) < 2:
        raise HrvError(f"{path}: need at least 2 samples, got {len(table)}")
    t = table[:, 0]
    dt = np.diff(t)
    inferred = 1.0 / float(np.median(dt))
    if abs(inferred - declared_rate_hz) > RATE_TOLERANCE * declared_rate_hz:
        raise HrvError(
            f"{path}: inferred rate {inferred:.3f} Hz is more than 1% off "
            f"the declared {declared_rate_hz:g} Hz"
        )
    # each interval's relative distance from 1 / rate, in place in dt
    dt *= declared_rate_hz
    dt -= 1.0
    np.abs(dt, out=dt)
    gap = int(dt.argmax())
    if dt[gap] > RATE_TOLERANCE:
        _fail_at(path, PPG_HEADER, gap + 1, f"interval {float(t[gap + 1] - t[gap])!r} s "
                 f"is more than 1% off 1/{declared_rate_hz:g} Hz")
    return PpgSignal(declared_rate_hz, table[:, 1].copy(), start_time_s=float(t[0]))


def write_rr_csv(path, gt: GroundTruth) -> None:
    _write_records(path, RR_HEADER, zip(gt.beat_times_s, [None, *gt.rr.intervals_ms]))


def read_rr_csv(path) -> GroundTruth:
    beats = []
    for lineno, row in _rows(path, RR_HEADER):
        beats.append(_parse_float(path, lineno, row[0], "beat_time_s"))
        if len(beats) == 1:
            if row[1] != "":
                raise HrvError(f"{path}:{lineno}: first row must leave rr_ms empty")
            continue
        rr = _parse_float(path, lineno, row[1], "rr_ms")
        if not rr > 0:
            raise HrvError(f"{path}:{lineno}: rr_ms must be > 0, got {row[1]!r}")
        # GroundTruth.rr's value; _check_increasing names a beat that does not increase
        diff_ms = (beats[-1] - beats[-2]) * 1000.0
        if diff_ms > 0 and abs(rr - diff_ms) > RR_TOLERANCE_MS:
            raise HrvError(
                f"{path}:{lineno}: rr_ms {rr!r} differs from its beat-time difference "
                f"{diff_ms!r} ms by more than {RR_TOLERANCE_MS:g} ms"
            )
    if len(beats) < 2:
        raise HrvError(f"{path}: need at least 2 beats, got {len(beats)}")
    bt = np.asarray(beats)
    _check_increasing(path, RR_HEADER, bt)
    return GroundTruth(beat_times_s=bt)


def write_hr_csv(path, shr: SmoothedHrSeries) -> None:
    # one value per second: i / 1.0 is exactly i
    _write_series(path, HR_HEADER, shr.start_time_s, 1.0, shr.values)


def _dataset_header(n_features: int) -> list[str]:
    return ["window_end_time_s"] + [f"f{i}" for i in range(n_features)] + ["label"]


def _block_lines(block: np.ndarray) -> Iterator[str]:
    """block's rows as lines, each run of equal bits formatted once.

    A float argsort brings equal values together, and a run ends wherever
    the bits change: 0.0 == -0.0, but the two print differently, so a zero
    may fall into more than one run, each of one bit pattern.  The float64
    argsort and the int64 comparison are numpy code an ingest pass already
    runs (find_peaks, np.unique on counts); np.unique on the bits instead
    would page in 128 KB more of numpy's code.  A generator of its own, so
    one block's texts are freed before the next block's are made.
    """
    flat = block.ravel()
    order = flat.argsort()
    bits = flat.view(np.int64)[order]
    starts = np.concatenate([[True], bits[1:] != bits[:-1]])
    inverse = np.empty(flat.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    texts = np.array(list(map(repr, flat[order[starts]].tolist())), dtype=object)
    yield from map(",".join, texts[inverse].reshape(block.shape).tolist())


def write_dataset_csv(path, ds: Dataset) -> None:
    # a window's features are the last n_s per-second values, so one value
    # recurs in up to n_s rows; a bounded block of rows is stacked at a time
    step = max(1, _WRITE_BLOCK_BYTES // (8 * (ds.n_features + 2)))
    blocks = (
        np.column_stack([ds.window_end_times_s[r:r + step], ds.features[r:r + step],
                         ds.labels[r:r + step]])
        for r in range(0, len(ds), step)
    )
    lines = itertools.chain.from_iterable(map(_block_lines, blocks))
    _write_csv(path, _dataset_header(ds.n_features), lines)


def read_dataset_csv(path) -> Dataset:
    """Read what write_dataset_csv wrote: the same arrays, bit for bit."""
    with opened(path, "r") as fh:
        width = fh.readline().count(",") + 1
    # the header declares the feature count; one is the least accepted.  It
    # counts commas, not csv fields, so a header line csv rejects reaches
    # _rows, which names it; a header with a quoted comma matches none anyway.
    table = _table(path, _dataset_header(max(width - 2, 1)))
    if not len(table):
        raise HrvError(f"{path}: no data rows")
    return Dataset(np.ascontiguousarray(table[:, 1:-1]), table[:, -1].copy(), table[:, 0].copy())


def write_results_csv(path, rows: Iterable) -> None:
    _write_records(path, RESULTS_HEADER, map(dataclasses.astuple, rows))


def write_trace_csv(path, window_end_s, truth_ms, sigproc_ms, model_ms) -> None:
    columns = zip(window_end_s, truth_ms, sigproc_ms, model_ms)
    _write_csv(path, TRACE_HEADER, (",".join(map(_fmt, row)) for row in columns))


def write_amplification_csv(path, rows: Iterable) -> None:
    _write_records(path, AMPLIFICATION_HEADER, map(dataclasses.astuple, rows))
