"""Error injection and the amplification table."""

import numpy as np
import pytest

from ppghrv.amplify import (
    AmplificationRow,
    _window_slices,
    amplification_table,
    default_base_trace,
    inject_rr_error,
)
from ppghrv.errors import ConfigError
from ppghrv.metrics import RrSeries, mape


class TestInjectRrError:
    def test_zero_target_is_bit_identical(self):
        rr = default_base_trace()
        out = inject_rr_error(rr, 0.0, rng_seed=1)
        np.testing.assert_array_equal(out.intervals_ms, rr.intervals_ms)

    def test_realized_mape_matches_target(self):
        # E|eps| = a/2 = target; with 1e5 intervals the estimate is tight
        rng = np.random.default_rng(31)
        rr = RrSeries(rng.uniform(600.0, 1200.0, size=100_000))
        out = inject_rr_error(rr, 2.0, rng_seed=2)
        realized = mape(out.intervals_ms, rr.intervals_ms)
        assert 1.9 <= realized <= 2.1

    def test_deterministic_per_seed(self):
        rr = default_base_trace()
        a = inject_rr_error(rr, 3.0, rng_seed=5)
        b = inject_rr_error(rr, 3.0, rng_seed=5)
        np.testing.assert_array_equal(a.intervals_ms, b.intervals_ms)
        c = inject_rr_error(rr, 3.0, rng_seed=6)
        assert not np.array_equal(a.intervals_ms, c.intervals_ms)

    def test_intervals_stay_positive(self):
        rr = RrSeries(np.full(5000, 700.0))
        out = inject_rr_error(rr, 49.0, rng_seed=3)  # eps amplitude 0.98
        assert np.all(out.intervals_ms > 0)

    def test_invalid_targets(self):
        rr = RrSeries(np.full(10, 800.0))
        with pytest.raises(ConfigError, match='needs eps amplitude 1.0 >= 1'):
            inject_rr_error(rr, 50.0, rng_seed=0)
        with pytest.raises(ConfigError, match='target_mape_pct must be >= 0'):
            inject_rr_error(rr, -1.0, rng_seed=0)

    def test_length_preserved(self):
        rr = default_base_trace()
        assert len(inject_rr_error(rr, 4.0, rng_seed=9)) == len(rr)


class TestWindowSlices:
    def test_covers_consecutive_indices(self):
        rr = RrSeries(np.full(100, 1000.0))  # 100 s of exact 1 s beats
        slices = _window_slices(rr, 10.0)
        assert len(slices) == 10
        joined = np.concatenate([np.arange(s.start, s.stop) for s in slices])
        np.testing.assert_array_equal(joined, np.arange(100))

    def test_partial_tail_dropped(self):
        rr = RrSeries(np.full(105, 1000.0))
        slices = _window_slices(rr, 10.0)
        assert len(slices) == 10
        assert slices[-1].stop == 100


@pytest.fixture(scope="module")
def rows():
    return amplification_table(
        default_base_trace(),
        mape_levels_pct=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
        trials=200,
        rng_seed=7,
    )


class TestAmplificationTable:
    def test_zero_level_row_is_exactly_zero(self, rows):
        assert rows[0].rr_mape_pct == 0.0
        assert rows[0].rmssd_mape_pct == 0.0
        assert rows[0].sdnn_mape_pct == 0.0

    def test_rmssd_dominates_sdnn_dominates_rr(self, rows):
        for row in rows[1:]:
            assert row.rmssd_mape_pct >= row.sdnn_mape_pct >= row.rr_mape_pct

    def test_monotone_in_level(self, rows):
        rm = [r.rmssd_mape_pct for r in rows]
        sd = [r.sdnn_mape_pct for r in rows]
        assert rm == sorted(rm)
        assert sd == sorted(sd)

    def test_row_metadata(self, rows):
        assert all(isinstance(r, AmplificationRow) for r in rows)
        assert [r.rr_mape_pct for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(r.trials == 200 for r in rows)
        assert all(r.seed == 7 for r in rows)

    def test_reproducible(self):
        base = default_base_trace()
        a = amplification_table(base, (2.0,), trials=50, rng_seed=11)
        b = amplification_table(base, (2.0,), trials=50, rng_seed=11)
        assert a == b

    def test_too_few_windows(self):
        short = RrSeries(np.full(30, 900.0))
        with pytest.raises(ConfigError, match='window_s=60.0 cuts the base trace into 0 windows'):
            amplification_table(short, (1.0,), trials=10)

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            amplification_table(default_base_trace(), (1.0,), trials=0)
