"""Metric contracts, checked against independent brute-force implementations.

The oracles below are written loop-by-loop on purpose: they share no code
with the package and serve as the reference for the vectorized versions.
"""

import math

import numpy as np
import pytest

from ppghrv.errors import HrvError
from ppghrv.metrics import (
    HrvMetricKind,
    RrSeries,
    mape,
    mape_rows,
    rmssd,
    rmssd_rows,
    rough_hrv,
    sdnn,
    sdnn_rows,
)


def oracle_sdnn(xs):
    m = sum(xs) / len(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def oracle_rmssd(xs):
    diffs = [xs[i + 1] - xs[i] for i in range(len(xs) - 1)]
    return math.sqrt(sum(d * d for d in diffs) / len(diffs))


def oracle_mape(est, tru):
    return 100.0 * sum(abs(e - t) / abs(t) for e, t in zip(est, tru)) / len(est)


def random_rr(rng, n):
    return 250.0 + rng.uniform(0.0, 1500.0, size=n)


class TestSdnn:
    def test_two_intervals(self):
        assert sdnn(RrSeries(np.array([800.0, 1000.0]))) == 100.0

    def test_population_divisor(self):
        # [1,2,3,4]: mean 2.5, squared deviations sum 5, divide by N=4
        assert sdnn(RrSeries(np.array([1.0, 2.0, 3.0, 4.0]))) == pytest.approx(
            1.1180339887498949, rel=1e-15
        )

    def test_too_few(self):
        with pytest.raises(HrvError, match='sdnn needs at least 2 intervals, got 1'):
            sdnn(RrSeries(np.array([800.0])))

    def test_translation_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            xs = random_rr(rng, int(rng.integers(2, 40)))
            shifted = xs + rng.uniform(1.0, 200.0)
            assert sdnn(RrSeries(shifted)) == pytest.approx(
                sdnn(RrSeries(xs)), rel=1e-9, abs=1e-9
            )

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            xs = random_rr(rng, int(rng.integers(2, 120)))
            assert sdnn(RrSeries(xs)) == pytest.approx(
                oracle_sdnn(list(xs)), rel=1e-12
            )


class TestRmssd:
    def test_two_intervals(self):
        assert rmssd(RrSeries(np.array([1000.0, 900.0]))) == 100.0

    def test_unit_steps(self):
        # three successive differences of exactly 1 each
        assert rmssd(RrSeries(np.array([1.0, 2.0, 3.0, 4.0]))) == 1.0

    def test_too_few(self):
        with pytest.raises(HrvError, match='rmssd needs at least 2 intervals, got 1'):
            rmssd(RrSeries(np.array([1000.0])))

    def test_order_sensitive(self):
        # unlike sdnn, rmssd depends on the ordering of the intervals
        a = np.array([800.0, 900.0, 1000.0, 900.0])
        b = np.array([800.0, 1000.0, 900.0, 900.0])
        assert sdnn(RrSeries(a)) == sdnn(RrSeries(b))
        assert rmssd(RrSeries(a)) != rmssd(RrSeries(b))

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            xs = random_rr(rng, int(rng.integers(2, 120)))
            assert rmssd(RrSeries(xs)) == pytest.approx(
                oracle_rmssd(list(xs)), rel=1e-12
            )


class TestRoughHrv:
    def test_sdnn_from_two_hrs(self):
        # 60 bpm -> 1000 ms, 75 bpm -> 800 ms; population std of the pair is 100
        out = rough_hrv(np.array([60.0, 75.0]), HrvMetricKind.SDNN)
        assert out == pytest.approx(100.0, rel=1e-12)

    def test_rmssd_from_two_hrs(self):
        out = rough_hrv(np.array([60.0, 75.0]), HrvMetricKind.RMSSD)
        assert out == pytest.approx(200.0, rel=1e-12)

    def test_constant_hr_is_zero(self):
        # summation rounding leaves ~1e-13 of residue, nothing more
        out = rough_hrv(np.full(30, 72.0), HrvMetricKind.SDNN)
        assert out == pytest.approx(0.0, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(HrvError, match='rough_hrv needs at least 2 HR values, got 1'):
            rough_hrv(np.array([60.0]), HrvMetricKind.SDNN)

    def test_matches_pseudo_interval_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            hr = rng.uniform(40.0, 180.0, size=int(rng.integers(2, 60)))
            pseudo = [60000.0 / h for h in hr]
            got = rough_hrv(hr, HrvMetricKind.RMSSD)
            assert got == pytest.approx(oracle_rmssd(pseudo), rel=1e-12)


class TestMape:
    def test_single_pair(self):
        assert mape(np.array([110.0]), np.array([100.0])) == pytest.approx(10.0)

    def test_exact_zero_on_equal(self):
        xs = np.array([3.0, 4.0, 5.0])
        assert mape(xs, xs) == 0.0

    def test_zero_truth(self):
        with pytest.raises(HrvError, match='mape is undefined for zero truth values'):
            mape(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(HrvError, match='mape needs equal non-empty lengths, got 2 and 1'):
            mape(np.array([1.0, 2.0]), np.array([1.0]))

    def test_empty(self):
        with pytest.raises(HrvError, match='mape needs equal non-empty lengths, got 0 and 0'):
            mape(np.array([]), np.array([]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_estimate_that_is_not_finite_names_its_row(self, value):
        est = np.full(5, 70.0)
        est[[2, 4]] = value
        with pytest.raises(HrvError, match=rf"^the estimate for row 2 is {value}, not a finite"):
            mape(est, np.full(5, 70.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_score_that_is_not_finite_is_rejected(self):
        # finite estimates whose relative errors overflow
        with pytest.raises(HrvError, match="^MAPE is inf, not a finite number$"):
            mape(np.array([1.7e308, -1.7e308]), np.array([1e-300, 70.0]))

    def test_rejects_2d(self):
        with pytest.raises(HrvError, match=r"^estimates must be 1-D, got shape \(2, 2\)$"):
            mape(np.ones((2, 2)), np.ones(2))
        with pytest.raises(HrvError, match=r"^truths must be 1-D, got shape \(\)$"):
            mape(np.ones(2), 1.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 50))
            tru = rng.uniform(10.0, 100.0, size=n)
            est = tru * rng.uniform(0.5, 1.5, size=n)
            c = rng.uniform(0.1, 10.0)
            assert mape(c * est, c * tru) == pytest.approx(
                mape(est, tru), rel=1e-12
            )

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            tru = rng.uniform(5.0, 200.0, size=n)
            est = tru + rng.normal(0.0, 20.0, size=n)
            assert mape(est, tru) == pytest.approx(
                oracle_mape(list(est), list(tru)), rel=1e-12
            )


class TestRrSeries:
    def test_rejects_nonpositive(self):
        with pytest.raises(HrvError, match=r"RR intervals must be > 0, not 0\.0"):
            RrSeries(np.array([800.0, 0.0]))
        with pytest.raises(HrvError, match=r"RR intervals must be > 0, not -10\.0"):
            RrSeries(np.array([800.0, -10.0]))

    def test_rejects_2d(self):
        with pytest.raises(HrvError, match=r"intervals_ms must be 1-D, got shape \(2, 2\)"):
            RrSeries(np.ones((2, 2)))

    def test_len(self):
        assert len(RrSeries(np.array([800.0, 900.0, 1000.0]))) == 3


# The 1-D metrics as they were written before the last-axis kernels: the
# kernels must give these values bit for bit, not just within rounding.
def direct_sdnn(x):
    return float(np.sqrt(np.mean((x - np.mean(x)) ** 2)))


def direct_rmssd(x):
    d = np.diff(x)
    return float(np.sqrt(np.sum(d * d) / d.size))


def direct_mape(est, tru):
    return float(np.mean(np.abs(est - tru) / np.abs(tru)) * 100.0)


# sizes around numpy's pairwise-sum routes: < 8, 8..128 and above 128
ROUTE_SIZES = [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 130, 257, 1000]


class TestLastAxisKernels:
    @pytest.mark.parametrize("n", ROUTE_SIZES)
    def test_one_d_functions_keep_their_values(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = random_rr(rng, n)
            est = x + rng.normal(0.0, 30.0, size=n)
            assert sdnn(RrSeries(x)) == direct_sdnn(x)
            assert rmssd(RrSeries(x)) == direct_rmssd(x)
            assert mape(est, x) == direct_mape(est, x)

    @pytest.mark.parametrize("n", ROUTE_SIZES)
    def test_rows_of_a_column_slice_equal_one_d_calls(self, n):
        # a window of a batch is a column slice: rows keep unit stride but
        # are not adjacent in memory
        rng = np.random.default_rng(100 + n)
        batch = random_rr(rng, (9, n + 13))
        x = batch[:, 5:5 + n]
        truths = random_rr(rng, n)
        r, s, m = rmssd_rows(x), sdnn_rows(x), mape_rows(x, truths)
        assert r.shape == s.shape == m.shape == (9,)
        for i in range(9):
            assert r[i] == direct_rmssd(x[i])
            assert s[i] == direct_sdnn(x[i])
            assert m[i] == direct_mape(x[i], truths)

    def test_mape_rows_rejects_zero_truth(self):
        with pytest.raises(HrvError, match="undefined for zero truth values"):
            mape_rows(np.ones((2, 3)), np.array([1.0, 0.0, 1.0]))
