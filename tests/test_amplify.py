"""Error injection and the amplification table."""

import numpy as np
import pytest

from ppghrv import amplify
from ppghrv.amplify import (
    DEFAULT_MAPE_LEVELS_PCT,
    AmplificationRow,
    _eps_amplitude,
    _perturb_rows,
    _window_slices,
    amplification_table,
    default_base_trace,
    inject_rr_error,
)
from ppghrv.errors import ConfigError
from ppghrv.metrics import RrSeries, mape, rmssd, sdnn
from ppghrv.synth import derived_rngs, derived_seeds


def oracle_table(base, mape_levels_pct, trials, window_s, rng_seed):
    """The table one trial at a time: perturb, then rmssd/sdnn per window."""
    slices = _window_slices(base, window_s)
    base_rmssd = np.array([rmssd(RrSeries(base.intervals_ms[s])) for s in slices])
    base_sdnn = np.array([sdnn(RrSeries(base.intervals_ms[s])) for s in slices])
    rows = []
    for li, level in enumerate(mape_levels_pct):
        rmssd_sum = 0.0
        sdnn_sum = 0.0
        for trial in range(trials):
            seed = int(
                np.random.SeedSequence((rng_seed, li, trial)).generate_state(1)[0]
            )
            pert = inject_rr_error(base, level, seed)
            r_est = np.array([rmssd(RrSeries(pert.intervals_ms[s])) for s in slices])
            s_est = np.array([sdnn(RrSeries(pert.intervals_ms[s])) for s in slices])
            rmssd_sum += mape(r_est, base_rmssd)
            sdnn_sum += mape(s_est, base_sdnn)
        rows.append(
            AmplificationRow(
                rr_mape_pct=float(level),
                rmssd_mape_pct=rmssd_sum / trials,
                sdnn_mape_pct=sdnn_sum / trials,
                trials=trials,
                seed=rng_seed,
            )
        )
    return rows


class TestInjectRrError:
    def test_zero_target_is_bit_identical(self):
        rr = default_base_trace(0)
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
        rr = default_base_trace(0)
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

    @pytest.mark.parametrize("target, message", [
        (float("nan"), "target_mape_pct must be >= 0, got nan"),
        (float("-inf"), "target_mape_pct must be >= 0, got -inf"),
        (float("inf"), "needs eps amplitude inf >= 1"),
    ])
    def test_non_finite_targets(self, target, message):
        with pytest.raises(ConfigError, match=message):
            inject_rr_error(RrSeries(np.full(10, 800.0)), target, rng_seed=0)

    def test_length_preserved(self):
        rr = default_base_trace(0)
        assert len(inject_rr_error(rr, 4.0, rng_seed=9)) == len(rr)

    def test_negative_seed_is_config_error(self):
        # numpy's default_rng would raise a bare ValueError for it
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            inject_rr_error(RrSeries(np.full(10, 800.0)), 1.0, rng_seed=-1)


_AMPLITUDES = sorted({0.0, 1e-12, 0.98, *map(_eps_amplitude, DEFAULT_MAPE_LEVELS_PCT)})


class TestDrawIdentity:
    """_perturb_rows fills each row from its generator and applies
    1 + (-a + 2a * u) in place; that must be 1.0 + rng.uniform(-a, a, n),
    bit for bit, or the table would quietly change with numpy's formula."""

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("a", _AMPLITUDES)
    def test_rows_equal_one_plus_numpys_uniform(self, a, n):
        x = np.random.default_rng(n).uniform(300.0, 1500.0, n)
        for prefix in [(0, 0), (7, 3), (2**40, 5)]:
            seeds = derived_seeds(prefix, range(4))
            out = np.empty((len(seeds), n))
            _perturb_rows(x, a, derived_rngs((), seeds), out)
            want = np.array(
                [x * (1.0 + np.random.default_rng(s).uniform(-a, a, n)) for s in seeds]
            )
            np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_level_zero_factors_are_exactly_one(self, n):
        out = np.empty((3, n))
        _perturb_rows(np.ones(n), _eps_amplitude(0.0), derived_rngs((1,), range(3)), out)
        assert (out == 1.0).all()


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
        default_base_trace(0),
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

    def test_negative_seed_is_config_error(self):
        # numpy's SeedSequence would raise a bare ValueError for it
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            amplification_table(default_base_trace(0), trials=1, rng_seed=-1)

    def test_reproducible(self):
        base = default_base_trace(0)
        a = amplification_table(base, (2.0,), trials=50, rng_seed=11)
        b = amplification_table(base, (2.0,), trials=50, rng_seed=11)
        assert a == b

    def test_too_few_windows(self):
        short = RrSeries(np.full(30, 900.0))
        with pytest.raises(ConfigError, match='window_s=60.0 cuts the base trace into 0 windows'):
            amplification_table(short, (1.0,), trials=10)

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            amplification_table(default_base_trace(0), (1.0,), trials=0)

    @pytest.mark.parametrize("level", [float("nan"), 50.0])
    def test_bad_last_level_fails_before_any_trial(self, monkeypatch, level):
        drawn = []

        def spy(x, a, rngs, out):
            drawn.append(a)
            out[:] = x

        monkeypatch.setattr(amplify, "_perturb_rows", spy)
        with pytest.raises(ConfigError, match="target"):
            amplification_table(default_base_trace(0), (1.0, 2.0, level), trials=3)
        assert drawn == []


def _uniform_base(n, seed=5):
    return RrSeries(np.random.default_rng(seed).uniform(400.0, 1200.0, size=n))


class TestBatchedTableMatchesLoop:
    """Rows equal the one-trial-at-a-time loop exactly, not approximately."""

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_default_base(self, trials):
        base = default_base_trace(3)
        levels = (0.0, 1.0, 4.5)
        assert amplification_table(base, levels, trials, 60.0, 9) == oracle_table(
            base, levels, trials, 60.0, 9
        )

    @pytest.mark.parametrize("trials", [6, 7, 15])
    def test_trials_over_several_chunks(self, trials):
        # 1 MiB holds 6 trials of this base, so 7 and 15 take a partial last chunk
        base = _uniform_base(20_000)
        assert amplify.TRIAL_CHUNK_BYTES // base.intervals_ms.nbytes == 6
        levels = (0.0, 3.0)
        assert amplification_table(base, levels, trials, 600.0, 2) == oracle_table(
            base, levels, trials, 600.0, 2
        )

    @pytest.mark.parametrize("chunk", [1, 4, 30])
    def test_chunk_size_does_not_change_rows(self, monkeypatch, chunk):
        base = default_base_trace(1)
        monkeypatch.setattr(amplify, "TRIAL_CHUNK_BYTES", chunk * base.intervals_ms.nbytes)
        levels = (0.0, 2.0, 5.0)
        assert amplification_table(base, levels, 13, 60.0, 4) == oracle_table(
            base, levels, 13, 60.0, 4
        )

    @pytest.mark.parametrize("window_s, lo, hi", [
        (3.0, 2, 7),        # fewer than 8 intervals per window
        (40.0, 8, 128),     # numpy's 8-way unrolled sum
        (200.0, 129, None),  # the pairwise split
    ])
    def test_window_lengths_across_pairwise_routes(self, window_s, lo, hi):
        base = _uniform_base(3000)
        sizes = [s.stop - s.start for s in _window_slices(base, window_s)]
        assert min(sizes) >= lo and (hi is None or max(sizes) <= hi)
        levels = (0.0, 1.5, 7.0)
        assert amplification_table(base, levels, 9, window_s, 4) == oracle_table(
            base, levels, 9, window_s, 4
        )
