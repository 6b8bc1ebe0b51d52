import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppghrv.errors import ConfigError, HrvError
from ppghrv.models.knn import (
    DISTANCES, EUCLIDEAN, MANHATTAN, MAX_K, MIN_K, PAA_WIDTH, KnnRegressor, train_knn,
)
from helpers import make_ds


class TestKnnOracle:
    def test_hand_distance_table(self):
        # query 0: nearest are x=0 (d=0) and x=1; mean of labels 0 and 10
        ds = make_ds([0.0, 1.0, 100.0], [0.0, 10.0, 50.0])
        model = train_knn(ds, k=2, distance="euclidean")
        assert model.predict([0.0]) == 5.0

    def test_manhattan_equals_euclidean_in_1d(self):
        rng = np.random.default_rng(0)
        ds = make_ds(rng.normal(size=40), rng.uniform(10, 30, size=40))
        a = train_knn(ds, k=5, distance="manhattan")
        b = train_knn(ds, k=5, distance="euclidean")
        Q = rng.normal(size=(20, 1))
        np.testing.assert_array_equal(a.predict_batch(Q), b.predict_batch(Q))

    def test_k_equals_train_size_gives_global_mean(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(5, 15, size=12)
        ds = make_ds(rng.normal(size=(12, 3)), y)
        model = train_knn(ds, k=12, distance="euclidean")
        for q in rng.normal(size=(5, 3)):
            assert model.predict(q) == pytest.approx(float(y.mean()), rel=1e-12)

    def test_distance_ties_break_to_lower_index(self):
        # indices 1 and 2 hold identical features, so their distances tie
        # exactly; k=2 must take the earlier one
        ds = make_ds([0.0, 1.0, 1.0, 50.0], [100.0, 200.0, 900.0, 7.0])
        model = train_knn(ds, k=2, distance="euclidean")
        assert model.predict([0.0]) == pytest.approx((100.0 + 200.0) / 2.0)

    def test_scale_invariance_from_standardization(self):
        # blowing one feature up by 1000x must not change the neighbour sets
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.uniform(1, 9, size=30)
        scaled = X.copy()
        scaled[:, 1] *= 1000.0
        a = train_knn(make_ds(X, y), k=4, distance="euclidean")
        b = train_knn(make_ds(scaled, y), k=4, distance="euclidean")
        Q = rng.normal(size=(10, 2))
        Qs = Q.copy()
        Qs[:, 1] *= 1000.0
        np.testing.assert_allclose(a.predict_batch(Q), b.predict_batch(Qs), rtol=1e-9)


class TestKnnErrors:
    def test_k_too_large(self):
        ds = make_ds(np.arange(5.0), np.arange(5.0) + 1.0)
        with pytest.raises(HrvError, match='k=6 exceeds the 5 training samples'):
            train_knn(ds, k=6, distance="euclidean")

    def test_k_bounds(self):
        ds = make_ds(np.arange(40.0), np.arange(40.0) + 1.0)
        with pytest.raises(ConfigError):
            train_knn(ds, k=1, distance="euclidean")
        with pytest.raises(ConfigError):
            train_knn(ds, k=31, distance="euclidean")

    def test_unknown_distance(self):
        ds = make_ds(np.arange(5.0), np.arange(5.0) + 1.0)
        with pytest.raises(ConfigError):
            train_knn(ds, k=2, distance="chebyshev")

    def test_feature_length_checked(self):
        ds = make_ds(np.arange(10.0).reshape(5, 2), np.arange(5.0) + 1.0)
        model = train_knn(ds, k=2, distance="manhattan")
        with pytest.raises(HrvError, match='model expects 2 features'):
            model.predict([1.0, 2.0, 3.0])


def oracle_neighbours(model, Q):
    """The full scan the filtered search must reproduce: the exact distance
    to every stored row, then a stable sort, per query."""
    Q = np.asarray(Q, dtype=np.float64)
    q = (Q - model.mu) / model.sigma
    out = np.empty((Q.shape[0], model.k), dtype=np.intp)
    for r in range(q.shape[0]):
        diff = model.X - q[r]
        if model.distance == "manhattan":
            d = np.abs(diff).sum(axis=1)
        else:
            d = np.sqrt((diff * diff).sum(axis=1))
        out[r] = np.argsort(d, kind="stable")[: model.k]
    return out


def oracle_predict(model, Q):
    """The full scan's prediction: np.mean of each query's k labels."""
    return np.array([float(np.mean(model.y[near])) for near in oracle_neighbours(model, Q)])


def _messages(run):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = run()
    return out, {str(w.message) for w in seen}


def assert_same_as_oracle(model, Q):
    """Equal bytes from batch and single predicts, and no warning the full
    scan does not give too."""
    want, allowed = _messages(lambda: oracle_predict(model, Q).tobytes())
    batch, batch_warned = _messages(lambda: model.predict_batch(Q).tobytes())
    singles, singles_warned = _messages(
        lambda: np.array([model.predict(q) for q in Q]).tobytes()
    )
    assert batch == want
    assert singles == want
    assert batch_warned | singles_warned <= allowed


def _ties(rng):
    X = rng.integers(0, 3, size=(60, 4)).astype(float)
    return X, rng.integers(0, 3, size=(25, 4)).astype(float)


def _duplicates(rng):
    X = np.repeat(rng.normal(size=(12, 5)), 4, axis=0)
    return X, np.vstack([X[::7], rng.normal(size=(10, 5))])


def _stored_rows(rng):
    X = rng.normal(size=(50, 8))
    return X, X.copy()


def _scaled(scale):
    def make(rng):
        X = rng.normal(size=(70, 6)) * scale
        return X, np.vstack([X[:5], rng.normal(size=(15, 6)) * scale])
    return make


def _one_feature(rng):
    X = rng.integers(0, 10, size=40).astype(float)[:, None]
    return X, np.vstack([X[:6], rng.uniform(-1, 11, size=(15, 1))])


def _non_finite(rng):
    X = rng.normal(size=(40, 3))
    Q = rng.normal(size=(9, 3))
    Q[0, 0] = np.nan
    Q[1, 1] = np.inf
    Q[2, :] = -np.inf
    Q[3, 2] = 1e200
    Q[4, :] = 1e300
    Q[5, 0] = 1e38   # finite, but past float32 once standardised
    Q[6, :] = [np.inf, -np.inf, 0.0]
    return X, Q


def _overflowing_bounds(rng):
    # features with a std near 2, so these queries standardise to finite
    # values near float64's maximum
    X = rng.integers(-3, 4, size=(40, 2 * PAA_WIDTH + 1)).astype(float)
    Q = rng.integers(-3, 4, size=(6, X.shape[1])).astype(float)
    Q[0] = 1.7e308                          # every block sum overflows
    Q[1, ::2], Q[1, 1::2] = 1.7e308, -1.7e308  # the block sums cancel, the L1 norm overflows
    Q[2, 0] = 1.7e308                       # finite bounds, every distance ties
    Q[3, :PAA_WIDTH] = -1.7e308
    return X, Q


def _walks(rng, rows, d):
    """Heart-rate-like rows: a level plus a random walk along the features, so
    neighbouring features move together and block sums bound tightly."""
    return rng.normal(70, 8, size=(rows, 1)) + np.cumsum(rng.normal(size=(rows, d)), axis=1)


def _gaussian(rng):
    return rng.normal(size=(300, 10)), rng.normal(size=(20, 10))


def _random_walks(d, m=200):
    def make(rng):
        X = _walks(rng, m, d)
        return X, np.vstack([X[:5], _walks(rng, 15, d)])
    return make


DATASETS = {
    "integer_ties": _ties,
    "duplicated_rows": _duplicates,
    "queries_equal_stored_rows": _stored_rows,
    "scale_1e15": _scaled(1e15),
    "scale_1e-20": _scaled(1e-20),
    "one_feature": _one_feature,
    "non_finite_queries": _non_finite,
    "overflowing_bounds": _overflowing_bounds,
    # a last block of one column, as run_matrix's n = 60 and n = 300 rows have
    "random_walks_61": _random_walks(61),
    "random_walks_301": _random_walks(301),
    "one_block_short": _random_walks(PAA_WIDTH - 1, m=60),
    "one_block": _random_walks(PAA_WIDTH, m=60),
    "one_block_and_a_column": _random_walks(PAA_WIDTH + 1, m=60),
}


class TestSearchMatchesFullScan:
    """The filtered search returns the full scan's predictions bit for bit."""

    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("k", [MIN_K, 5, MAX_K])
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_dataset(self, name, k, distance):
        rng = np.random.default_rng(7)
        X, Q = DATASETS[name](rng)
        y = rng.integers(0, 1000, size=X.shape[0]).astype(float)
        assert_same_as_oracle(train_knn(make_ds(X, y), k=k, distance=distance), Q)

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_k_equals_stored_rows(self, distance):
        rng = np.random.default_rng(8)
        X, Q = _ties(rng)
        X = X[:MAX_K]
        y = rng.uniform(0, 100, size=MAX_K)
        assert_same_as_oracle(train_knn(make_ds(X, y), k=MAX_K, distance=distance), Q)

    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("scale", [1e-30, 1e-42, 1e30])
    def test_hand_built_rows_whose_float32_products_underflow_or_overflow(self, scale, distance):
        # standardisation keeps trained rows near 1, but a model file may hold
        # any finite float32 rows; products of these underflow or overflow
        rng = np.random.default_rng(9)
        X = (rng.integers(-3, 4, size=(40, 3)) * scale).astype(np.float32)
        model = KnnRegressor(
            X, rng.uniform(0, 9, size=40), np.zeros(3, np.float32), np.ones(3, np.float32),
            3, distance,
        )
        Q = np.vstack([X[:5], rng.integers(-3, 4, size=(10, 3)) * scale]).astype(np.float64)
        assert_same_as_oracle(model, Q)

    @pytest.mark.parametrize(
        "distance, make, limit",
        [
            pytest.param(EUCLIDEAN, _gaussian, 10, id="euclidean"),
            pytest.param(EUCLIDEAN, _random_walks(61, m=300), 10, id="euclidean-random_walks_61"),
            # the block sums bound the 300 x 10 Gaussian rows too loosely to
            # prune them, so Manhattan runs on heart-rate-like rows only
            pytest.param(MANHATTAN, _random_walks(61, m=300), 20, id="manhattan"),
        ],
    )
    def test_exact_distances_only_for_candidates(self, distance, make, limit, monkeypatch):
        # the filter has to filter: no finite query measures every stored row,
        # only a few (Manhattan the k rows of smallest bound, then its
        # candidates; Euclidean its candidates)
        rng = np.random.default_rng(10)
        X, Q = make(rng)
        model = train_knn(make_ds(X, rng.uniform(size=300)), 5, distance)
        measured = []
        full_scan = KnnRegressor._distances

        def spy(self, X, q):
            measured.append(X.shape[0])
            return full_scan(self, X, q)

        monkeypatch.setattr(KnnRegressor, "_distances", spy)
        model.predict_batch(Q)
        calls = 2 if distance == MANHATTAN else 1
        assert len(measured) == calls * len(Q)
        assert max(measured) <= limit  # of 300 stored rows

    def test_manhattan_batch_memory_below_one_float64_matrix(self):
        # a full scan made (m, d) float64 temporaries for every query; the
        # filter's arrays for 300 finite queries stay below one of them
        rng = np.random.default_rng(11)
        X = _walks(rng, 1000, 301)
        model = train_knn(make_ds(X, rng.uniform(size=1000)), 27, MANHATTAN)
        Q = _walks(rng, 300, 301)
        tracemalloc.start()
        try:
            model.predict_batch(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.size * 8

    def test_euclidean_batch_memory_below_two_and_a_quarter_float64_matrices(self):
        # the bounds of one query block are three (block, m) float64 arrays,
        # 1.5 times an (m, d) one; two blocks' alive at once would pass 2.25
        rng = np.random.default_rng(11)
        X = _walks(rng, 1000, 301)
        model = train_knn(make_ds(X, rng.uniform(size=1000)), 27, EUCLIDEAN)
        Q = _walks(rng, 300, 301)
        tracemalloc.start()
        try:
            model.predict_batch(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * X.size * 8

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_property(self, data):
        m = data.draw(st.integers(MIN_K, 40))
        d = data.draw(st.integers(1, 3 * PAA_WIDTH + 1))
        k = data.draw(st.integers(MIN_K, min(m, MAX_K)))
        scale = 10.0 ** data.draw(st.integers(-25, 25))
        grid = st.integers(-2, 2).map(float)  # few values: many ties and duplicates
        X = np.array(data.draw(st.lists(grid, min_size=m * d, max_size=m * d))).reshape(m, d)
        X[: m // 2] += data.draw(st.floats(-1, 1))
        values = st.one_of(grid, st.floats(-4, 4), st.sampled_from([np.nan, np.inf, -np.inf, 1e300]))
        Q = np.array(data.draw(st.lists(values, min_size=3 * d, max_size=3 * d))).reshape(3, d)
        rng = np.random.default_rng(m)
        model = train_knn(
            make_ds(X * scale, rng.integers(0, 50, size=m).astype(float)),
            k=k,
            distance=data.draw(st.sampled_from(DISTANCES)),
        )
        with np.errstate(over="ignore"):
            Q = np.vstack([X[:2], Q]) * scale
        assert_same_as_oracle(model, Q)


class TestOneRankingServesEveryK:
    """neighbours() ranks each query's k nearest rows; the search scores
    every smaller k from the first columns of one ranking."""

    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("name", ["integer_ties", "overflowing_bounds", "non_finite_queries"])
    def test_first_columns_are_the_smaller_k_ranking(self, name, distance):
        rng = np.random.default_rng(12)
        X, Q = DATASETS[name](rng)
        ds = make_ds(X, rng.uniform(size=X.shape[0]))
        top = train_knn(ds, MAX_K, distance)
        # overflowing queries warn in the full scan too
        with np.errstate(all="ignore"):
            ranked = top.neighbours(Q)
            np.testing.assert_array_equal(ranked, oracle_neighbours(top, Q))
            for k in range(MIN_K, MAX_K + 1):
                np.testing.assert_array_equal(
                    ranked[:, :k], train_knn(ds, k, distance).neighbours(Q), err_msg=f"k={k}"
                )

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_row_mean_is_the_per_row_mean(self, distance):
        # labels of mixed magnitudes, so a different summation order would
        # show in the last bits
        rng = np.random.default_rng(13)
        X = _walks(rng, 200, 2 * PAA_WIDTH + 1)
        y = rng.normal(size=200) * 10.0 ** rng.integers(-3, 6, size=200)
        Q = _walks(rng, 40, X.shape[1])
        for k in range(MIN_K, MAX_K + 1):
            model = train_knn(make_ds(X, y), k, distance)
            want = np.array([np.mean(model.y[row]) for row in model.neighbours(Q)])
            assert model.predict_batch(Q).tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("scale", [1e-30, 1e-15, 1.0, 1e15, 1e30])
    def test_batched_manhattan_bound_is_below_every_exact_distance(self, scale):
        # hand-built rows keep their scale (training would standardise it
        # away); queries on and next to stored rows have the tightest bounds
        rng = np.random.default_rng(14)
        d = 2 * PAA_WIDTH + 3
        X = (_walks(rng, 80, d) * scale).astype(np.float32)
        model = KnnRegressor(
            X, rng.uniform(size=80), np.zeros(d, np.float32), np.ones(d, np.float32),
            MIN_K, MANHATTAN,
        )
        near = X[:10].astype(np.float64)
        Q = np.vstack([near, near * (1 + 1e-7), _walks(rng, 10, d) * scale])
        lo, T = model._manhattan_bounds(Q)
        exact = np.array([model._distances(model.X, q) for q in Q])
        assert np.isfinite(lo).all() and np.isfinite(T).all()
        assert (lo <= exact).all()


class TestEachDistanceGivesLoAndT:
    """Both distances bound a block of queries as (lo, T), and every row of
    a query's exact k nearest is a candidate: lo_j <= T, or T is nan and
    every row is one."""

    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("k", [MIN_K, 5, MAX_K])
    @pytest.mark.parametrize(
        "name", ["random_walks_61", "integer_ties", "overflowing_bounds", "non_finite_queries"]
    )
    def test_exact_k_nearest_are_candidates(self, name, k, distance):
        rng = np.random.default_rng(15)
        X, Q = DATASETS[name](rng)
        model = train_knn(make_ds(X, rng.uniform(size=X.shape[0])), k, distance)
        q = (Q - model.mu) / model.sigma
        bounds = model._manhattan_bounds if distance == MANHATTAN else model._bounds
        with np.errstate(all="ignore"):
            lo, T = bounds(q)
            nearest = oracle_neighbours(model, Q)
        assert lo.shape == (len(Q), len(X)) and T.shape == (len(Q),)
        for r, (lo_q, t, near) in enumerate(zip(lo, T, nearest)):
            assert np.isnan(t) or (lo_q[near] <= t).all(), r
        # a query that is not finite is scanned in full; finite walks never are
        assert np.isnan(T[~np.isfinite(q).all(axis=1)]).all()
        if name == "random_walks_61":
            assert not np.isnan(T).any()

    def test_one_overflowing_product_scans_in_full(self):
        # a model file may hold any finite float32 rows; the float32 product
        # of this query with row 0 overflows to +inf, so that row's bounds
        # are -inf while every other row's are finite
        X = np.array([[3e38, 3e38], [0, 0], [1, 1], [2, 2], [5, 5]], dtype=np.float32)
        model = KnnRegressor(
            X, np.arange(5.0), np.zeros(2, np.float32), np.ones(2, np.float32), 2, EUCLIDEAN
        )
        Q = np.array([[2.0, 2.0]])
        with np.errstate(all="ignore"):
            lo, T = model._bounds(Q)
        assert lo[0, 0] == -np.inf and np.isfinite(lo[0, 1:]).all()
        assert np.isnan(T).all()
        assert_same_as_oracle(model, Q)
