import numpy as np
import pytest

from ppghrv.data import Dataset
from ppghrv.errors import ConfigError, FeatureLengthMismatch, KTooLarge
from ppghrv.models import train_knn


def make_ds(X, y):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64)
    return Dataset(X, y, np.arange(y.size, dtype=np.float64))


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
        with pytest.raises(KTooLarge):
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
        with pytest.raises(FeatureLengthMismatch):
            model.predict([1.0, 2.0, 3.0])
