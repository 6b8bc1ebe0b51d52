import numpy as np
import pytest

from ppghrv.errors import ConfigError, HrvError
from ppghrv.models.forest import RandomForest, train_rf
from ppghrv.models.tree import LEAF, DecisionTree, TreeNodes, train_dt
from helpers import make_ds
from test_tree import assert_same_nodes, oracle_grow


@pytest.fixture(scope="module")
def noisy_ds():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 4))
    y = X[:, 0] * 3.0 + rng.normal(scale=0.2, size=120) + 20.0
    return make_ds(X, y)


class TestForest:
    def test_bootstrap_disabled_equals_single_tree(self, noisy_ds):
        # a forest of two copies of one tree averages to that tree
        tree = train_dt(noisy_ds, max_depth=4)
        forest = RandomForest((tree.nodes, tree.nodes), noisy_ds.n_features)
        Q = noisy_ds.features[:30]
        np.testing.assert_array_equal(forest.predict_batch(Q), tree.predict_batch(Q))

    def test_one_tree_forest_predicts_the_tree_bits(self, noisy_ds):
        # a stump whose left leaf is -0.0: a sum started at 0 would give +0.0
        stump = TreeNodes(
            feature=np.array([0, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.0, 0.0, 0.0], dtype=np.float32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -0.0, 0.1]),
        )
        grown = train_dt(noisy_ds, max_depth=5).nodes
        rng = np.random.default_rng(11)
        for nodes, d in [(stump, 1), (grown, noisy_ds.n_features)]:
            Q = rng.normal(size=(40, d))
            tree = DecisionTree((nodes,), d).predict_batch(Q)
            forest = RandomForest((nodes,), d).predict_batch(Q)
            assert tree.tobytes() == forest.tobytes()
        for model in (DecisionTree((stump,), 1), RandomForest((stump,), 1),
                      RandomForest((stump, stump), 1)):
            assert np.signbit(model.predict([-1.0]))

    def test_trees_match_the_oracle_on_their_bootstrap_rows(self, noisy_ds):
        forest = train_rf(noisy_ds, trees=3, max_depth=6, seed=9)
        X, y = noisy_ds.features, noisy_ds.labels
        for t, nodes in enumerate(forest.trees):
            rng = np.random.default_rng(np.random.SeedSequence((9, t)))
            idx = rng.integers(0, y.size, size=y.size)
            assert_same_nodes(nodes, oracle_grow(X[idx], y[idx], 6), t)

    def test_constant_labels(self):
        ds = make_ds(np.arange(20.0), np.full(20, 5.5))
        forest = train_rf(ds, trees=3, max_depth=5, seed=1)
        assert forest.predict([3.0]) == 5.5

    def test_trees_differ_under_bootstrap(self, noisy_ds):
        forest = train_rf(noisy_ds, trees=4, max_depth=4, seed=2)
        thresholds = [tuple(t.threshold.tolist()) for t in forest.trees]
        assert len(set(thresholds)) > 1

    def test_deterministic_given_seed(self, noisy_ds):
        a = train_rf(noisy_ds, trees=5, max_depth=4, seed=3)
        b = train_rf(noisy_ds, trees=5, max_depth=4, seed=3)
        for ta, tb in zip(a.trees, b.trees):
            np.testing.assert_array_equal(ta.threshold, tb.threshold)
            np.testing.assert_array_equal(ta.value, tb.value)
        c = train_rf(noisy_ds, trees=5, max_depth=4, seed=4)
        assert any(
            not np.array_equal(ta.threshold, tc.threshold)
            for ta, tc in zip(a.trees, c.trees)
        )

    def test_predictions_within_label_range(self, noisy_ds):
        forest = train_rf(noisy_ds, trees=6, max_depth=6, seed=5)
        rng = np.random.default_rng(6)
        preds = forest.predict_batch(rng.normal(size=(100, 4)))
        assert preds.min() >= noisy_ds.labels.min()
        assert preds.max() <= noisy_ds.labels.max()

    def test_tree_count_bounds(self, noisy_ds):
        with pytest.raises(ConfigError):
            train_rf(noisy_ds, trees=1, max_depth=4, seed=0)
        with pytest.raises(ConfigError):
            train_rf(noisy_ds, trees=129, max_depth=4, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(HrvError, match='a dataset needs at least one sample'):
            train_rf(make_ds(np.empty((0, 2)), np.empty(0)), trees=2, max_depth=3, seed=0)
