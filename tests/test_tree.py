import numpy as np
import pytest

from ppghrv.errors import ConfigError, HrvError
from ppghrv.models import tree
from ppghrv.models.codec import load_model, save_model
from ppghrv.models.forest import RandomForest, train_rf
from ppghrv.models.tree import LEAF, MIN_SAMPLES_TO_SPLIT, DecisionTree, TreeNodes, train_dt
from helpers import make_ds


def oracle_depth1_split(X, y):
    """Try every midpoint of every feature; lowest SSE wins, ties to the
    lowest feature then the lowest threshold."""
    n, d = X.shape
    best = None
    for f in range(d):
        xs = np.sort(X[:, f])
        for a, b in zip(xs, xs[1:]):
            if a == b:
                continue
            thr = float(np.float32((a + b) / 2.0))
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            if left.size == 0 or right.size == 0:
                continue
            sse = float(
                np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
            )
            if best is None or sse < best[0]:
                best = (sse, f, thr)
    return best


def oracle_best_split(X, y):
    """The per-feature split search the block-vectorised _best_split replaced:
    one sort and one prefix-sum pass per feature, in feature order."""
    n, d = X.shape
    total_s1 = float(y.sum())
    total_s2 = float((y * y).sum())
    best_sse = np.inf
    best = None
    for f in range(d):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        if xs[0] == xs[-1]:
            continue
        c1 = np.cumsum(ys)[:-1]
        c2 = np.cumsum(ys * ys)[:-1]
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        sse = (c2 - c1 * c1 / nl) + (total_s2 - c2) - (total_s1 - c1) ** 2 / nr
        sse[xs[:-1] == xs[1:]] = np.inf
        while True:
            i = int(np.argmin(sse))
            if not np.isfinite(sse[i]) or sse[i] >= best_sse:
                break
            thr = np.float32((xs[i] + xs[i + 1]) / 2.0)
            n_left = int(np.searchsorted(xs, thr, side="right"))
            if 0 < n_left < n:
                best_sse = float(sse[i])
                best = (f, thr)
                break
            sse[i] = np.inf  # quantisation collapsed this boundary
    return best


def oracle_grow(X, y, max_depth):
    """The per-node CART grow the presorted one replaced: each node copies
    its rows out and searches them with oracle_best_split."""
    feature, threshold, right, value = [], [], [], []

    def leaf(node_y) -> int:
        idx = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        right.append(-1)
        value.append(float(np.mean(node_y)))
        return idx

    def rec(node_X, node_y, depth) -> int:
        if (
            depth >= max_depth
            or node_y.size < MIN_SAMPLES_TO_SPLIT
            or np.all(node_y == node_y[0])
        ):
            return leaf(node_y)
        split = oracle_best_split(node_X, node_y)
        if split is None:
            return leaf(node_y)
        f, thr = split
        idx = len(feature)
        feature.append(f)
        threshold.append(float(thr))
        right.append(-1)
        value.append(0.0)
        mask = node_X[:, f] <= np.float64(thr)
        assert rec(node_X[mask], node_y[mask], depth + 1) == idx + 1  # preorder
        right[idx] = rec(node_X[~mask], node_y[~mask], depth + 1)
        return idx

    rec(X, y, 0)
    return TreeNodes(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def assert_same_nodes(got, want, context=None):
    for field in ("feature", "threshold", "right", "value"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (field, context)


def parity_datasets():
    rng = np.random.default_rng(21)
    ints = rng.integers(0, 4, size=(64, 4)).astype(np.float64)
    constant = rng.normal(size=(48, 5))
    constant[:, [0, 3]] = 7.0
    # float32 midpoints that collapse onto an end of the column: 1 and the next
    # float64 up, 1 just below 1 (midpoint rounds to 1.0 >= the largest value),
    # and 1 + 2**-30 / 1 + 2**-29 (midpoint rounds to 1.0 < the smallest value)
    tiny = [
        [1.0, np.nextafter(1.0, 2.0)],
        [1.0 - 2.0**-31, 1.0 - 2.0**-30],
        [1.0 + 2.0**-30, 1.0 + 2.0**-29],
        [0.0, 1.0],
    ]
    pick = rng.integers(0, 2, size=(40, len(tiny)))
    collapse = np.array([[tiny[j][p] for j, p in enumerate(row)] for row in pick])
    return {
        "random": (rng.normal(size=(60, 5)), rng.normal(size=60)),
        # every column repeated, so equal SSEs across features are certain;
        # integer labels also tie SSEs across distinct features, and real
        # labels make the sums depend on the order of the tied rows
        "integer_ties": (np.hstack([ints, ints[:, ::-1]]),
                         rng.integers(0, 3, size=64).astype(np.float64)),
        "integer_ties_real_labels": (np.hstack([ints, ints[:, ::-1]]), rng.normal(size=64)),
        "constant_columns": (constant, rng.normal(size=48)),
        "float32_collapse": (collapse, rng.normal(size=40)),
    }


def bootstrap(X, y, seed):
    """Rows drawn with replacement, as train_rf draws them: duplicate rows
    tie in every column, so only a stable order keeps the sums the same."""
    idx = np.random.default_rng(seed).integers(0, y.size, size=y.size)
    return X[idx], y[idx]


class TestSplitSearchParity:
    """The presorted grow gives the trees the per-node grow gave, bit for
    bit, whether a node's columns fit in one block, in a few, or one per
    block (where each later block must be strictly lower)."""

    @pytest.mark.parametrize("name", list(parity_datasets()))
    def test_same_nodes_as_per_feature_loop(self, name, monkeypatch):
        X, y = parity_datasets()[name]
        n, d = X.shape
        for rows in ("all", "bootstrap"):
            Xr, yr = (X, y) if rows == "all" else bootstrap(X, y, seed=len(name))
            for depth in (1, 3, 20):
                expected = oracle_grow(Xr, yr, depth)
                for block_elements in (tree.SPLIT_BLOCK_ELEMENTS, 3 * n, 1):
                    monkeypatch.setattr(tree, "SPLIT_BLOCK_ELEMENTS", block_elements)
                    assert_same_nodes(tree._grow(Xr, yr, depth)[0], expected,
                                      (rows, depth, block_elements))

    def test_bootstrap_rows_of_a_larger_set(self):
        # ties from duplicated rows in nodes of a few hundred rows, which
        # span several column blocks
        rng = np.random.default_rng(22)
        X = np.round(rng.normal(size=(300, 12)), 1)
        y = X[:, 0] - X[:, 3] + rng.normal(scale=0.5, size=300)
        for seed in range(3):
            Xb, yb = bootstrap(X, y, seed)
            assert_same_nodes(tree._grow(Xb, yb, 8)[0], oracle_grow(Xb, yb, 8), seed)


class TestDepthTruncation:
    """train_dt_depths cuts every depth from one grow; each cut is the tree
    train_dt grows at that depth alone."""

    @pytest.mark.parametrize("name", ["random", "integer_ties_real_labels", "bootstrap"])
    def test_every_depth_matches_direct_growth(self, name):
        rng = np.random.default_rng(23)
        if name == "bootstrap":
            X, y = bootstrap(rng.normal(size=(400, 6)), rng.normal(size=400), seed=1)
        else:
            X, y = parity_datasets()[name]
        ds = make_ds(X, y)
        depths = list(range(1, tree.MAX_TREE_DEPTH + 1))
        cut = tree.train_dt_depths(ds, depths)
        assert len(cut) == len(depths)
        for d, model in zip(depths, cut):
            assert_same_nodes(model.nodes, train_dt(ds, d).nodes, d)
            assert model.n_features == ds.n_features

    def test_depths_in_draw_order_with_repeats(self):
        rng = np.random.default_rng(24)
        ds = make_ds(rng.normal(size=(200, 4)), rng.normal(size=200))
        depths = [5, 2, 7, 2]
        for d, model in zip(depths, tree.train_dt_depths(ds, depths)):
            assert_same_nodes(model.nodes, train_dt(ds, d).nodes, d)

    def test_one_grow_at_the_deepest_depth(self, monkeypatch):
        rng = np.random.default_rng(25)
        ds = make_ds(rng.normal(size=(80, 3)), rng.normal(size=80))
        grown = []
        real = tree._grow

        def spy(X, y, max_depth):
            grown.append(max_depth)
            return real(X, y, max_depth)

        monkeypatch.setattr(tree, "_grow", spy)
        tree.train_dt_depths(ds, [4, 9, 6])
        assert grown == [9]

    def test_errors_of_the_grow_propagate(self):
        with pytest.raises(HrvError, match='a dataset needs at least one sample'):
            tree.train_dt_depths(make_ds(np.empty((0, 2)), np.empty(0)), [3, 4])
        for depths in ([3, 21], [0, 5], []):
            with pytest.raises(ConfigError):
                tree.train_dt_depths(make_ds(np.arange(4.0), np.arange(4.0)), depths)


class TestDepthOneOracle:
    def test_four_point_split(self):
        # split must land between 1 and 10; leaves predict the side means
        ds = make_ds([0.0, 1.0, 10.0, 11.0], [0.0, 0.0, 10.0, 10.0])
        model = train_dt(ds, max_depth=1)
        root_thr = float(model.nodes.threshold[0])
        assert 1.0 < root_thr < 10.0
        assert model.predict([0.5]) == 0.0
        assert model.predict([10.5]) == 10.0
        _, f, thr = oracle_depth1_split(ds.features, ds.labels)
        assert model.nodes.feature[0] == f
        assert root_thr == thr

    def test_random_datasets_match_exhaustive_search(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(4, 14))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            model = train_dt(make_ds(X, y), max_depth=1)
            sse_o, f_o, thr_o = oracle_depth1_split(X, y)
            f = int(model.nodes.feature[0])
            thr = float(model.nodes.threshold[0])
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            sse = float(
                np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
            )
            assert sse == pytest.approx(sse_o, rel=1e-9, abs=1e-12)


class TestTreeStructure:
    def test_constant_labels_single_leaf(self):
        ds = make_ds(np.arange(10.0), np.full(10, 7.25))
        model = train_dt(ds, max_depth=20)
        assert model.n_nodes() == 1
        assert model.predict([123.0]) == 7.25

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        ds = make_ds(rng.normal(size=(200, 3)), rng.normal(size=200))
        for max_depth in (1, 2, 5):
            nodes = train_dt(ds, max_depth=max_depth).nodes
            depth = [0] * len(nodes)
            for i in range(len(nodes)):  # preorder: children follow their parent
                if nodes.feature[i] != LEAF:
                    depth[i + 1] = depth[nodes.right[i]] = depth[i] + 1
            assert max(depth) <= max_depth

    def test_predictions_within_label_range(self):
        rng = np.random.default_rng(1)
        ds = make_ds(rng.normal(size=(150, 4)), rng.uniform(10.0, 50.0, size=150))
        model = train_dt(ds, max_depth=6)
        preds = model.predict_batch(rng.normal(size=(300, 4)))
        assert preds.min() >= ds.labels.min()
        assert preds.max() <= ds.labels.max()

    def test_perfect_fit_on_separable_data(self):
        ds = make_ds([0.0, 1.0, 10.0, 11.0], [0.0, 0.0, 10.0, 10.0])
        model = train_dt(ds, max_depth=3)
        np.testing.assert_array_equal(model.predict_batch(ds.features), ds.labels)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.normal(size=(80, 5)), rng.normal(size=80))
        a = train_dt(ds, max_depth=8)
        b = train_dt(ds, max_depth=8)
        np.testing.assert_array_equal(a.nodes.threshold, b.nodes.threshold)
        np.testing.assert_array_equal(a.nodes.feature, b.nodes.feature)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        ds = make_ds(rng.normal(size=(60, 3)), rng.normal(size=60))
        model = train_dt(ds, max_depth=5)
        Q = rng.normal(size=(25, 3))
        batch = model.predict_batch(Q)
        single = [model.predict(q) for q in Q]
        np.testing.assert_array_equal(batch, single)


def full_row_predict(model, X):
    """The mean of the trees' leaves, each tree walked on the whole row from
    its own node arrays, summed from -0.0 in tree order."""
    out = []
    for row in X:
        total = -0.0
        for t in model.trees:
            i = 0
            while t.feature[i] != LEAF:
                i = i + 1 if row[t.feature[i]] <= np.float64(t.threshold[i]) else t.right[i]
            total += float(t.value[i])
        out.append(total / len(model.trees))
    return np.array(out)


def tree_nodes(feature, threshold, right, value):
    return TreeNodes(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def stump(f, thr, left, right):
    return tree_nodes([f, LEAF, LEAF], [thr, 0, 0], [2, -1, -1], [0, left, right])


def two_level(f0, f1, f2):
    """Splits on f0, then f1 on the left and f2 on the right."""
    return tree_nodes(
        [f0, f1, LEAF, LEAF, f2, LEAF, LEAF],
        [0.0, -0.5, 0, 0, 0.5, 0, 0],
        [4, 3, -1, -1, 6, -1, -1],
        [0, 0, 1.25, -2.5, 0, 3.75, -0.0],
    )


def hand_built_models():
    d = 6
    return {
        "one_leaf": DecisionTree((tree_nodes([LEAF], [0], [-1], [-0.0]),), d),
        "one_leaf_forest": RandomForest(
            (tree_nodes([LEAF], [0], [-1], [2.5]), stump(3, 0.0, -1.0, 1.0)), d
        ),
        "disjoint_features": RandomForest((two_level(0, 2, 4), two_level(5, 1, 3)), d),
        "last_feature": DecisionTree((stump(d - 1, 0.25, 7.0, -7.0),), d),
        "shared_features": RandomForest(
            (two_level(4, 4, 1), two_level(1, 4, 1), stump(4, 1.0, 0.5, 1.5)), d
        ),
    }


def probe_rows(d, rng):
    """Random rows, rows on the thresholds, and rows holding nan or +-inf."""
    X = rng.normal(size=(40, d))
    X[:8] = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0], size=(8, d))
    for i, v in enumerate((np.nan, np.inf, -np.inf)):
        X[8 + i] = v
        X[11 + 3 * i : 14 + 3 * i, rng.integers(0, d, size=3)] = v
    return X


class TestUsedColumnPredict:
    """A predict reads only the columns its trees split on; it gives what
    a walk on the whole row gives, bit for bit."""

    def check(self, model, X):
        want = full_row_predict(model, X)
        assert model.predict_batch(X).tobytes() == want.tobytes()
        single = np.array([model.predict(row) for row in X])
        assert single.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(hand_built_models()))
    def test_hand_built_models(self, name, tmp_path):
        model = hand_built_models()[name]
        X = probe_rows(model.n_features, np.random.default_rng(5))
        self.check(model, X)
        save_model(model, tmp_path / "m.bin")
        self.check(load_model(tmp_path / "m.bin"), X)

    def test_used_columns(self):
        models = hand_built_models()
        assert models["one_leaf"]._used.size == 0
        assert models["one_leaf_forest"]._used.tolist() == [3]
        assert models["disjoint_features"]._used.tolist() == [0, 1, 2, 3, 4, 5]
        assert models["last_feature"]._used.tolist() == [5]
        assert models["shared_features"]._used.tolist() == [1, 4]

    def test_trained_models_from_disk(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 30))
        ds = make_ds(X, X[:, 3] - 2.0 * X[:, 17] + 0.1 * rng.normal(size=120))
        probes = np.vstack([X, probe_rows(30, rng)])
        for i, model in enumerate((train_dt(ds, max_depth=6),
                                   train_rf(ds, trees=4, max_depth=4, seed=2))):
            assert 0 < model._used.size < 30
            self.check(model, probes)
            save_model(model, tmp_path / f"{i}.bin")
            self.check(load_model(tmp_path / f"{i}.bin"), probes)


class TestTreeErrors:
    def test_empty_dataset(self):
        with pytest.raises(HrvError, match='a dataset needs at least one sample'):
            train_dt(make_ds(np.empty((0, 2)), np.empty(0)), max_depth=3)

    def test_depth_bounds(self):
        ds = make_ds(np.arange(4.0), np.arange(4.0))
        with pytest.raises(ConfigError):
            train_dt(ds, max_depth=0)
        with pytest.raises(ConfigError):
            train_dt(ds, max_depth=21)

    def test_feature_length_checked(self):
        ds = make_ds(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        model = train_dt(ds, max_depth=2)
        with pytest.raises(HrvError, match=r"model expects 2 features, got shape \(3,\)$"):
            model.predict([1.0, 2.0, 3.0])
        # a single predict takes one 1-D row only
        with pytest.raises(HrvError, match=r"model expects 2 features, got shape \(1, 2\)$"):
            model.predict([[1.0, 2.0]])
        with pytest.raises(HrvError, match=r"model expects 2 features, got shape \(2, 3\)"):
            model.predict_batch(np.zeros((2, 3)))
