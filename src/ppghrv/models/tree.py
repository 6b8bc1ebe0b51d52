"""Regression tree grown by exhaustive variance-reduction splits.

Split search scores every boundary of every feature of a node together, with
one stable sort and prefix sums per block of columns.  Thresholds are stored
as float32 (the serialised width) and the partition is made with the
quantised value, keeping file round-trips bit-identical with in-memory
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EmptyDataset, FeatureLengthMismatch
from .base import ModelKind, TrainedModel

MIN_SAMPLES_TO_SPLIT = 2
LEAF = -1  # sentinel in the feature column

MAX_TREE_DEPTH = 20
# (row, feature) boundaries _best_split scores at once; more is no faster
# and raises peak memory
SPLIT_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class TreeNodes:
    """Flat preorder node arrays; feature == LEAF marks a leaf."""

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float32, x <= threshold goes left
    left: np.ndarray       # int32 child index
    right: np.ndarray      # int32 child index
    value: np.ndarray      # float64 leaf prediction

    def __len__(self) -> int:
        return int(self.feature.size)


def _best_split(X: np.ndarray, y: np.ndarray):
    """Lowest-SSE axis split, or None.

    Ties break to the lowest feature index, then the lowest threshold.  A
    boundary between equal values, or whose float32-quantised threshold no
    longer separates the sorted values, is discarded.
    """
    n, d = X.shape
    total_s1 = float(y.sum())
    total_s2 = float((y * y).sum())
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    best_sse = np.inf
    best = None
    step = max(1, SPLIT_BLOCK_ELEMENTS // n)
    for lo in range(0, d, step):
        block = X[:, lo : lo + step]
        order = np.argsort(block, axis=0, kind="stable")
        xs = np.take_along_axis(block, order, axis=0)
        ys = y[order]
        c1 = np.cumsum(ys, axis=0)[:-1]
        c2 = np.cumsum(ys * ys, axis=0)[:-1]
        sse = (c2 - c1 * c1 / nl) + (total_s2 - c2) - (total_s1 - c1) ** 2 / (n - nl)
        thr = ((xs[:-1] + xs[1:]) / 2.0).astype(np.float32)
        ok = (xs[:-1] != xs[1:]) & (xs[0] <= thr) & (thr < xs[-1])
        # feature-major, so argmin ties go to the lowest feature
        sse = np.where(ok, sse, np.inf).T
        f, i = divmod(int(np.argmin(sse)), n - 1)
        if sse[f, i] < best_sse:  # a later block wins only if strictly lower
            best_sse = float(sse[f, i])
            best = (lo + f, thr[i, f])
    return best


def _grow(X: np.ndarray, y: np.ndarray, max_depth: int) -> TreeNodes:
    feature, threshold, left, right, value = [], [], [], [], []

    def leaf(node_y) -> int:
        idx = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
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
        split = _best_split(node_X, node_y)
        if split is None:
            return leaf(node_y)
        f, thr = split
        idx = len(feature)
        feature.append(f)
        threshold.append(float(thr))
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        mask = node_X[:, f] <= np.float64(thr)
        left[idx] = rec(node_X[mask], node_y[mask], depth + 1)
        right[idx] = rec(node_X[~mask], node_y[~mask], depth + 1)
        return idx

    rec(X, y, 0)
    return TreeNodes(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float32),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def _as_lists(nodes: TreeNodes) -> tuple[list, list, list, list, list]:
    """The node arrays as plain lists: the per-row walk is pure Python, and
    list indexing is far cheaper than numpy scalar indexing there."""
    return (
        nodes.feature.tolist(),
        nodes.threshold.astype(np.float64).tolist(),
        nodes.left.tolist(),
        nodes.right.tolist(),
        nodes.value.tolist(),
    )


def _walk(lists, row) -> float:
    """Leaf value reached by one row; lists come from _as_lists."""
    feature, threshold, left, right, value = lists
    i = 0
    while feature[i] != LEAF:
        i = left[i] if row[feature[i]] <= threshold[i] else right[i]
    return value[i]


class DecisionTree(TrainedModel):
    kind = ModelKind.DT

    def __init__(self, nodes: TreeNodes, n_features: int):
        super().__init__(n_features)
        self.nodes = nodes
        self._lists = _as_lists(nodes)

    def depth(self) -> int:
        feature, _, left, right, _ = self._lists

        def walk(i):
            if feature[i] == LEAF:
                return 0
            return 1 + max(walk(left[i]), walk(right[i]))

        return walk(0)

    def n_nodes(self) -> int:
        return len(self.nodes)

    def predict(self, features) -> float:
        row = list(features)
        if len(row) != self.n_features:
            raise FeatureLengthMismatch(
                f"model expects {self.n_features} features, got {len(row)}"
            )
        return _walk(self._lists, row)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        lists = self._lists
        return np.array([_walk(lists, row) for row in X.tolist()], dtype=np.float64)


def train_dt(train, max_depth: int, seed: int = 0) -> DecisionTree:
    """Greedy CART regressor; leaves predict the mean of their labels.

    max_depth 1 is allowed (a single split) even though hyperparameter
    search only samples 3..20; the tiny trees are useful as oracles.
    Growth is deterministic, so seed has no effect.
    """
    if not 1 <= int(max_depth) <= MAX_TREE_DEPTH:
        raise ConfigError(f"max_depth must be in [1, {MAX_TREE_DEPTH}], got {max_depth}")
    if len(train) == 0:
        raise EmptyDataset("cannot train a tree on an empty dataset")
    nodes = _grow(train.features, train.labels, int(max_depth))
    return DecisionTree(nodes, train.n_features)
