"""Regression tree grown by exhaustive variance-reduction splits.

Each feature column is sorted once per tree, stably, into int32 row orders;
a split carries them to its children by a stable partition, so every node
scores every boundary of every feature from prefix sums in a block of
columns at a time, with no sort of its own.  Thresholds are stored as
float32 (the serialised width) and the partition is made with the
quantised value, keeping file round-trips bit-identical with in-memory
predictions.

Every tree comes from _grow, which records each node's depth and the mean
label of its rows.  A dt tree is a cut of one grow: train_dt_depths grows
at the deepest depth and cuts each shallower tree with those records.

A TreeModel's predict reads only the columns its trees split on: its
constructor records them, sorted, and numbers each split's feature by its
place among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..errors import ConfigError
from .base import ModelKind, TrainedModel

MIN_SAMPLES_TO_SPLIT = 2
LEAF = -1  # sentinel in the feature column

MAX_TREE_DEPTH = 20
# (row, feature) boundaries _best_split scores at once; more is no faster
# and raises peak memory
SPLIT_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class TreeNodes:
    """Flat preorder node arrays; feature == LEAF marks a leaf.  A split's
    left child is the next node, i + 1."""

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float32, x <= threshold goes left
    right: np.ndarray      # int32 right-child index, -1 at a leaf
    value: np.ndarray      # float64 leaf prediction

    def __len__(self) -> int:
        return int(self.feature.size)


def _presort(X: np.ndarray) -> np.ndarray:
    """Each column's stable sort order as one int32 row: orders[f] lists the
    row indices by X[:, f], ties by row index."""
    n, d = X.shape
    orders = np.empty((d, n), dtype=np.int32)
    step = max(1, SPLIT_BLOCK_ELEMENTS // n)
    for lo in range(0, d, step):
        orders[lo : lo + step] = np.argsort(X[:, lo : lo + step], axis=0, kind="stable").T
    return orders


def _best_split(X: np.ndarray, node_y: np.ndarray, y: np.ndarray, orders: np.ndarray):
    """Lowest-SSE axis split of the node whose rows orders lists, or None.

    node_y holds the node's labels in row order; orders[f] holds the node's
    rows sorted by feature f, which is what a stable argsort of the node's
    column gives.  Ties break to the lowest feature index, then the lowest
    threshold.  A boundary between equal values, or whose float32-quantised
    threshold no longer separates the sorted values, is discarded.
    """
    d, n = orders.shape
    # the totals are summed in row order: a sum in a feature's order can
    # round differently and pick another split
    total_s1 = float(np.add.reduce(node_y))
    total_s2 = float(np.add.reduce(node_y * node_y))
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    flat = X.ravel()
    best_sse = np.inf
    best = None
    step = max(1, SPLIT_BLOCK_ELEMENTS // n)
    for lo in range(0, d, step):
        order = orders[lo : lo + step]
        xs = flat[order * d + np.arange(lo, lo + len(order))[:, None]]
        ys = y[order]
        c1 = np.add.accumulate(ys, axis=1)[:, :-1]
        c2 = np.add.accumulate(ys * ys, axis=1)[:, :-1]
        # (c2 - c1**2 / nl) + (total_s2 - c2) - (total_s1 - c1)**2 / nr, in place
        sse = c1 * c1
        sse /= nl
        np.subtract(c2, sse, out=sse)
        sse += total_s2 - c2
        right = total_s1 - c1
        right *= right
        right /= nr
        sse -= right
        # feature-major, so argmin ties go to the lowest feature
        np.copyto(sse, np.inf, where=xs[:, :-1] == xs[:, 1:])
        while True:
            f, i = divmod(int(sse.argmin()), n - 1)
            if not sse[f, i] < best_sse:  # a later block wins only if strictly lower
                break
            thr = np.float32((xs[f, i] + xs[f, i + 1]) / 2.0)
            if xs[f, 0] <= thr < xs[f, -1]:
                best_sse = float(sse[f, i])
                best = (lo + f, thr)
                break
            sse[f, i] = np.inf  # quantisation collapsed this boundary
    return best


def _partition(orders: np.ndarray, goes_left: np.ndarray, n_left: int) -> None:
    """Reorder each row of orders in place: its goes_left rows first, each
    side in its former order.  A sorted row stays sorted on both sides."""
    d, n = orders.shape
    step = max(1, SPLIT_BLOCK_ELEMENTS // n)
    for lo in range(0, d, step):
        block = orders[lo : lo + step]
        on_left = goes_left[block]
        lefts, rights = block[on_left], block[~on_left]
        block[:, :n_left] = lefts.reshape(-1, n_left)
        block[:, n_left:] = rights.reshape(-1, n - n_left)


def _grow(X: np.ndarray, y: np.ndarray, max_depth: int):
    """Greedy CART growth with every column sorted once: (nodes, depth,
    mean), each node's depth and the mean label of its rows.

    rows[a:b] lists a node's rows in row order and orders[:, a:b] the same
    rows sorted by each feature; a split partitions both in place, stably,
    so every node sees what a stable sort of its own rows would give.
    Nodes are numbered in preorder: the left subtree is grown first, so a
    split's left child is the next node and only right children are linked.
    """
    feature, threshold, right, value = [], [], [], []
    depths, means = [], []
    X = np.ascontiguousarray(X)
    rows = np.arange(y.size, dtype=np.int32)
    orders = _presort(X)
    goes_left = np.zeros(y.size, dtype=bool)
    # (first, end, depth, the split this node is the right child of, or -1)
    stack = [(0, y.size, 0, -1)]
    while stack:
        a, b, depth, parent = stack.pop()
        idx = len(feature)
        if parent >= 0:
            right[parent] = idx
        node_rows = rows[a:b]
        node_y = y[node_rows]
        depths.append(depth)
        means.append(float(np.add.reduce(node_y)) / node_y.size)
        split = None
        if not (
            depth >= max_depth
            or node_y.size < MIN_SAMPLES_TO_SPLIT
            or np.logical_and.reduce(node_y == node_y[0])
        ):
            split = _best_split(X, node_y, y, orders[:, a:b])
        right.append(-1)
        if split is None:
            feature.append(LEAF)
            threshold.append(0.0)
            value.append(means[-1])
            continue
        f, thr = split
        feature.append(f)
        threshold.append(float(thr))
        value.append(0.0)
        mask = X[node_rows, f] <= np.float64(thr)
        n_left = int(np.count_nonzero(mask))
        goes_left[node_rows] = mask
        rows[a:b] = np.concatenate([node_rows[mask], node_rows[~mask]])
        _partition(orders[:, a:b], goes_left, n_left)
        stack.append((a + n_left, b, depth + 1, idx))
        stack.append((a, a + n_left, depth + 1, -1))

    return TreeNodes(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    ), np.asarray(depths), np.asarray(means)


def _as_lists(nodes: TreeNodes, used: np.ndarray) -> tuple[list, list, list, list]:
    """The node arrays as plain lists, each split's feature as its place in
    used, the sorted features split on: the per-row walk is pure Python, and
    list indexing is far cheaper than numpy scalar indexing there."""
    split = nodes.feature != LEAF
    return (
        np.where(split, np.searchsorted(used, nodes.feature), LEAF).tolist(),
        nodes.threshold.astype(np.float64).tolist(),
        nodes.right.tolist(),
        nodes.value.tolist(),
    )


def _walk(lists, row) -> float:
    """Leaf value reached by one row of the used columns; lists come from
    _as_lists."""
    feature, threshold, right, value = lists
    i = 0
    while feature[i] != LEAF:
        i = i + 1 if row[feature[i]] <= threshold[i] else right[i]
    return value[i]


class TreeModel(TrainedModel):
    """Predicts the mean of its trees' leaves; a DecisionTree is one tree.  The
    sum starts at -0.0, so one tree gives its leaf's bits, -0.0 included."""

    def __init__(self, trees, n_features: int):
        super().__init__(n_features)
        self.trees = tuple(trees)
        features = np.concatenate([t.feature for t in self.trees])
        self._used = np.unique(features[features != LEAF])
        self._lists = [_as_lists(t, self._used) for t in self.trees]

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        lists, n = self._lists, len(self._lists)
        rows = X.take(self._used, axis=1).tolist()
        return np.array([sum(map(_walk, lists, repeat(row, n)), -0.0) / n for row in rows])


class DecisionTree(TreeModel):
    kind = ModelKind.DT

    @property
    def nodes(self) -> TreeNodes:
        return self.trees[0]

    def n_nodes(self) -> int:
        return len(self.nodes)


def _truncate(
    nodes: TreeNodes, depth: np.ndarray, mean: np.ndarray, max_depth: int
) -> TreeNodes:
    """nodes cut to max_depth: deeper nodes dropped, internal nodes at
    max_depth turned into leaves holding their mean, preorder kept."""
    keep = depth <= max_depth
    cut = (depth == max_depth) & (nodes.feature != LEAF)
    split = keep & ~cut & (nodes.feature != LEAF)
    index = np.cumsum(keep, dtype=np.int32) - 1
    return TreeNodes(
        feature=np.where(cut, LEAF, nodes.feature)[keep],
        threshold=np.where(cut, np.float32(0.0), nodes.threshold)[keep],
        right=np.where(split, index[nodes.right], -1)[keep],
        value=np.where(cut, mean, nodes.value)[keep],
    )


def check_depth(max_depth: int) -> None:
    """ConfigError unless a tree may be grown to max_depth."""
    if not 1 <= int(max_depth) <= MAX_TREE_DEPTH:
        raise ConfigError(f"max_depth must be in [1, {MAX_TREE_DEPTH}], got {max_depth}")


def train_dt_depths(train, depths) -> list[DecisionTree]:
    """The greedy CART regressor at each max_depth in depths, from one grow.

    A greedy depth-d tree is the depth-d truncation of a deeper tree grown
    on the same rows: the nodes above depth d are the same, and a node at
    depth d becomes a leaf holding the mean label of its rows.  So one tree
    is grown at the deepest depth and each shallower one is cut from it.
    max_depth 1 (a single split), which search never samples, makes oracles.
    """
    depths = [int(d) for d in depths]
    if not depths:
        raise ConfigError("no max_depth to train a tree at")
    for d in depths:
        check_depth(d)
    deepest = max(depths)
    nodes, depth, mean = _grow(train.features, train.labels, deepest)
    cuts = [nodes if d == deepest else _truncate(nodes, depth, mean, d) for d in depths]
    return [DecisionTree((cut,), train.n_features) for cut in cuts]


def train_dt(train, max_depth: int, seed: int = 0) -> DecisionTree:
    """train_dt_depths at one depth.  Growth is deterministic, so seed has
    no effect."""
    return train_dt_depths(train, [max_depth])[0]
