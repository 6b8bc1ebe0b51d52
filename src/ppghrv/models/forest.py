"""Bagged regression trees; prediction is the mean over the ensemble."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..synth import derived_rng
from .base import ModelKind, TrainedModel
from .tree import TreeNodes, _as_lists, _grow, _walk, check_depth

MIN_TREES = 2
MAX_TREES = 128


class RandomForest(TrainedModel):
    kind = ModelKind.RF

    def __init__(self, trees: tuple[TreeNodes, ...], n_features: int):
        super().__init__(n_features)
        self.trees = trees
        self._lists = [_as_lists(t) for t in trees]

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        lists, n = self._lists, len(self._lists)
        return np.array(
            [sum(_walk(t, row) for t in lists) / n for row in X.tolist()],
            dtype=np.float64,
        )


def train_rf(
    train,
    trees: int,
    max_depth: int,
    seed: int,
) -> RandomForest:
    """Bagging: each tree sees a bootstrap resample drawn from its own
    derived seed."""
    if not MIN_TREES <= int(trees) <= MAX_TREES:
        raise ConfigError(f"trees must be in [{MIN_TREES}, {MAX_TREES}], got {trees}")
    check_depth(max_depth)
    X = train.features
    y = train.labels
    m = y.size
    grown = []
    for t in range(int(trees)):
        rng = derived_rng((int(seed), t))
        idx = rng.integers(0, m, size=m)
        grown.append(_grow(X[idx], y[idx], int(max_depth))[0])
    return RandomForest(tuple(grown), train.n_features)
