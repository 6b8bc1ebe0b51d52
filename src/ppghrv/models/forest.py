"""Bagged regression trees; a RandomForest predicts their mean (tree.TreeModel)."""

from __future__ import annotations

from ..errors import ConfigError
from ..synth import derived_rngs
from .base import ModelKind
from .tree import TreeModel, _grow, check_depth

MIN_TREES = 2
MAX_TREES = 128


class RandomForest(TreeModel):
    kind = ModelKind.RF


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
    for rng in derived_rngs((int(seed),), range(int(trees))):
        idx = rng.integers(0, m, size=m)
        grown.append(_grow(X[idx], y[idx], int(max_depth))[0])
    return RandomForest(grown, train.n_features)
