"""Random hyperparameter search with a chronological validation tail.

All candidate configurations are drawn up front from one seeded stream, so
the candidate list depends only on (kind, budget, seed).  Candidates
that fail to train, or whose estimates mape rejects as not finite, are
logged and skipped; the winner (lowest validation MAPE, ties to the
earlier candidate) is retrained on the full training set.

An MLP candidate early-stops on the tail of its fit rows and records its
best epoch; the winner is retrained on all of train for exactly best
epoch + 1 epochs, with no holdout and no early stop (mlp.fit_epochs).

A dt search grows one tree on the fit rows, at the deepest drawn
max_depth, and cuts every candidate from it (tree.train_dt_depths); the
candidates are the trees train_dt would grow for each depth alone.

A knn search ranks the holdout once per drawn distance, at the largest
drawn k that the fit rows can hold (KnnRegressor.neighbours), and scores
each candidate from the first k columns of that ranking: the k nearest
are the first k of the K nearest, so every candidate predicts what
train_knn would train for it alone, bit for bit.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Any

from ..data import Dataset, chronological_split
from ..errors import ConfigError, HrvError
from ..metrics import mape
from ..synth import check_seed, derived_rng, derived_seed
from .base import ModelKind, TrainedModel
from .forest import MAX_TREES, MIN_TREES, train_rf
from .knn import DISTANCES, MAX_K, MIN_K, check_knn, train_knn
from .mlp import (
    ACTIVATIONS,
    MAX_HIDDEN_LAYERS,
    MAX_NEURONS_PER_LAYER,
    check_max_epochs,
    fit_early_stopped,
    fit_epochs,
)
from .tree import MAX_TREE_DEPTH, train_dt, train_dt_depths

log = logging.getLogger(__name__)

MIN_SEARCH_DEPTH = 3  # search never samples the oracle-sized depths 1..2
# each candidate trains one model, up to seconds each; 100x the default budget
MAX_BUDGET = 1000


def sample_hyperparams(kind: ModelKind, rng) -> dict[str, Any]:
    """One uniform draw from the per-model search space."""
    def uniform_int(lo, hi):
        return int(rng.integers(lo, hi + 1))

    if kind is ModelKind.DT:
        return {"max_depth": uniform_int(MIN_SEARCH_DEPTH, MAX_TREE_DEPTH)}
    if kind is ModelKind.RF:
        return {
            "trees": uniform_int(MIN_TREES, MAX_TREES),
            "max_depth": uniform_int(MIN_SEARCH_DEPTH, MAX_TREE_DEPTH),
        }
    if kind is ModelKind.KNN:
        return {
            "k": uniform_int(MIN_K, MAX_K),
            "distance": DISTANCES[int(rng.integers(len(DISTANCES)))],
        }
    if kind is ModelKind.MLP:
        n_layers = uniform_int(1, MAX_HIDDEN_LAYERS)
        return {
            "hidden_layers": tuple(
                uniform_int(1, MAX_NEURONS_PER_LAYER) for _ in range(n_layers)
            ),
            "activation": ACTIVATIONS[int(rng.integers(len(ACTIVATIONS)))],
        }
    raise ConfigError(f"unknown model kind {kind!r}")


def _candidate_predictor(kind, fit, holdout, drawn, mlp_max_epochs):
    """(index, seed) -> (holdout predictions, best epoch) for draw index,
    trained on fit; the best epoch is None for every kind but mlp."""
    Q = holdout.features
    if kind is ModelKind.DT:
        # one grow serves every draw; a failed grow is retried, and fails,
        # per draw
        depths = [p["max_depth"] for p in drawn]
        trees = functools.cache(lambda: train_dt_depths(fit, depths))
        return lambda i, seed: (trees()[i].predict_batch(Q), None)
    if kind is ModelKind.KNN:
        return _knn_predictor(fit, Q, drawn)
    if kind is ModelKind.MLP:
        def predict(i, seed):
            model, best_epoch = fit_early_stopped(
                fit, drawn[i]["hidden_layers"], drawn[i]["activation"], mlp_max_epochs, seed
            )
            return model.predict_batch(Q), best_epoch
        return predict
    return lambda i, seed: (
        train_rf(fit, drawn[i]["trees"], drawn[i]["max_depth"], seed).predict_batch(Q), None
    )


def _knn_predictor(fit, Q, drawn):
    """One ranking of Q per distance, at the largest k drawn for it that fit
    can hold; a candidate predicts the mean label of its first k columns,
    which is what train_knn(fit, k, distance) predicts.  A failed ranking
    is retried, and fails, per draw."""
    @functools.cache
    def ranking(distance):
        k = max(p["k"] for p in drawn if p["distance"] == distance and p["k"] <= len(fit))
        model = train_knn(fit, k, distance)
        return model.y, model.neighbours(Q)

    def predict(i, seed):
        k, distance = drawn[i]["k"], drawn[i]["distance"]
        check_knn(len(fit), k, distance)
        y, ranked = ranking(distance)
        return y[ranked[:, :k]].mean(axis=1), None

    return predict


def _retrain(kind, train, best, seed):
    """The winner on all of train; an MLP for its best epoch + 1 epochs."""
    params = best.hyperparams
    if kind is ModelKind.DT:
        return train_dt(train, params["max_depth"])
    if kind is ModelKind.RF:
        return train_rf(train, params["trees"], params["max_depth"], seed=seed)
    if kind is ModelKind.KNN:
        return train_knn(train, params["k"], params["distance"])
    return fit_epochs(
        train, params["hidden_layers"], params["activation"], best.best_epoch + 1, seed
    )


def _best(candidates) -> Candidate | None:
    """Lowest validation MAPE among the scored candidates, ties to the earlier."""
    scored = [c for c in candidates if c.val_mape_pct is not None]
    return min(scored, key=lambda c: (c.val_mape_pct, c.index), default=None)


@dataclass(frozen=True)
class Candidate:
    index: int
    hyperparams: dict[str, Any]
    val_mape_pct: float | None   # None when training/scoring failed
    best_epoch: int | None       # an MLP's 0-based best epoch; None otherwise
    error: str | None = None


@dataclass(frozen=True)
class SearchResult:
    model: TrainedModel
    candidates: tuple[Candidate, ...] = field(repr=False)

    @property
    def best(self) -> Candidate:
        """The candidate whose configuration `model` was retrained with."""
        return _best(self.candidates)


def check_search(budget: int, seed: int, val_fraction: float, mlp_max_epochs: int) -> None:
    """ConfigError unless random_search can use these settings."""
    if not 1 <= budget <= MAX_BUDGET:
        raise ConfigError(f"budget must lie in [1, {MAX_BUDGET}], got {budget}")
    check_seed(seed)
    # the split takes 1 - val_fraction, and 1 - 1e-17 == 1.0
    if not 0.0 < 1.0 - val_fraction < 1.0:
        raise ConfigError(
            f"val_fraction must lie strictly between 0 and 1, with 1 - val_fraction < 1, "
            f"got {val_fraction}"
        )
    check_max_epochs(mlp_max_epochs)


def random_search(
    train: Dataset,
    kind: ModelKind,
    budget: int,
    seed: int,
    val_fraction: float,
    mlp_max_epochs: int,
) -> SearchResult:
    """Try `budget` sampled configs, keep the lowest validation MAPE.

    Validation is the chronological tail of `train`; the winner is then
    retrained on all of `train` with the same derived seed.  mlp_max_epochs
    bounds each MLP candidate's training, and so the winner's retrain;
    other kinds ignore it.
    """
    check_search(budget, seed, val_fraction, mlp_max_epochs)

    sampler = derived_rng((int(seed), 0))
    drawn = [sample_hyperparams(kind, sampler) for _ in range(budget)]
    seeds = [derived_seed((int(seed), 1 + i)) for i in range(budget)]

    fit, holdout = chronological_split(train, 1.0 - val_fraction)

    predict_candidate = _candidate_predictor(kind, fit, holdout, drawn, mlp_max_epochs)
    candidates: list[Candidate] = []
    for i, params in enumerate(drawn):
        try:
            preds, best_epoch = predict_candidate(i, seeds[i])
            score = mape(preds, holdout.labels)
        except HrvError as err:
            log.warning("search candidate %d (%s) failed: %s", i, params, err)
            candidates.append(Candidate(i, params, None, None, error=str(err)))
            continue
        candidates.append(Candidate(i, params, score, best_epoch))

    best = _best(candidates)
    if best is None:
        raise HrvError(
            f"all {budget} sampled configurations failed; last error: "
            f"{candidates[-1].error}"
        )
    final = _retrain(kind, train, best, seeds[best.index])
    return SearchResult(model=final, candidates=tuple(candidates))
