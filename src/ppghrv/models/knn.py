"""K-nearest-neighbour regression over z-normalised features.

The training set is memorised in float32 (the serialised width) together
with the per-feature standardisation statistics, so a decoded model sees
exactly the numbers the in-memory one does.  Distance ties break to the
lower training-sample index.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, EmptyDataset, KTooLarge
from .base import ModelKind, TrainedModel

MIN_K = 2
MAX_K = 30

MANHATTAN = "manhattan"
EUCLIDEAN = "euclidean"
DISTANCES = (MANHATTAN, EUCLIDEAN)


def standardize_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and population std; a std that is 0 once stored as
    float32 becomes 1, so a saved model never divides by zero."""
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma.astype(np.float32) == 0.0, 1.0, sigma)
    return mu, sigma


class KnnRegressor(TrainedModel):
    kind = ModelKind.KNN

    def __init__(
        self,
        X: np.ndarray,       # float32, already standardised
        y: np.ndarray,       # float64
        mu: np.ndarray,      # float32
        sigma: np.ndarray,   # float32
        k: int,
        distance: str,
        n_features: int,
    ):
        super().__init__(n_features)
        self.X = X
        self.y = y
        self.mu = mu
        self.sigma = sigma
        self.k = int(k)
        self.distance = distance

    def _predict_batch(self, Q: np.ndarray) -> np.ndarray:
        # the float32 parameters widen exactly to float64 inside each ufunc,
        # so no float64 copy of the matrix is made
        q = (Q - self.mu) / self.sigma
        out = np.empty(Q.shape[0], dtype=np.float64)
        for r in range(q.shape[0]):
            diff = self.X - q[r]
            if self.distance == MANHATTAN:
                d = np.abs(diff).sum(axis=1)
            else:
                d = np.sqrt((diff * diff).sum(axis=1))
            near = np.argsort(d, kind="stable")[: self.k]
            out[r] = float(np.mean(self.y[near]))
        return out


def train_knn(train, k: int, distance: str) -> KnnRegressor:
    if distance not in DISTANCES:
        raise ConfigError(f"distance must be one of {DISTANCES}, got {distance!r}")
    if len(train) == 0:
        raise EmptyDataset("cannot train KNN on an empty dataset")
    if not MIN_K <= int(k) <= MAX_K:
        raise ConfigError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    if int(k) > len(train):
        raise KTooLarge(f"k={k} exceeds the {len(train)} training samples")
    X64 = train.features
    mu, sigma = standardize_stats(X64)
    mu32 = mu.astype(np.float32)
    sigma32 = sigma.astype(np.float32)
    Xs = ((X64 - mu32.astype(np.float64)) / sigma32.astype(np.float64)).astype(np.float32)
    return KnnRegressor(
        Xs, train.labels.copy(), mu32, sigma32, int(k), distance, train.n_features
    )
