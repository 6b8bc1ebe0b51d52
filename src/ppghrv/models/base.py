"""Shared surface of the trained regressors.

Every model is an immutable container of learned parameters with a uniform
predict interface; training lives in free functions so a model object can
never be half-fitted.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import HrvError


class ModelKind(Enum):
    DT = "dt"
    RF = "rf"
    KNN = "knn"
    MLP = "mlp"


class TrainedModel:
    """Base class: feature-length checks and the one single-row predict; a
    subclass supplies _predict_batch, the prediction of a checked 2-D batch."""

    kind: ModelKind

    def __init__(self, n_features: int):
        self.n_features = int(n_features)

    def _check(self, X, ndims: tuple[int, ...]) -> np.ndarray:
        """X as a float64 (rows, n_features) batch; X must have one of ndims
        axes and n_features columns, and a 1-D X is one row."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in ndims or X.shape[-1] != self.n_features:
            raise HrvError(f"model expects {self.n_features} features, got shape {X.shape}")
        return X.reshape(-1, self.n_features)

    def predict(self, features) -> float:
        return float(self._predict_batch(self._check(features, (1,)))[0])

    def predict_batch(self, X) -> np.ndarray:
        return self._predict_batch(self._check(X, (1, 2)))
