"""Shared test helpers."""

import numpy as np

from ppghrv.data import Dataset


def make_ds(X, y):
    """Dataset of features X (1-D means one feature) and labels y, at times 0, 1, ..."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64)
    return Dataset(X, y, np.arange(y.size, dtype=np.float64))
