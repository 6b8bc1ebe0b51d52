"""K-nearest-neighbour regression over z-normalised features.

The training set is memorised in float32 (the serialised width) together
with the per-feature standardisation statistics, so a decoded model sees
exactly the numbers the in-memory one does.  Distance ties break to the
lower training-sample index.

Search.  A query gets the same k rows, in the same order, as a stable sort
of the exact float64 distances to every stored row; only the rows that can
be among them are measured exactly.  For Manhattan the exact distance
to every row is the filter: one partition finds the k-th smallest value v,
and the rows with a distance <= v are the candidates.  Euclidean filters
with one float32 matrix product.  For a standardised query q and a stored
row x_j, with s_j = fl32(x_j . fl32(q)),

    e_j = xx_j + qq - 2 s_j    estimates the float64 sum S_j of (x_jf - q_f)^2
                               that the exact distance sqrt(S_j) is taken of,
    |e_j - S_j| <= delta_j = 4 (d + 2) u ((|x_j| + |q|)^2 + 2^-125),  u = 2^-24.

Rounding q to float32 moves x_j . q by at most u sum_f |x_jf q_f|, and the
float32 inner product errs by at most gamma_d sum_f |x_jf q_f|, gamma_d =
d u / (1 - d u) (Higham, Accuracy and Stability of Numerical Algorithms,
Thm 3.1).  By Cauchy-Schwarz sum_f |x_jf q_f| <= |x_j| |q| <= (|x_j| + |q|)^2 / 4,
so 2 s_j is off by at most (d + 1.01) u (|x_j| + |q|)^2 / 2.  The float64 sums
xx_j, qq, e_j and S_j round d + 2 times each at 2^-53, which adds less than
2^-28 (d + 2) u (|x_j| + |q|)^2.  Below 2^-126 float32 rounds to an absolute
2^-150, not relatively; the 2^-125 term covers those d + 1 roundings.

Since S_j <= (|x_j| + |q|)^2 (1 + 2^-28), the slack exceeds that error by
more than 3 (d + 2) u S_j, so e_j + delta_j >= S_j (1 + 2^-21).  Let T be the
k-th smallest e_j + delta_j; it is at least the k-th smallest S_j times
1 + 2^-21.  A row of the exact k nearest has a distance that rounds to at most
the k-th one, and two sums whose square roots round to one double differ by
a factor below 1 + 2^-51, so S_j <= T and e_j - delta_j <= T.  The
candidates are the rows with e_j - delta_j <= T, in index order; at least k
pass, as e_j - delta_j <= e_j + delta_j.  Their exact distances are computed
as a full scan computes them, each row's float64 sum depending on that row
alone, and sorted stably.  When a bound is not finite (a nan, inf or
overflowing query), every row is a candidate.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, HrvError
from .base import ModelKind, TrainedModel

MIN_K = 2
MAX_K = 30

MANHATTAN = "manhattan"
EUCLIDEAN = "euclidean"
DISTANCES = (MANHATTAN, EUCLIDEAN)

# the terms of the Euclidean filter's slack (see the module docstring)
ROUNDOFF32 = 2.0**-24
UNDERFLOW32 = 2.0**-125


def standardize_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and population std; a std that is 0 once stored as
    float32 becomes 1, so a saved model never divides by zero.  A mean or
    std beyond float32 is an HrvError, as its model file could not load."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = X.mean(axis=0)
        sigma = X.std(axis=0)
        stored = np.isfinite(np.stack([mu, sigma]).astype(np.float32)).all(axis=0)
    if not stored.all():
        raise HrvError(f"feature f{np.argmin(stored)} has a mean or std beyond float32")
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
        self._xx = np.einsum("ij,ij->i", X, X, dtype=np.float64)
        self._norm = np.sqrt(self._xx)

    def _predict_batch(self, Q: np.ndarray) -> np.ndarray:
        # the float32 parameters widen exactly to float64 inside each ufunc,
        # so no float64 copy of the matrix is made
        q = (Q - self.mu) / self.sigma
        out = np.empty(Q.shape[0], dtype=np.float64)
        # the three (block, m) float64 arrays of _bounds take no more memory
        # than the two (m, d) temporaries of one full-scan distance did
        block = max(1, self.X.shape[1] // 2)
        for start in range(0, q.shape[0], block):
            out[start : start + block] = self._predict_block(q[start : start + block])
        return out

    def _predict_block(self, qb: np.ndarray) -> list[float]:
        lo, hi = self._bounds(qb)
        return [float(np.mean(self.y[self._nearest(*row)])) for row in zip(qb, lo, hi)]

    def _distances(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        # one (rows, d) temporary, reused in place: with two, a full scan of a
        # 1195 x 301 model had the allocator hand the heap top back to the
        # system and fault it in again for every query, 3x slower
        diff = X - q
        if self.distance == MANHATTAN:
            return np.abs(diff, out=diff).sum(axis=1)
        diff *= diff
        return np.sqrt(diff.sum(axis=1))

    def _bounds(self, qb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per query and stored row, bounds on the squared Euclidean sum, or
        the exact Manhattan distance twice."""
        if self.distance == MANHATTAN:
            d = np.empty((qb.shape[0], self.X.shape[0]))
            for i, q in enumerate(qb):
                d[i] = self._distances(self.X, q)
            return d, d
        with np.errstate(all="ignore"):
            qq = np.einsum("ij,ij->i", qb, qb)
            est = np.matmul(qb.astype(np.float32), self.X.T).astype(np.float64)
            est *= -2.0
            est += self._xx
            est += qq[:, None]
            slack = self._norm + np.sqrt(qq)[:, None]
            slack *= slack
            slack += UNDERFLOW32
            slack *= 4 * (self.X.shape[1] + 2) * ROUNDOFF32
            hi = est + slack
            est -= slack
        return est, hi

    def _nearest(self, q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Indices of the k nearest rows, nearest first, ties to the lower
        index: the rows whose lower bound is at most the k-th smallest upper
        bound, ranked by exact distance."""
        if np.isfinite(hi).all():
            rows = np.flatnonzero(lo <= np.partition(hi, self.k - 1)[self.k - 1])
        else:
            rows = np.arange(self.X.shape[0])
        d = self._distances(self.X[rows], q)
        return rows[np.argsort(d, kind="stable")[: self.k]]


def train_knn(train, k: int, distance: str) -> KnnRegressor:
    if distance not in DISTANCES:
        raise ConfigError(f"distance must be one of {DISTANCES}, got {distance!r}")
    if len(train) == 0:
        raise HrvError("cannot train KNN on an empty dataset")
    if not MIN_K <= int(k) <= MAX_K:
        raise ConfigError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    if int(k) > len(train):
        raise HrvError(f"k={k} exceeds the {len(train)} training samples")
    X64 = train.features
    mu, sigma = standardize_stats(X64)
    mu32 = mu.astype(np.float32)
    sigma32 = sigma.astype(np.float32)
    Xs = ((X64 - mu32.astype(np.float64)) / sigma32.astype(np.float64)).astype(np.float32)
    return KnnRegressor(
        Xs, train.labels.copy(), mu32, sigma32, int(k), distance, train.n_features
    )
