"""K-nearest-neighbour regression over z-normalised features.

The training set is memorised in float32 (the serialised width) together
with the per-feature standardisation statistics, so a decoded model sees
exactly the numbers the in-memory one does.  Distance ties break to the
lower training-sample index.

Search.  A query gets the same k rows, in the same order, as a stable sort
of the exact float64 distances to every stored row; only the rows that can
be among them are measured exactly.  Each distance gives every stored row a
cheap bound lo_j, and the query a threshold T, such that every row of the
exact k nearest has lo_j <= T (derived below); T is nan when a bound is not
finite (a nan, inf or overflowing query).  One loop then ranks for both
distances: the candidates are the rows with lo_j <= T, or every row when T
is nan, in index order.  Their exact distances are computed as a full scan
computes them, each row's float64 sum depending on that row alone, and
sorted stably.  The k rows are then the first k of a stable sort by
(distance, index), so for every k' <= k the first k' of them are the k'
nearest: one ranking at the largest k serves every smaller k (the knn
search scores its candidates from it).  Queries are bounded a block at a
time; each query's threshold and exact distances are its own.

Euclidean filters with one float32 matrix product.  For a standardised
query q and a stored row x_j, with s_j = fl32(x_j . fl32(q)),

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
a factor below 1 + 2^-51, so S_j <= T and lo_j = e_j - delta_j <= T.

Manhattan filters with block sums, the piecewise aggregate bound (Keogh et
al., Dimensionality reduction for fast similarity search in large time
series databases, 2001; Yi and Faloutsos, Fast time sequence indexing for
arbitrary Lp norms, VLDB 2000).  The d columns are cut into n blocks B_b of
PAA_WIDTH consecutive columns, the last maybe partial, and w = min(PAA_WIDTH,
d).  With p_jb and r_b the float64 sums of x_j and q over B_b, and nu_j and
mu the float64 L1 norms of x_j and q,

    L_j = sum_b |p_jb - r_b|    bounds the exact distance D_j = sum_f |x_jf - q_f|,
    lo_j = L_j - delta_j,       delta_j = 4 (d + 1) u (nu_j + mu),  u = 2^-53.

For a block of queries, L_j is taken by scipy's cdist ("cityblock") from the
(queries, n) sums r_b and the stored (m, n) sums p_jb, in whatever order it
adds the n terms.  The argument below holds for a float64 sum in any order,
so it covers cdist's with no further slack.

In exact arithmetic L_j <= D_j by the triangle inequality, and the bound is
tight when neighbouring features move together, as consecutive heart rates
do.  In floating point, let A_j = |x_j|_1 + |q|_1 and gamma_m = m u / (1 - m u).
A float64 addition or subtraction errs by at most u relatively (a subnormal
result is exact), and a float64 sum of m terms, in any order, by at most
gamma_(m-1) times the sum of their magnitudes (Higham, section 4.2).  So
sum_b |p_jb - r_b| exceeds the exact L_j by at most gamma_(w-1) A_j, the
computed L_j is at most (1 + gamma_n) times that, and the computed D_j is at
least (1 - gamma_d) D_j.  As D_j <= A_j, n + w - 1 <= d and gamma_a + gamma_b
+ gamma_a gamma_b <= gamma_(a+b) (Higham, Lemma 3.3), the computed L_j exceeds
the computed D_j by at most 2 gamma_d A_j.  The computed nu_j + mu is at least
(1 - gamma_d) A_j, so the computed delta_j is at least twice that excess.  A
product below 2^-1022 rounds to an absolute 2^-1075, not relatively.  That
matters only if some sum or difference rounded (else the computed L_j is
L_j <= D_j); a rounded result is at least 2^-1022 and every partial result
at most about A_j, so delta_j is then at least about 2^-1072 and loses under
an eighth.  So the computed lo_j is at most the computed D_j.  T is the
largest computed distance of the k rows with the smallest lo_j, so it is at
least the k-th smallest computed distance, and every row of the exact k
nearest has lo_j <= D_j <= T.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

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

# the Manhattan filter: columns per block sum and the unit roundoff of its
# slack (see the module docstring)
PAA_WIDTH = 4
ROUNDOFF64 = 2.0**-53


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
    ):
        super().__init__(X.shape[1])
        self.X = X
        self.y = y
        self.mu = mu
        self.sigma = sigma
        self.k = int(k)
        self.distance = distance
        if distance == MANHATTAN:
            # float64 sums straight from float32, a column block at a time,
            # so no float64 copy of X is made; one array column per block,
            # in the C-contiguous (m, blocks) layout cdist takes as is
            self._starts = np.arange(0, X.shape[1], PAA_WIDTH)
            self._sums = np.empty((X.shape[0], len(self._starts)))
            for b, s in enumerate(self._starts):
                X[:, s : s + PAA_WIDTH].sum(axis=1, dtype=np.float64, out=self._sums[:, b])
            self._l1 = np.abs(X).sum(axis=1, dtype=np.float64)
        else:
            self._xx = np.einsum("ij,ij->i", X, X, dtype=np.float64)
            self._norm = np.sqrt(self._xx)

    def _predict_batch(self, Q: np.ndarray) -> np.ndarray:
        # a C-contiguous (queries, k) gather, so each row's mean has the bits
        # of np.mean over that query's k labels
        return self.y[self._neighbours(Q)].mean(axis=1)

    def neighbours(self, X) -> np.ndarray:
        """The (queries, k) indices of each query's k nearest stored rows,
        nearest first, ties to the lower index.  The first k' columns are
        the k' nearest, for every k' <= k."""
        return self._neighbours(self._check(X, (1, 2)))

    def _neighbours(self, Q: np.ndarray) -> np.ndarray:
        # the float32 parameters widen exactly to float64 inside each ufunc,
        # so no float64 copy of the matrix is made
        q = (Q - self.mu) / self.sigma
        out = np.empty((q.shape[0], self.k), dtype=np.intp)
        # queries are bounded a block at a time: the block keeps the matrix
        # product and cdist wide, and its (block, m) float64 arrays at 1.5
        # times an (m, d) one (Euclidean's three) or 0.5 times (Manhattan's two)
        block = max(1, self.X.shape[1] // (4 if self.distance == MANHATTAN else 2))
        for start in range(0, q.shape[0], block):
            self._rank_block(q[start : start + block], out[start : start + block])
        return out

    def _rank_block(self, qb: np.ndarray, out: np.ndarray) -> None:
        """Fills out with the ranked neighbours of the queries qb.  The
        block's bound arrays live in this frame only, so two blocks' are
        never held at once."""
        bounds = self._manhattan_bounds if self.distance == MANHATTAN else self._bounds
        lo, T = bounds(qb)
        for q, lo_q, t, row in zip(qb, lo, T, out):
            rows = np.arange(lo_q.size) if np.isnan(t) else np.flatnonzero(lo_q <= t)
            d = self._distances(self.X[rows], q)
            row[:] = rows[np.argsort(d, kind="stable")[: self.k]]

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
        """Per query and stored row, the Euclidean lo_j (a lower bound on the
        squared sum); per query, T, the k-th smallest upper bound, or nan
        where an upper bound is not finite."""
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
        # max propagates nan, so these find every nan and infinity
        finite = np.isfinite(hi.max(axis=1)) & np.isfinite(hi.min(axis=1))
        # in place, so no fourth (block, m) array is made
        hi.partition(self.k - 1, axis=1)
        return est, np.where(finite, hi[:, self.k - 1], np.nan)

    def _manhattan_bounds(self, qb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per query and stored row, the lo_j of the module docstring; per
        query, T, the largest exact distance of the k rows with the smallest
        lo_j, or nan where a lo_j is not finite."""
        with np.errstate(all="ignore"):
            lo = cdist(np.add.reduceat(qb, self._starts, axis=1), self._sums, "cityblock")
            slack = np.add.outer(np.abs(qb).sum(axis=1), self._l1)
            slack *= 4 * (self.X.shape[1] + 1) * ROUNDOFF64
            lo -= slack
        del slack  # the loop below holds only lo, as the ranking does
        T = np.full(qb.shape[0], np.nan)
        for i, (q, lo_q) in enumerate(zip(qb, lo)):
            if np.isfinite(lo_q).all():
                near = np.argpartition(lo_q, self.k - 1)[: self.k]
                T[i] = self._distances(self.X[near], q).max()
        return lo, T


def check_knn(n_train: int, k: int, distance: str) -> None:
    """The errors train_knn raises for these settings on n_train rows,
    before any work."""
    if distance not in DISTANCES:
        raise ConfigError(f"distance must be one of {DISTANCES}, got {distance!r}")
    if not MIN_K <= int(k) <= MAX_K:
        raise ConfigError(f"k must be in [{MIN_K}, {MAX_K}], got {k}")
    if int(k) > n_train:
        raise HrvError(f"k={k} exceeds the {n_train} training samples")


def train_knn(train, k: int, distance: str) -> KnnRegressor:
    check_knn(len(train), k, distance)
    X64 = train.features
    mu, sigma = standardize_stats(X64)
    mu32 = mu.astype(np.float32)
    sigma32 = sigma.astype(np.float32)
    Xs = ((X64 - mu32.astype(np.float64)) / sigma32.astype(np.float64)).astype(np.float32)
    return KnnRegressor(Xs, train.labels.copy(), mu32, sigma32, int(k), distance)
