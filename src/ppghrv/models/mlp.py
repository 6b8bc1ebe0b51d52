"""Fully-connected regressor trained with mini-batch gradient descent.

Features and labels are z-normalised with statistics from the training
split only; predictions are de-normalised on the way out.  Training runs
in float64.  The MlpRegressor constructor is the one place that rounds the
weights, biases and feature statistics to float32; it keeps only their
float64 form, which the codec narrows back exactly, so the serialised model
predicts bit-identically.

Two fits share one SGD epoch loop (_epochs).  fit_early_stopped holds out
the chronological tail of train and keeps the best epoch's weights.
fit_epochs trains on all of train for a fixed number of epochs, as a search
retrains its winner for the winning candidate's best epoch + 1 (Goodfellow
et al., Deep Learning, 2016, §7.8).

init_params / forward / loss_and_grads are module functions so tests can
drive them directly (finite-difference gradient checks, zero-weight
forward-pass identities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, HrvError
from ..synth import derived_rng
from .base import ModelKind, TrainedModel
from .knn import standardize_stats

RELU = "relu"
TANH = "tanh"
ACTIVATIONS = (RELU, TANH)

MAX_HIDDEN_LAYERS = 5
MAX_NEURONS_PER_LAYER = 100

BATCH_SIZE = 32
LEARNING_RATE = 1e-3
PATIENCE = 20         # epochs without val improvement before stopping
VAL_FRACTION = 0.1    # chronological tail of train used for early stop
DEFAULT_MAX_EPOCHS = 500


def check_max_epochs(epochs: int) -> None:
    """ConfigError unless an MLP fit may run this many epochs."""
    if epochs < 1:
        raise ConfigError(f"max_epochs must be >= 1, got {epochs}")


@dataclass(frozen=True)
class MlpTrainingConfig:
    """train_mlp's settings.  The package itself passes max_epochs as an int;
    this class and train_mlp stay because perfbench/workloads.py calls them."""

    max_epochs: int = DEFAULT_MAX_EPOCHS

    def __post_init__(self):
        check_max_epochs(self.max_epochs)


def init_params(layer_sizes, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Glorot-uniform weights, zero biases; layer_sizes includes in/out."""
    params = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        params.append((W, np.zeros(fan_out, dtype=np.float64)))
    return params


def _hidden(a: np.ndarray, W: np.ndarray, b: np.ndarray, activation: str) -> np.ndarray:
    """One hidden layer's activation, computed in its pre-activation array."""
    z = a @ W
    z += b
    if activation == RELU:
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def forward(params, X: np.ndarray, activation: str) -> np.ndarray:
    """Network output (linear last layer), shape (m,)."""
    a = X
    for W, b in params[:-1]:
        a = _hidden(a, W, b, activation)
    W, b = params[-1]
    return (a @ W + b)[:, 0]


def loss_and_grads(params, X: np.ndarray, y: np.ndarray, activation: str):
    """MSE loss over the batch plus its gradients, matching params' layout."""
    acts = [X]
    for W, b in params[:-1]:
        acts.append(_hidden(acts[-1], W, b, activation))
    W_out, b_out = params[-1]
    yhat = (acts[-1] @ W_out + b_out)[:, 0]
    resid = yhat - y
    m = y.size
    loss = float(np.mean(resid * resid))

    grads = [None] * len(params)
    delta = (2.0 / m) * resid[:, None]          # dL/d(output pre-activation)
    grads[-1] = (acts[-1].T @ delta, delta.sum(axis=0))
    up = delta @ W_out.T
    for i in range(len(params) - 2, -1, -1):
        # the derivative from the stored activation a: relu's a > 0 iff z > 0,
        # and tanh's 1 - a*a is 1 - tanh(z)^2 to the bit
        a = acts[i + 1]
        if activation == RELU:
            dz = up * (a > 0.0)
        else:
            dz = up * (1.0 - a * a)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
        if i:
            up = dz @ params[i][0].T
    return loss, grads


def _rounded(a: np.ndarray) -> np.ndarray:
    """a rounded to float32 and widened back to float64."""
    return a.astype(np.float32).astype(np.float64)


class MlpRegressor(TrainedModel):
    """Keeps params (W, b per layer), x_mu and x_sigma as float64 arrays
    holding float32 values; the label statistics stay float64."""

    kind = ModelKind.MLP

    def __init__(
        self,
        params: list[tuple[np.ndarray, np.ndarray]],
        activation: str,
        x_mu: np.ndarray,
        x_sigma: np.ndarray,
        y_mu: float,
        y_sigma: float,
    ):
        super().__init__(params[0][0].shape[0])
        self.params = [(_rounded(W), _rounded(b)) for W, b in params]
        self.activation = activation
        self.x_mu = _rounded(x_mu)
        self.x_sigma = _rounded(x_sigma)
        self.y_mu = float(y_mu)
        self.y_sigma = float(y_sigma)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        # an estimate that overflows is returned as it is; its caller
        # (metrics.mape, bench) raises HrvError on one that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            Xs = (X - self.x_mu) / self.x_sigma
            out = forward(self.params, Xs, self.activation)
            return out * self.y_sigma + self.y_mu


def train_mlp(
    train,
    hidden_layers,
    activation: str,
    cfg: MlpTrainingConfig | None = None,
    seed: int = 0,
) -> MlpRegressor:
    """fit_early_stopped's model; kept only because perfbench/workloads.py
    calls it."""
    cfg = cfg or MlpTrainingConfig()
    return fit_early_stopped(train, hidden_layers, activation, cfg.max_epochs, seed)[0]


def fit_early_stopped(train, hidden_layers, activation: str, max_epochs: int, seed: int):
    """(model, best epoch): SGD on all but the last VAL_FRACTION of train for
    at most max_epochs epochs, stopped after PATIENCE epochs without a better
    validation loss; the model keeps the weights of the best epoch (0-based)."""
    check_max_epochs(max_epochs)
    Xs, ys, params, rng, finish = _prepare(train, hidden_layers, activation, seed)
    m = ys.size
    n_val = int(np.floor(VAL_FRACTION * m))
    if n_val >= 1:
        X_tr, y_tr = Xs[: m - n_val], ys[: m - n_val]
        X_val, y_val = Xs[m - n_val :], ys[m - n_val :]
    else:
        X_tr, y_tr = Xs, ys          # too small to hold anything out
        X_val, y_val = Xs, ys

    best = [(W.copy(), b.copy()) for W, b in params]
    best_epoch = 0
    best_val = np.inf
    stall = 0
    for epoch in _epochs(params, X_tr, y_tr, activation, rng, max_epochs):
        val_pred = forward(params, X_val, activation)
        val_loss = float(np.mean((val_pred - y_val) ** 2))
        if not np.isfinite(val_loss):
            raise HrvError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best = [(W.copy(), b.copy()) for W, b in params]
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= PATIENCE:
                break
    return finish(best), best_epoch


def fit_epochs(train, hidden_layers, activation: str, epochs: int, seed: int) -> MlpRegressor:
    """SGD on all of train for exactly `epochs` epochs, with no holdout and
    no early stop; the model keeps the weights after the last epoch."""
    check_max_epochs(epochs)
    Xs, ys, params, rng, finish = _prepare(train, hidden_layers, activation, seed)
    for _ in _epochs(params, Xs, ys, activation, rng, epochs):
        pass
    return finish(params)


def _prepare(train, hidden_layers, activation: str, seed: int):
    """Checked architecture -> (standardised X, standardised y, initial
    params, the seeded rng, params -> MlpRegressor)."""
    hidden = tuple(int(h) for h in hidden_layers)
    if not 1 <= len(hidden) <= MAX_HIDDEN_LAYERS:
        raise ConfigError(f"need 1..{MAX_HIDDEN_LAYERS} hidden layers, got {len(hidden)}")
    if any(not 1 <= h <= MAX_NEURONS_PER_LAYER for h in hidden):
        raise ConfigError(f"hidden widths must lie in [1, {MAX_NEURONS_PER_LAYER}]")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")

    X64 = train.features
    y64 = train.labels
    x_mu, x_sigma = standardize_stats(X64)
    y_mu = float(y64.mean())
    y_sigma = float(y64.std())
    if y_sigma == 0.0:
        y_sigma = 1.0
    Xs = (X64 - x_mu) / x_sigma
    ys = (y64 - y_mu) / y_sigma

    rng = derived_rng((int(seed), 0))
    layer_sizes = (X64.shape[1],) + hidden + (1,)
    params = init_params(layer_sizes, rng)

    def finish(kept) -> MlpRegressor:
        return MlpRegressor(kept, activation, x_mu, x_sigma, y_mu, y_sigma)

    return Xs, ys, params, rng, finish


def _epochs(params, X: np.ndarray, y: np.ndarray, activation: str, rng, max_epochs: int):
    """Mini-batch SGD on (X, y), updating params in place; yields each epoch's
    0-based index once its batches are done.  The one SGD loop: both fits
    run it, so they share every bit of their steps."""
    for epoch in range(max_epochs):
        order = rng.permutation(y.size)
        for lo in range(0, y.size, BATCH_SIZE):
            batch = order[lo : lo + BATCH_SIZE]
            loss, grads = loss_and_grads(params, X[batch], y[batch], activation)
            if not np.isfinite(loss):
                raise HrvError(
                    f"non-finite batch loss at epoch {epoch} (lr={LEARNING_RATE})"
                )
            # in place; dW *= lr; W -= dW rounds as W - lr * dW does
            for (W, b), (dW, db) in zip(params, grads):
                dW *= LEARNING_RATE
                W -= dW
                db *= LEARNING_RATE
                b -= db
        yield epoch
