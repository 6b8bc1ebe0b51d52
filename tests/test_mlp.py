import hashlib

import numpy as np
import pytest

from ppghrv.errors import ConfigError, HrvError
from ppghrv.models import mlp
from ppghrv.models.mlp import MlpTrainingConfig, forward, init_params, loss_and_grads, train_mlp
from helpers import make_ds

FD_STEP = 1e-5


class TestForwardPass:
    def test_zero_params_predict_zero(self):
        rng = np.random.default_rng(0)
        params = [
            (np.zeros((4, 3)), np.zeros(3)),
            (np.zeros((3, 1)), np.zeros(1)),
        ]
        for act in ("relu", "tanh"):
            out = forward(params, rng.normal(size=(10, 4)), act)
            np.testing.assert_array_equal(out, np.zeros(10))

    def test_known_tiny_network(self):
        # one hidden relu unit computing max(2x, 0), output scales by 3
        params = [
            (np.array([[2.0]]), np.array([0.0])),
            (np.array([[3.0]]), np.array([1.0])),
        ]
        X = np.array([[2.0], [-5.0]])
        np.testing.assert_allclose(forward(params, X, "relu"), [13.0, 1.0])


class TestGradientCheck:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_central_differences(self, activation):
        # 2-3-1 network, 5 random draws, every coordinate of every layer
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_params((2, 3, 1), rng)
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            _, grads = loss_and_grads(params, X, y, activation)
            worst = 0.0
            for li, (W, b) in enumerate(params):
                for arr, g in ((W, grads[li][0]), (b, grads[li][1])):
                    flat = arr.ravel()
                    gflat = np.asarray(g).ravel()
                    for j in range(flat.size):
                        orig = flat[j]
                        flat[j] = orig + FD_STEP
                        lp = loss_and_grads(params, X, y, activation)[0]
                        flat[j] = orig - FD_STEP
                        lm = loss_and_grads(params, X, y, activation)[0]
                        flat[j] = orig
                        numeric = (lp - lm) / (2.0 * FD_STEP)
                        scale = max(abs(numeric), abs(gflat[j]), 1e-8)
                        worst = max(worst, abs(numeric - gflat[j]) / scale)
            assert worst < 1e-4


def reference_loss_and_grads(params, X, y, activation):
    """The backprop before the gradients shared one buffer: fresh arrays for
    each layer's activation, delta and gradient."""
    acts = [X]
    for W, b in params[:-1]:
        z = acts[-1] @ W
        z += b
        acts.append(np.maximum(z, 0.0, out=z) if activation == "relu" else np.tanh(z, out=z))
    W_out, b_out = params[-1]
    resid = (acts[-1] @ W_out + b_out)[:, 0] - y
    m = y.size
    loss = float(np.mean(resid * resid))
    grads = [None] * len(params)
    delta = (2.0 / m) * resid[:, None]
    grads[-1] = (acts[-1].T @ delta, delta.sum(axis=0))
    up = delta @ W_out.T
    for i in range(len(params) - 2, -1, -1):
        a = acts[i + 1]
        dz = up * (a > 0.0) if activation == "relu" else up * (1.0 - a * a)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
        if i:
            up = dz @ params[i][0].T
    return loss, grads


def reference_epochs(params, X, y, activation, rng, max_epochs):
    """The per-layer SGD loop: four numpy calls per layer to update."""
    for epoch in range(max_epochs):
        order = rng.permutation(y.size)
        for lo in range(0, y.size, mlp.BATCH_SIZE):
            batch = order[lo : lo + mlp.BATCH_SIZE]
            loss, grads = reference_loss_and_grads(params, X[batch], y[batch], activation)
            assert np.isfinite(loss)
            for (W, b), (dW, db) in zip(params, grads):
                dW *= mlp.LEARNING_RATE
                W -= dW
                db *= mlp.LEARNING_RATE
                b -= db
        yield epoch


class TestOneBufferStep:
    """_epochs updates one parameter buffer in two numpy calls a step; every
    parameter keeps the bits the per-layer loop gives it, epoch by epoch."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(6,), (5, 4, 3), (4, 3, 5, 3, 4)])
    @pytest.mark.parametrize("n", [70, 20])  # not a multiple of a batch; under one
    def test_same_bits_as_the_per_layer_loop(self, activation, hidden, n):
        assert n % mlp.BATCH_SIZE
        rng = np.random.default_rng(n + len(hidden))
        ds = make_ds(rng.normal(size=(n, 7)), 60.0 + 5.0 * rng.normal(size=n))
        Xs, ys, params, _, _ = mlp._prepare(ds, hidden, activation, seed=4)
        flat = params[0][0].base
        assert all(W.base is flat and b.base is flat for W, b in params)
        ref = [(W.copy(), b.copy()) for W, b in params]
        steps = zip(
            mlp._epochs(params, Xs, ys, activation, np.random.default_rng(9), 6),
            reference_epochs(ref, Xs, ys, activation, np.random.default_rng(9), 6),
        )
        for epoch, ref_epoch in steps:
            assert epoch == ref_epoch
            for (W, b), (W_ref, b_ref) in zip(params, ref):
                assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        assert epoch == 5

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_non_finite_batch_loss_is_data_error(self, activation):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.normal(size=(40, 3)), 60.0 + rng.normal(size=40))
        Xs, ys, params, _, _ = mlp._prepare(ds, (4,), activation, seed=0)
        epochs = mlp._epochs(params, Xs, ys, activation, np.random.default_rng(0), 3)
        assert next(epochs) == 0
        params[0][0][0, 0] = np.nan  # a nan propagates without a numpy warning
        with pytest.raises(HrvError, match=r"non-finite batch loss at epoch 1 \(lr="):
            next(epochs)


class TestTraining:
    def test_learns_affine_function(self):
        # y = 2x + 1 on [0, 1]; a 1x8 tanh net should fit almost exactly
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, size=200)
        ds = make_ds(x, 2.0 * x + 1.0)
        cfg = MlpTrainingConfig(max_epochs=2000)
        model = train_mlp(ds, hidden_layers=(8,), activation="tanh", cfg=cfg, seed=0)
        preds = model.predict_batch(ds.features)
        mse = float(np.mean((preds - ds.labels) ** 2))
        assert mse < 0.01

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        ds = make_ds(rng.normal(size=(60, 3)), rng.uniform(10, 20, size=60))
        cfg = MlpTrainingConfig(max_epochs=30)
        a = train_mlp(ds, (5,), "relu", cfg=cfg, seed=7)
        b = train_mlp(ds, (5,), "relu", cfg=cfg, seed=7)
        for (Wa, ba), (Wb, bb) in zip(a.params, b.params):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(5)
        ds = make_ds(rng.normal(size=(60, 3)), rng.uniform(10, 20, size=60))
        cfg = MlpTrainingConfig(max_epochs=5)
        a = train_mlp(ds, (5,), "relu", cfg=cfg, seed=1)
        b = train_mlp(ds, (5,), "relu", cfg=cfg, seed=2)
        assert not np.array_equal(a.params[0][0], b.params[0][0])

    def test_diverged_loss_raised(self, monkeypatch):
        rng = np.random.default_rng(6)
        ds = make_ds(rng.normal(size=(80, 2)), rng.uniform(10, 20, size=80))
        monkeypatch.setattr(mlp, "LEARNING_RATE", 1e9)
        cfg = MlpTrainingConfig(max_epochs=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(HrvError, match='non-finite (batch|validation) loss'):
                train_mlp(ds, (10, 10), "relu", cfg=cfg, seed=0)

    def test_early_stopped_weights_are_pinned(self, monkeypatch):
        # noisy labels: validation stops improving at epoch 134 and the fit
        # stops PATIENCE epochs later, well before max_epochs
        rng = np.random.default_rng(31)
        X = rng.normal(size=(90, 4))
        y = 30.0 + 3.0 * X[:, 0] + rng.normal(scale=30.0, size=90)
        epochs = []
        real_forward = mlp.forward

        def counting_forward(*args):
            epochs.append(1)
            return real_forward(*args)

        monkeypatch.setattr(mlp, "forward", counting_forward)
        model = train_mlp(make_ds(X, y), (6, 4), "tanh",
                          cfg=MlpTrainingConfig(max_epochs=400), seed=3)
        assert len(epochs) == 155  # one validation pass per epoch
        digest = hashlib.sha256()
        for W, b in model.params:  # hashed as float32, the width they hold
            digest.update(W.astype(np.float32).tobytes())
            digest.update(b.astype(np.float32).tobytes())
        assert digest.hexdigest() == (
            "94fe52726cbde1ddf7d2377103379c2b3d7e5ad8b330dece726dc8ed291ec912"
        )

    def test_constant_labels_fit(self):
        rng = np.random.default_rng(7)
        ds = make_ds(rng.normal(size=(50, 2)), np.full(50, 42.0))
        model = train_mlp(ds, (4,), "tanh", cfg=MlpTrainingConfig(max_epochs=20), seed=0)
        # label std is zero; destandardization must still return the mean
        assert model.predict(rng.normal(size=2)) == pytest.approx(42.0, abs=1.0)


class TestMlpValidation:
    def test_architecture_bounds(self):
        ds = make_ds(np.arange(10.0), np.arange(10.0) + 1.0)
        with pytest.raises(ConfigError):
            train_mlp(ds, (), "relu")
        with pytest.raises(ConfigError):
            train_mlp(ds, (1, 1, 1, 1, 1, 1), "relu")
        with pytest.raises(ConfigError):
            train_mlp(ds, (101,), "relu")
        with pytest.raises(ConfigError):
            train_mlp(ds, (5,), "sigmoid")

    def test_empty_dataset(self):
        with pytest.raises(HrvError, match='a dataset needs at least one sample'):
            train_mlp(make_ds(np.empty((0, 2)), np.empty(0)), (5,), "relu")

    def test_training_config_validated(self):
        with pytest.raises(ConfigError):
            MlpTrainingConfig(max_epochs=0)
