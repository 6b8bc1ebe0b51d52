import math

import numpy as np
import pytest

from ppghrv.data import chronological_split
from ppghrv.errors import ConfigError, HrvError
from ppghrv.metrics import mape
from ppghrv.models import mlp as mlp_module
from ppghrv.models import search as search_module
from ppghrv.models import tree as tree_module
from ppghrv.models.base import ModelKind
from ppghrv.models.codec import encode
from ppghrv.models.forest import train_rf
from ppghrv.models.knn import KnnRegressor, train_knn
from ppghrv.models.search import random_search, sample_hyperparams
from ppghrv.models.tree import train_dt
from ppghrv.synth import derived_seed
from helpers import make_ds


@pytest.fixture(scope="module")
def regression_ds():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(120, 3))
    y = 25.0 + 4.0 * X[:, 0] - 2.0 * X[:, 1] + rng.normal(scale=0.3, size=120)
    return make_ds(X, y)


class TestSampling:
    def test_draws_stay_inside_space(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dt = sample_hyperparams(ModelKind.DT, rng)
            assert 3 <= dt["max_depth"] <= 20
            rf = sample_hyperparams(ModelKind.RF, rng)
            assert 2 <= rf["trees"] <= 128 and 3 <= rf["max_depth"] <= 20
            knn = sample_hyperparams(ModelKind.KNN, rng)
            assert 2 <= knn["k"] <= 30
            assert knn["distance"] in ("manhattan", "euclidean")
            mlp = sample_hyperparams(ModelKind.MLP, rng)
            assert 1 <= len(mlp["hidden_layers"]) <= 5
            assert all(1 <= h <= 100 for h in mlp["hidden_layers"])
            assert mlp["activation"] in ("relu", "tanh")

    def test_full_range_reached(self):
        rng = np.random.default_rng(1)
        depths = {sample_hyperparams(ModelKind.DT, rng)["max_depth"]
                  for _ in range(500)}
        assert depths == set(range(3, 21))


class TestRandomSearch:
    def test_budget_one_returns_that_config(self, regression_ds):
        result = random_search(
            regression_ds, ModelKind.DT, budget=1, seed=3, val_fraction=0.2, mlp_max_epochs=500
        )
        assert len(result.candidates) == 1
        assert result.best.index == 0
        winner = train_dt(regression_ds, result.best.hyperparams["max_depth"])
        assert encode(result.model) == encode(winner)

    def test_best_is_argmin_of_validation_mape(self, regression_ds):
        result = random_search(
            regression_ds, ModelKind.DT, budget=8, seed=4, val_fraction=0.2, mlp_max_epochs=500
        )
        scored = [c.val_mape_pct for c in result.candidates if c.val_mape_pct is not None]
        assert result.best.val_mape_pct == min(scored)

    def test_deterministic(self, regression_ds):
        a = random_search(
            regression_ds, ModelKind.KNN, budget=6, seed=5, val_fraction=0.2, mlp_max_epochs=500
        )
        b = random_search(
            regression_ds, ModelKind.KNN, budget=6, seed=5, val_fraction=0.2, mlp_max_epochs=500
        )
        assert a.best.hyperparams == b.best.hyperparams
        assert [c.val_mape_pct for c in a.candidates] == [
            c.val_mape_pct for c in b.candidates
        ]

    def test_failing_candidates_are_skipped(self, regression_ds):
        # k range 2..30 straddles the fit split, so some draws fail
        small = make_ds(regression_ds.features[:20], regression_ds.labels[:20])
        # fit split holds 16 samples; k in 17..30 raises HrvError
        result = random_search(
            small, ModelKind.KNN, budget=12, seed=6, val_fraction=0.2, mlp_max_epochs=500
        )
        failed = [c for c in result.candidates if c.val_mape_pct is None]
        scored = [c for c in result.candidates if c.val_mape_pct is not None]
        assert failed and scored
        assert all(c.error for c in failed)
        assert result.best.val_mape_pct == min(c.val_mape_pct for c in scored)

    def test_all_candidates_failing_raises(self, regression_ds):
        # the fit split holds 1 sample, below every k >= MIN_K
        small = make_ds(regression_ds.features[:2], regression_ds.labels[:2])
        with pytest.raises(HrvError, match='all 4 sampled configurations failed'):
            random_search(
                small, ModelKind.KNN, budget=4, seed=7, val_fraction=0.2, mlp_max_epochs=500
            )

    def test_non_finite_validation_mape_fails_the_candidate(self, regression_ds, monkeypatch):
        scores = []

        def nan_first(preds, truths):
            scores.append(float("nan") if not scores else mape(preds, truths))
            return scores[-1]

        monkeypatch.setattr(search_module, "mape", nan_first)
        result = random_search(
            regression_ds, ModelKind.KNN, budget=3, seed=9, val_fraction=0.2, mlp_max_epochs=500
        )
        first, *rest = result.candidates
        assert first.val_mape_pct is None and "validation MAPE is nan" in first.error
        assert all(c.val_mape_pct is not None for c in rest)
        assert np.isfinite(result.best.val_mape_pct)

    def test_mlp_search_uses_training_config(self, regression_ds, monkeypatch):
        # candidates early-stop within mlp_max_epochs; the winner's retrain
        # runs a fixed epoch count that cannot exceed it
        seen_max_epochs, retrain_epochs = [], []
        real_candidate, real_retrain = search_module.fit_early_stopped, search_module.fit_epochs

        def candidate_spy(*args):
            seen_max_epochs.append(args[3])
            return real_candidate(*args)

        def retrain_spy(*args):
            retrain_epochs.append(args[3])
            return real_retrain(*args)

        monkeypatch.setattr(search_module, "fit_early_stopped", candidate_spy)
        monkeypatch.setattr(search_module, "fit_epochs", retrain_spy)
        result = random_search(
            regression_ds, ModelKind.MLP, budget=2, seed=8, mlp_max_epochs=5, val_fraction=0.2
        )
        assert seen_max_epochs == [5, 5]
        assert retrain_epochs == [result.best.best_epoch + 1]
        assert 1 <= retrain_epochs[0] <= 5

    def test_best_epoch_only_for_mlp(self, regression_ds):
        mlp = random_search(
            regression_ds, ModelKind.MLP, budget=3, seed=8, mlp_max_epochs=40, val_fraction=0.2
        )
        assert all(0 <= c.best_epoch < 40 for c in mlp.candidates)
        for kind in (ModelKind.DT, ModelKind.KNN):
            result = random_search(
                regression_ds, kind, budget=3, seed=8, val_fraction=0.2, mlp_max_epochs=500
            )
            assert all(c.best_epoch is None for c in result.candidates)
        small = make_ds(regression_ds.features[:20], regression_ds.labels[:20])
        failed = random_search(
            small, ModelKind.KNN, budget=12, seed=6, val_fraction=0.2, mlp_max_epochs=500
        ).candidates
        assert all(c.best_epoch is None for c in failed if c.error)

    def test_bad_budget_and_fraction(self, regression_ds):
        with pytest.raises(ConfigError):
            random_search(
                regression_ds, ModelKind.DT, budget=0, seed=0, val_fraction=0.2, mlp_max_epochs=500
            )
        with pytest.raises(ConfigError):
            random_search(
                regression_ds, ModelKind.DT, budget=1, seed=0, val_fraction=1.0, mlp_max_epochs=500
            )

    def test_negative_seed_is_config_error(self, regression_ds):
        # numpy's SeedSequence would raise a bare ValueError for it
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            random_search(regression_ds, ModelKind.DT, 1, -1, 0.2, 500)


class TestEveryKind:
    """For every model kind, each candidate scores what training it alone on
    the fit rows scores, and the winner is its retrain on all of train."""

    MAX_EPOCHS = 20

    @classmethod
    def alone(cls, kind, train, p, seed):
        if kind is ModelKind.DT:
            return train_dt(train, p["max_depth"])
        if kind is ModelKind.RF:
            return train_rf(train, p["trees"], p["max_depth"], seed)
        if kind is ModelKind.KNN:
            return train_knn(train, p["k"], p["distance"])
        return mlp_module.fit_early_stopped(
            train, p["hidden_layers"], p["activation"], cls.MAX_EPOCHS, seed
        )[0]

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_candidates_and_winner(self, kind, regression_ds):
        small = make_ds(regression_ds.features[:40], regression_ds.labels[:40])
        budget, seed = 2, 17
        result = random_search(
            small, kind, budget=budget, seed=seed, val_fraction=0.2,
            mlp_max_epochs=self.MAX_EPOCHS,
        )
        seeds = [derived_seed((seed, 1 + i)) for i in range(budget)]
        fit, holdout = chronological_split(small, 0.8)
        expected = [
            mape(self.alone(kind, fit, c.hyperparams, seeds[c.index])
                 .predict_batch(holdout.features), holdout.labels)
            for c in result.candidates
        ]
        assert [c.val_mape_pct for c in result.candidates] == expected
        best = result.best
        if kind is ModelKind.MLP:
            winner = mlp_module.fit_epochs(
                small, best.hyperparams["hidden_layers"], best.hyperparams["activation"],
                best.best_epoch + 1, seeds[best.index],
            )
        else:
            winner = self.alone(kind, small, best.hyperparams, seeds[best.index])
        assert encode(result.model) == encode(winner)


class TestDtSearchFromOneGrow:
    """A dt search cuts its candidates from one tree grown on the fit rows;
    its results are those of training every candidate alone."""

    def test_same_as_training_each_candidate(self, regression_ds):
        budget, seed = 6, 11
        result = random_search(
            regression_ds, ModelKind.DT,
            budget=budget, seed=seed, val_fraction=0.2, mlp_max_epochs=500
        )
        sampler = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        drawn = [sample_hyperparams(ModelKind.DT, sampler) for _ in range(budget)]
        fit, holdout = chronological_split(regression_ds, 0.8)
        expected = [
            mape(train_dt(fit, p["max_depth"]).predict_batch(holdout.features), holdout.labels)
            for p in drawn
        ]
        assert [c.hyperparams for c in result.candidates] == drawn
        assert [c.val_mape_pct for c in result.candidates] == expected
        winner = train_dt(regression_ds, result.best.hyperparams["max_depth"])
        for field in ("feature", "threshold", "right", "value"):
            assert getattr(result.model.nodes, field).tobytes() == \
                getattr(winner.nodes, field).tobytes()

    def test_grows_two_trees(self, regression_ds, monkeypatch):
        grown = []
        real = tree_module._grow

        def spy(X, y, max_depth):
            grown.append((y.size, max_depth))
            return real(X, y, max_depth)

        monkeypatch.setattr(tree_module, "_grow", spy)
        result = random_search(
            regression_ds, ModelKind.DT, budget=5, seed=12, val_fraction=0.2, mlp_max_epochs=500
        )
        deepest = max(c.hyperparams["max_depth"] for c in result.candidates)
        fit, _ = chronological_split(regression_ds, 0.8)
        assert grown == [
            (len(fit), deepest),
            (len(regression_ds), result.best.hyperparams["max_depth"]),
        ]

    def test_failed_grow_fails_every_candidate(self, regression_ds, monkeypatch, caplog):
        def failing_grow(X, y, max_depth):
            raise HrvError("grow failed")

        monkeypatch.setattr(tree_module, "_grow", failing_grow)
        with caplog.at_level("WARNING", logger=search_module.__name__):
            with pytest.raises(HrvError, match="all 4 sampled.*grow failed"):
                random_search(
                    regression_ds, ModelKind.DT,
                    budget=4, seed=13, val_fraction=0.2, mlp_max_epochs=500
                )
        failed = [r.getMessage() for r in caplog.records]
        assert len(failed) == 4
        for i, message in enumerate(failed):
            assert message.startswith(f"search candidate {i} (")
            assert message.endswith("failed: grow failed")


class TestKnnSearchFromOneRanking:
    """A knn search ranks the holdout once per distance and scores each
    candidate from the first k columns; its results are those of training
    every candidate alone."""

    # the fit rows hold 16 samples; k = 20 cannot train, and k = 7 repeats
    DRAWN = [
        {"k": 7, "distance": "euclidean"},
        {"k": 3, "distance": "manhattan"},
        {"k": 20, "distance": "manhattan"},
        {"k": 16, "distance": "euclidean"},
        {"k": 7, "distance": "manhattan"},
        {"k": 7, "distance": "euclidean"},
        {"k": 2, "distance": "manhattan"},
    ]

    @pytest.fixture
    def drawn(self, monkeypatch):
        draws = iter(self.DRAWN)
        monkeypatch.setattr(search_module, "sample_hyperparams", lambda kind, rng: next(draws))
        return self.DRAWN

    @pytest.fixture
    def small(self, regression_ds):
        return make_ds(regression_ds.features[:20], regression_ds.labels[:20])

    def test_same_as_training_each_candidate(self, small, drawn):
        result = random_search(
            small, ModelKind.KNN,
            budget=len(drawn), seed=14, val_fraction=0.2, mlp_max_epochs=500
        )
        fit, holdout = chronological_split(small, 0.8)
        expected = [
            None if p["k"] > len(fit) else mape(
                train_knn(fit, p["k"], p["distance"]).predict_batch(holdout.features),
                holdout.labels,
            )
            for p in drawn
        ]
        assert [c.hyperparams for c in result.candidates] == drawn
        assert [c.val_mape_pct for c in result.candidates] == expected
        assert result.candidates[2].error == "k=20 exceeds the 16 training samples"
        best = result.best.hyperparams
        winner = train_knn(small, best["k"], best["distance"])
        assert encode(result.model) == encode(winner)

    def test_one_ranking_per_distance_at_the_largest_trainable_k(
        self, small, drawn, monkeypatch
    ):
        ranked = []
        real = KnnRegressor.neighbours

        def spy(self, X):
            ranked.append((self.distance, self.k))
            return real(self, X)

        monkeypatch.setattr(KnnRegressor, "neighbours", spy)
        random_search(
            small, ModelKind.KNN, budget=len(drawn), seed=14, val_fraction=0.2, mlp_max_epochs=500
        )
        assert ranked == [("euclidean", 16), ("manhattan", 7)]


class TestMlpRetrain:
    """The MLP winner is retrained on all of train for its candidate's best
    epoch + 1 epochs: no holdout, no early stop, no validation pass."""

    @staticmethod
    def _count_retrain_steps(monkeypatch):
        """Spies counting (batch steps, forward passes) inside fit_epochs."""
        counts = {"steps": 0, "forwards": 0}
        inside = []
        real_step, real_forward = mlp_module.loss_and_grads, mlp_module.forward
        real_retrain = search_module.fit_epochs

        def step(*args):
            counts["steps"] += bool(inside)
            return real_step(*args)

        def forward(*args):
            counts["forwards"] += bool(inside)
            return real_forward(*args)

        def retrain(*args):
            inside.append(True)
            try:
                return real_retrain(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(mlp_module, "loss_and_grads", step)
        monkeypatch.setattr(mlp_module, "forward", forward)
        monkeypatch.setattr(search_module, "fit_epochs", retrain)
        return counts

    def test_retrain_steps_are_best_epoch_plus_one_epochs(self, regression_ds, monkeypatch):
        # noisy labels make the winning candidate stop early
        rng = np.random.default_rng(21)
        noisy = make_ds(regression_ds.features,
                        regression_ds.labels + rng.normal(scale=10.0, size=len(regression_ds)))
        counts = self._count_retrain_steps(monkeypatch)
        result = random_search(
            noisy, ModelKind.MLP, budget=3, seed=16, mlp_max_epochs=200, val_fraction=0.2
        )
        assert result.best.best_epoch + mlp_module.PATIENCE < 200 - 1
        batches = math.ceil(len(noisy) / mlp_module.BATCH_SIZE)
        assert counts["steps"] == (result.best.best_epoch + 1) * batches
        assert counts["forwards"] == 0

    def test_best_epoch_zero_retrains_one_epoch(self, regression_ds, monkeypatch):
        counts = self._count_retrain_steps(monkeypatch)
        # one epoch allowed: every candidate's best epoch is its first
        result = random_search(
            regression_ds, ModelKind.MLP, budget=2, seed=15, mlp_max_epochs=1, val_fraction=0.2
        )
        assert [c.best_epoch for c in result.candidates] == [0, 0]
        assert counts["steps"] == math.ceil(len(regression_ds) / mlp_module.BATCH_SIZE)
        assert np.all(np.isfinite(result.model.predict_batch(regression_ds.features)))

    def test_set_smaller_than_a_batch(self, regression_ds, monkeypatch):
        small = make_ds(regression_ds.features[:20], regression_ds.labels[:20])
        assert len(small) < mlp_module.BATCH_SIZE
        steps = []
        real_step = mlp_module.loss_and_grads

        def step(params, X, y, activation):
            steps.append(y.size)
            return real_step(params, X, y, activation)

        monkeypatch.setattr(mlp_module, "loss_and_grads", step)
        model = mlp_module.fit_epochs(small, (4,), "relu", 3, seed=0)
        assert steps == [20, 20, 20]
        assert np.all(np.isfinite(model.predict_batch(small.features)))

    def test_retrain_matches_a_direct_fit(self, regression_ds):
        result = random_search(
            regression_ds, ModelKind.MLP, budget=2, seed=16, mlp_max_epochs=30, val_fraction=0.2
        )
        seed = int(np.random.SeedSequence((16, 1 + result.best.index)).generate_state(1)[0])
        direct = mlp_module.fit_epochs(
            regression_ds, result.best.hyperparams["hidden_layers"],
            result.best.hyperparams["activation"], result.best.best_epoch + 1, seed,
        )
        assert encode(result.model) == encode(direct)

    def test_epochs_below_one_rejected(self, regression_ds):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            mlp_module.fit_epochs(regression_ds, (4,), "relu", 0, seed=0)
