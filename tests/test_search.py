import numpy as np
import pytest

from ppghrv.data import chronological_split
from ppghrv.errors import ConfigError, HrvError
from ppghrv.metrics import mape
from ppghrv.models import search as search_module
from ppghrv.models import tree as tree_module
from ppghrv.models.base import ModelKind
from ppghrv.models.codec import encode
from ppghrv.models.search import random_search, sample_hyperparams
from ppghrv.models.tree import train_dt
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
        result = random_search(regression_ds, ModelKind.DT, budget=1, seed=3)
        assert len(result.candidates) == 1
        assert result.best.index == 0
        winner = train_dt(regression_ds, result.best.hyperparams["max_depth"])
        assert encode(result.model) == encode(winner)

    def test_best_is_argmin_of_validation_mape(self, regression_ds):
        result = random_search(regression_ds, ModelKind.DT, budget=8, seed=4)
        scored = [c.val_mape_pct for c in result.candidates if c.val_mape_pct is not None]
        assert result.best.val_mape_pct == min(scored)

    def test_deterministic(self, regression_ds):
        a = random_search(regression_ds, ModelKind.KNN, budget=6, seed=5)
        b = random_search(regression_ds, ModelKind.KNN, budget=6, seed=5)
        assert a.best.hyperparams == b.best.hyperparams
        assert [c.val_mape_pct for c in a.candidates] == [
            c.val_mape_pct for c in b.candidates
        ]

    def test_failing_candidates_are_skipped(self, regression_ds):
        # k range 2..30 straddles the fit split, so some draws fail
        small = make_ds(regression_ds.features[:20], regression_ds.labels[:20])
        # fit split holds 16 samples; k in 17..30 raises HrvError
        result = random_search(small, ModelKind.KNN, budget=12, seed=6)
        failed = [c for c in result.candidates if c.val_mape_pct is None]
        scored = [c for c in result.candidates if c.val_mape_pct is not None]
        assert failed and scored
        assert all(c.error for c in failed)
        assert result.best.val_mape_pct == min(c.val_mape_pct for c in scored)

    def test_all_candidates_failing_raises(self, regression_ds):
        # the fit split holds 1 sample, below every k >= MIN_K
        small = make_ds(regression_ds.features[:2], regression_ds.labels[:2])
        with pytest.raises(HrvError, match='all 4 sampled configurations failed'):
            random_search(small, ModelKind.KNN, budget=4, seed=7)

    def test_non_finite_validation_mape_fails_the_candidate(self, regression_ds, monkeypatch):
        scores = []

        def nan_first(preds, truths):
            scores.append(float("nan") if not scores else mape(preds, truths))
            return scores[-1]

        monkeypatch.setattr(search_module, "mape", nan_first)
        result = random_search(regression_ds, ModelKind.KNN, budget=3, seed=9)
        first, *rest = result.candidates
        assert first.val_mape_pct is None and "validation MAPE is nan" in first.error
        assert all(c.val_mape_pct is not None for c in rest)
        assert np.isfinite(result.best.val_mape_pct)

    def test_mlp_search_uses_training_config(self, regression_ds, monkeypatch):
        seen = []
        real = search_module.train_mlp

        def spy(*args, **kwargs):
            seen.append(kwargs["cfg"])
            return real(*args, **kwargs)

        monkeypatch.setattr(search_module, "train_mlp", spy)
        random_search(regression_ds, ModelKind.MLP, budget=2, seed=8, mlp_max_epochs=5)
        assert len(seen) == 3  # two candidates and the retrained winner
        assert all(c.max_epochs == 5 for c in seen)

    def test_bad_budget_and_fraction(self, regression_ds):
        with pytest.raises(ConfigError):
            random_search(regression_ds, ModelKind.DT, budget=0, seed=0)
        with pytest.raises(ConfigError):
            random_search(regression_ds, ModelKind.DT, budget=1, seed=0, val_fraction=1.0)


class TestDtSearchFromOneGrow:
    """A dt search cuts its candidates from one tree grown on the fit rows;
    its results are those of training every candidate alone."""

    def test_same_as_training_each_candidate(self, regression_ds):
        budget, seed = 6, 11
        result = random_search(regression_ds, ModelKind.DT, budget=budget, seed=seed)
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
        for field in ("feature", "threshold", "left", "right", "value"):
            assert getattr(result.model.nodes, field).tobytes() == \
                getattr(winner.nodes, field).tobytes()

    def test_grows_two_trees(self, regression_ds, monkeypatch):
        grown = []
        real = tree_module._grow

        def spy(X, y, max_depth):
            grown.append((y.size, max_depth))
            return real(X, y, max_depth)

        monkeypatch.setattr(tree_module, "_grow", spy)
        result = random_search(regression_ds, ModelKind.DT, budget=5, seed=12)
        deepest = max(c.hyperparams["max_depth"] for c in result.candidates)
        fit, _ = chronological_split(regression_ds, 0.8)
        assert grown == [
            (len(fit), deepest),
            (len(regression_ds), result.best.hyperparams["max_depth"]),
        ]

    def test_empty_fit_fails_every_candidate(self, regression_ds, monkeypatch, caplog):
        empty = make_ds(np.empty((0, 3)), np.empty(0))
        monkeypatch.setattr(
            search_module, "chronological_split", lambda ds, frac: (empty, ds)
        )
        with caplog.at_level("WARNING", logger=search_module.__name__):
            with pytest.raises(HrvError, match="all 4 sampled.*empty dataset"):
                random_search(regression_ds, ModelKind.DT, budget=4, seed=13)
        failed = [r.getMessage() for r in caplog.records]
        assert len(failed) == 4
        for i, message in enumerate(failed):
            assert message.startswith(f"search candidate {i} (")
            assert "cannot train a tree on an empty dataset" in message
