import numpy as np
import pytest

from ppghrv.data import Dataset
from ppghrv.errors import ConfigError, HrvError
from ppghrv.models.bench import WARMUP_CALLS, bench_inference
from ppghrv.models.mlp import MlpRegressor
from ppghrv.models.tree import train_dt


@pytest.fixture(scope="module")
def tree():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(100, 5))
    y = rng.uniform(10, 50, size=100)
    ds = Dataset(X, y, np.arange(100.0))
    return train_dt(ds, max_depth=8)


class TestBench:
    def test_statistics_over_exact_repetitions(self, tree):
        rng = np.random.default_rng(31)
        probes = rng.normal(size=(10, 5))
        stats = bench_inference(tree, probes, repetitions=100)
        assert stats.repetitions == 100
        assert stats.min_us > 0.0
        assert stats.min_us <= stats.mean_us <= stats.p99_us * 1.0000001

    def test_sane_magnitude_for_tiny_tree(self, tree):
        rng = np.random.default_rng(32)
        probes = rng.normal(size=(4, 5))
        stats = bench_inference(tree, probes, repetitions=300)
        # a depth-8 walk must not take milliseconds on any sane machine
        assert stats.mean_us < 5000.0

    def test_rejects_low_repetitions(self, tree):
        with pytest.raises(ConfigError):
            bench_inference(tree, [np.zeros(5)], repetitions=99)

    def test_rejects_empty_probes(self, tree):
        with pytest.raises(ConfigError):
            bench_inference(tree, [], repetitions=100)

    def test_every_probe_is_checked_before_the_timed_calls(self):
        # only the last probe overflows, past the WARMUP_CALLS first calls
        model = MlpRegressor(
            [(np.ones((5, 1)), np.zeros(1)), (np.full((1, 1), 3e38), np.zeros(1))],
            "relu", x_mu=np.zeros(5), x_sigma=np.ones(5), y_mu=60.0, y_sigma=1.0,
        )
        probes = np.zeros((WARMUP_CALLS + 14, 5))
        probes[-1] = 1e308
        with np.errstate(over="ignore"), pytest.raises(
            HrvError, match=f"^the estimate for probe {WARMUP_CALLS + 13} is inf, not a finite"
        ):
            bench_inference(model, probes, repetitions=100)
