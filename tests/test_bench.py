import numpy as np
import pytest

from ppghrv.data import Dataset
from ppghrv.errors import ConfigError
from ppghrv.models.bench import bench_inference
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
