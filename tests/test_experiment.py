import numpy as np
import pytest

import ppghrv.experiment
from ppghrv.errors import ConfigError, HrvError
from ppghrv.experiment import ExperimentConfig, run_experiment
from ppghrv.io import RESULTS_HEADER, TRACE_HEADER
from ppghrv.metrics import HrvMetricKind
from ppghrv.models.base import ModelKind


def small_config(out_dir, **overrides):
    base = dict(
        out_dir=out_dir,
        activities=("sit",),
        metrics=(HrvMetricKind.RMSSD,),
        lengths=(30, 60),
        models=(ModelKind.DT, ModelKind.KNN),
        duration_s=400.0,
        stride_s=5,
        budget=2,
        seed=11,
        clean=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = small_config(out)
    rows = run_experiment(cfg)
    return cfg, out, rows


class TestRunExperiment:
    def test_one_row_per_cell_in_config_order(self, run_once):
        _, _, rows = run_once
        assert [(r.n_s, r.model) for r in rows] == [
            (30, "dt"),
            (30, "knn"),
            (60, "dt"),
            (60, "knn"),
        ]
        assert all(r.activity == "sit" and r.metric == "rmssd" for r in rows)

    def test_row_contents(self, run_once):
        _, _, rows = run_once
        for r in rows:
            assert r.mape_pct >= 0.0
            assert r.sigproc_mape_pct >= 0.0
            assert r.model_bytes > 0
            assert r.latency_us_mean is None  # bench disabled by default

    def test_results_csv_written(self, run_once):
        _, out, rows = run_once
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(RESULTS_HEADER)
        assert len(lines) == len(rows) + 1
        assert lines[1].startswith("sit,rmssd,30,dt,")
        assert lines[1].endswith(",")  # empty latency column

    def test_trace_files_per_cell(self, run_once):
        _, out, rows = run_once
        for r in rows:
            path = out / f"trace_{r.activity}_{r.metric}_{r.n_s}s_{r.model}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == ",".join(TRACE_HEADER)
            assert len(lines) > 1

    def test_deterministic_bytes(self, run_once, tmp_path):
        cfg, out, _ = run_once
        again = small_config(tmp_path / "again", seed=cfg.seed)
        run_experiment(again)
        first = (out / "results.csv").read_bytes()
        second = (tmp_path / "again" / "results.csv").read_bytes()
        assert first == second

    def test_failing_cell_logged_and_skipped(self, tmp_path, monkeypatch, caplog):
        real = ppghrv.experiment.random_search

        def flaky(train, kind, **kwargs):
            if kind is ModelKind.KNN:
                raise HrvError("forced failure")
            return real(train, kind, **kwargs)

        monkeypatch.setattr(ppghrv.experiment, "random_search", flaky)
        with caplog.at_level("ERROR"), pytest.raises(HrvError) as err:
            run_experiment(small_config(tmp_path / "flaky"))
        assert "knn" in caplog.text and "forced failure" in caplog.text
        # the dt cells still ran and were written; the error names the knn ones
        assert str(err.value) == (
            "2 of 4 cells failed (sit/rmssd/30/knn, sit/rmssd/60/knn); "
            "results.csv holds the other 2"
        )
        lines = (tmp_path / "flaky" / "results.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["dt", "dt"]

    def test_failing_dataset_fails_each_of_its_cells(self, tmp_path, monkeypatch):
        real = ppghrv.experiment.build_hrv_dataset

        def flaky(shr, gt, n_s, **kwargs):
            if n_s == 30:
                raise HrvError("forced failure")
            return real(shr, gt, n_s=n_s, **kwargs)

        monkeypatch.setattr(ppghrv.experiment, "build_hrv_dataset", flaky)
        with pytest.raises(HrvError, match=r"2 of 4 cells failed \(sit/rmssd/30/dt, "
                           r"sit/rmssd/30/knn\); results.csv holds the other 2"):
            run_experiment(small_config(tmp_path / "flaky"))

    def test_bench_repetitions_add_latency(self, tmp_path):
        cfg = small_config(
            tmp_path / "bench",
            lengths=(30,),
            models=(ModelKind.DT,),
            bench_repetitions=100,
        )
        rows = run_experiment(cfg)
        assert rows[0].latency_us_mean is not None
        assert rows[0].latency_us_mean > 0.0


class TestExperimentConfigValidation:
    def test_zero_models_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, models=())

    def test_zero_lengths_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, lengths=())

    @pytest.mark.parametrize("length", [1, 0, -5])
    def test_length_below_two_rejected(self, tmp_path, length):
        with pytest.raises(ConfigError, match=f"n_s must be at least 2 s, got {length}"):
            small_config(tmp_path, lengths=(30, length))

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            small_config(tmp_path, seed=-1)

    def test_duration_must_fit_windows(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, duration_s=100.0, lengths=(300,))

    def test_bad_bench_repetitions(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, bench_repetitions=50)


class TestNoiselessBaselineBeaten:
    def test_clean_sit_dt_is_nearly_exact(self, tmp_path):
        # with artifacts and sensor noise off, the compound estimate should
        # sit under 5% MAPE and at or below the rough-HRV baseline
        cfg = ExperimentConfig(
            out_dir=tmp_path / "clean",
            activities=("sit",),
            metrics=(HrvMetricKind.RMSSD,),
            lengths=(300,),
            models=(ModelKind.DT,),
            duration_s=1500.0,
            stride_s=2,
            budget=3,
            seed=5,
            clean=True,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].mape_pct < 5.0
        assert rows[0].mape_pct <= rows[0].sigproc_mape_pct
