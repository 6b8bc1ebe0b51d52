import csv
import hashlib
import math
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import ppghrv.experiment
from ppghrv.cli import main, read_config_file
from ppghrv.data import Dataset
from ppghrv.errors import HrvError
from ppghrv.io import read_dataset_csv, read_ppg_csv, read_rr_csv, write_dataset_csv
from ppghrv.metrics import HrvMetricKind
from ppghrv.models.base import ModelKind
from ppghrv.models.codec import MAGIC, load_model, save_model
from ppghrv.models.knn import train_knn
from ppghrv.models.mlp import MlpRegressor


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> process -> train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    code = main([
        "synth", "--preset", "sit", "--duration-s", "120", "--seed", "3",
        "--out-ppg", str(root / "ppg.csv"), "--out-rr", str(root / "rr.csv"),
    ])
    assert code == 0
    code = main([
        "process", "--ppg", str(root / "ppg.csv"),
        "--out-hr", str(root / "hr.csv"),
        "--rr", str(root / "rr.csv"), "--n-s", "30",
        "--out-dataset", str(root / "ds.csv"),
    ])
    assert code == 0
    code = main([
        "train", "--dataset", str(root / "ds.csv"), "--model", "dt",
        "--budget", "2", "--seed", "7", "--out", str(root / "model.bin"),
    ])
    assert code == 0
    return root


class TestPipelineCommands:
    def test_synth_outputs_parse_back(self, workdir):
        signal = read_ppg_csv(workdir / "ppg.csv")
        gt = read_rr_csv(workdir / "rr.csv")
        assert signal.samples.size == 120 * 25
        assert gt.beat_times_s.size > 100

    def test_process_outputs(self, workdir):
        with open(workdir / "hr.csv", newline="") as fh:
            header, *hr_rows = csv.reader(fh)
        ds = read_dataset_csv(workdir / "ds.csv")
        assert header == ["time_s", "hr_bpm"]
        assert len(hr_rows) > 0
        assert ds.n_features == 31
        assert len(ds) == len(hr_rows) - 30 + 1

    def test_train_wrote_loadable_model(self, workdir):
        model = load_model(workdir / "model.bin")
        assert model.n_features == 31
        pred = model.predict(read_dataset_csv(workdir / "ds.csv").features[0])
        assert pred > 0.0

    def test_train_rf_then_eval(self, workdir, tmp_path, capsys):
        model = tmp_path / "rf.bin"
        code = main([
            "train", "--dataset", str(workdir / "ds.csv"), "--model", "rf",
            "--budget", "2", "--seed", "7", "--out", str(model),
        ])
        assert code == 0
        assert f"model bytes: {model.stat().st_size}" in capsys.readouterr().out
        assert load_model(model).kind is ModelKind.RF
        code = main(["eval", "--model", str(model), "--dataset", str(workdir / "ds.csv")])
        assert code == 0
        assert "model MAPE" in capsys.readouterr().out

    def test_train_prints_hyperparams(self, workdir, tmp_path, capsys):
        code = main([
            "train", "--dataset", str(workdir / "ds.csv"), "--model", "knn",
            "--budget", "2", "--seed", "1", "--out", str(tmp_path / "m.bin"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "best hyperparams" in out and "validation MAPE" in out
        assert "best epoch" not in out

    def test_train_mlp_prints_best_epoch(self, workdir, tmp_path, capsys):
        code = main([
            "train", "--dataset", str(workdir / "ds.csv"), "--model", "mlp",
            "--budget", "2", "--seed", "1", "--mlp-max-epochs", "3",
            "--out", str(tmp_path / "m.bin"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        mape_line, epoch_line = out.splitlines()[1:3]
        assert mape_line.startswith("validation MAPE: ")
        assert epoch_line.startswith("best epoch: ")
        assert 0 <= int(epoch_line.split(": ")[1]) < 3

    def test_eval_reports_both_mapes(self, workdir, tmp_path, capsys):
        code = main([
            "eval", "--model", str(workdir / "model.bin"),
            "--dataset", str(workdir / "ds.csv"),
            "--out-trace", str(tmp_path / "trace.csv"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "model MAPE" in out and "sigproc MAPE" in out
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "window_end_s,truth_ms,sigproc_ms,model_ms"

    def test_bench_saved_model(self, workdir, capsys):
        code = main([
            "bench", "--model", str(workdir / "model.bin"),
            "--dataset", str(workdir / "ds.csv"), "--repetitions", "200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "repetitions: 200" in out and "mean:" in out

    def test_bench_without_dataset_draws_probes(self, workdir, capsys):
        code = main([
            "bench", "--model", str(workdir / "model.bin"), "--repetitions", "200",
            "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "repetitions: 200" in out and "mean:" in out

    def test_amplify_writes_table(self, tmp_path, capsys):
        code = main([
            "amplify", "--levels", "0,2", "--trials", "40", "--seed", "2",
            "--out", str(tmp_path / "amp.csv"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = (tmp_path / "amp.csv").read_text().splitlines()
        assert lines[0] == "rr_mape,rmssd_mape,sdnn_mape,trials,seed"
        assert len(lines) == 3
        assert "rr=0%" in out


class TestRunCommand:
    def test_flags_only(self, tmp_path, capsys):
        code = main([
            "run", "--out-dir", str(tmp_path / "out"),
            "--activities", "sit", "--metrics", "rmssd", "--lengths", "30",
            "--models", "dt", "--duration-s", "150", "--budget", "1",
            "--seed", "4", "--clean",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert out.count("mape=") == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# tiny smoke matrix\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "activities = sit\n"
            "metrics = rmssd\n"
            "lengths = 30\n"
            "models = dt\n"
            "duration_s = 150\n"
            "budget = 1\n"
            "clean = true\n"
        )
        code = main(["run", "--config", str(cfg), "--lengths", "30,60"])
        out = capsys.readouterr().out
        assert code == 0
        # the flag's two lengths override the file's single one
        assert out.count("mape=") == 2

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("seed = 9  # comment\nclean = false\nlengths=30,60\n")
        assert read_config_file(cfg) == {
            "seed": 9,
            "clean": False,
            "lengths": (30, 60),
        }

    def test_failed_cell_is_data_error(self, tmp_path, monkeypatch, capsys):
        real = ppghrv.experiment.random_search

        def flaky(train, kind, **kwargs):
            if kind is ModelKind.KNN:
                raise HrvError("forced failure")
            return real(train, kind, **kwargs)

        monkeypatch.setattr(ppghrv.experiment, "random_search", flaky)
        code = main([
            "run", "--out-dir", str(tmp_path / "out"),
            "--activities", "sit", "--metrics", "rmssd", "--lengths", "30",
            "--models", "dt,knn", "--duration-s", "150", "--budget", "1",
            "--seed", "4", "--clean",
        ])
        assert code == 2
        assert "1 of 2 cells failed (sit/rmssd/30/knn)" in capsys.readouterr().err
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["dt"]

    def test_missing_out_dir_rejected(self, capsys):
        code = main(["run", "--activities", "sit"])
        assert code == 1
        assert "out-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("out_dir", "elsewhere"),
        ("activities", "sit,sleep"),
        ("metrics", "sdnn"),
        ("lengths", "30,60"),
        ("models", "dt,knn"),
        ("duration_s", "400.5"),
        ("stride_s", "2"),
        ("budget", "3"),
        ("seed", "9"),
        ("train_fraction", "0.7"),
        ("val_fraction", "0.3"),
        ("bench_repetitions", "100"),
        ("clean", "true"),
        ("mlp_max_epochs", "7"),
    ])
    def test_flag_and_config_line_give_the_same_config(
        self, key, value, tmp_path, monkeypatch
    ):
        seen = []
        monkeypatch.setattr("ppghrv.cli.run_experiment", lambda cfg: seen.append(cfg) or [])
        base = ["run", "--out-dir", str(tmp_path / "out")]
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(base) == 0
        assert main(base + ([flag] if key == "clean" else [flag, value])) == 0
        assert main(["run", "--config", str(cfg)] + ([] if key == "out_dir" else base[1:])) == 0
        default, from_flag, from_file = seen
        assert from_flag == from_file
        assert from_flag != default


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["synth", "--nope"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        code = main([
            "synth", "--preset", "swim",
            "--out-ppg", str(tmp_path / "p.csv"), "--out-rr", str(tmp_path / "r.csv"),
        ])
        assert code == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "process", "--ppg", str(tmp_path / "absent.csv"),
            "--out-hr", str(tmp_path / "hr.csv"),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,value\n0.0,1.0\nnot-a-number,2.0\n")
        code = main([
            "process", "--ppg", str(bad), "--out-hr", str(tmp_path / "hr.csv"),
        ])
        assert code == 2

    def test_corrupt_model_file_is_data_error(self, tmp_path, workdir, capsys):
        blob = tmp_path / "junk.bin"
        blob.write_bytes(b"\x00" * 16)
        code = main([
            "eval", "--model", str(blob), "--dataset", str(workdir / "ds.csv"),
        ])
        assert code == 2

    def test_self_referencing_tree_is_data_error(self, tmp_path, workdir):
        # 31 features; node 0 splits on feature 0 and names itself as both
        # children, so a walk that trusted the file would never reach a leaf
        blob = tmp_path / "loop.bin"
        blob.write_bytes(
            MAGIC + bytes([0, 31, 2, 1]) + struct.pack("<f", 0.0) + bytes([0, 0, 0])
            + struct.pack("<d", 1.0)
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "ppghrv.cli", "eval",
                "--model", str(blob), "--dataset", str(workdir / "ds.csv"),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "data error" in proc.stderr

    def test_nan_leaf_tree_is_data_error(self, tmp_path, workdir, capsys):
        # 17 bytes: a one-leaf tree over the dataset's 31 features whose value is nan
        blob = tmp_path / "nan.bin"
        blob.write_bytes(MAGIC + bytes([0, 31, 1, 0]) + struct.pack("<d", float("nan")))
        code = main(["eval", "--model", str(blob), "--dataset", str(workdir / "ds.csv")])
        assert code == 2
        assert "non-finite leaf value" in capsys.readouterr().err

    def test_non_finite_ppg_sample_is_data_error(self, tmp_path, workdir, capsys):
        lines = (workdir / "ppg.csv").read_text().splitlines()
        lines[100] = lines[100].split(",")[0] + ",nan"
        bad = tmp_path / "ppg.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["process", "--ppg", str(bad), "--out-hr", str(tmp_path / "hr.csv")])
        assert code == 2
        assert ":101: non-finite value" in capsys.readouterr().err

    def test_times_past_float_resolution_are_data_error(self, tmp_path, capsys):
        # past 2**53 s a whole second is below the spacing of the times, so
        # consecutive window end times round to one value
        times = [repr(float(2**54 + 4 * k)) for k in range(400)]
        (tmp_path / "ppg.csv").write_text(
            "time_s,value\n" + "".join(f"{t},{k % 2}.0\n" for k, t in enumerate(times))
        )
        (tmp_path / "rr.csv").write_text(
            "beat_time_s,rr_ms\n" + f"{times[0]},\n" + "".join(f"{t},4000.0\n" for t in times[1:])
        )
        code = main([
            "process", "--ppg", str(tmp_path / "ppg.csv"), "--sampling-rate-hz", "0.25",
            "--rr", str(tmp_path / "rr.csv"), "--n-s", "40",
            "--out-hr", str(tmp_path / "hr.csv"), "--out-dataset", str(tmp_path / "ds.csv"),
        ])
        assert code == 2
        assert "not at 1.801439850948203e+16 s" in capsys.readouterr().err
        assert not (tmp_path / "hr.csv").exists()
        assert not (tmp_path / "ds.csv").exists()

    def test_gap_in_ppg_time_is_data_error(self, tmp_path, workdir, capsys):
        # drop 30 s of samples; the rows after the gap keep their own times
        lines = (workdir / "ppg.csv").read_text().splitlines()
        gapped = tmp_path / "ppg.csv"
        gapped.write_text("\n".join(lines[:751] + lines[1501:]) + "\n")
        code = main([
            "process", "--ppg", str(gapped), "--rr", str(workdir / "rr.csv"), "--n-s", "30",
            "--out-hr", str(tmp_path / "hr.csv"), "--out-dataset", str(tmp_path / "ds.csv"),
        ])
        assert code == 2
        assert "ppg.csv:752: interval" in capsys.readouterr().err
        assert not (tmp_path / "hr.csv").exists()
        assert not (tmp_path / "ds.csv").exists()

    def test_dataset_flag_needs_rr(self, workdir, tmp_path, capsys):
        code = main([
            "process", "--ppg", str(workdir / "ppg.csv"),
            "--out-hr", str(tmp_path / "hr.csv"),
            "--out-dataset", str(tmp_path / "ds.csv"),
        ])
        assert code == 1
        assert "together" in capsys.readouterr().err
        assert not (tmp_path / "hr.csv").exists()

    @pytest.mark.parametrize("extra, code, message", [
        (["--rr", "RR"], 1, "together"),
        (["--rr", "RR", "--n-s", "100000", "--out-dataset", "DS"], 2,
         "need 100000 smoothed HRs"),
        (["--rr", "MISSING", "--out-dataset", "DS"], 2, "missing.csv"),
        (["--rr", "RR", "--n-s", "30", "--out-dataset", "NODIR"], 1, "nodir"),
        (["--rr", "ONE_BEAT", "--n-s", "30", "--out-dataset", "DS"], 2,
         "need at least 2 beats, got 1"),
    ], ids=["rr_without_dataset", "window_longer_than_trace", "missing_rr_file",
            "dataset_dir_missing", "one_beat_rr_file"])
    def test_failed_process_writes_nothing(
        self, extra, code, message, workdir, tmp_path, capsys
    ):
        (tmp_path / "one_beat.csv").write_text("beat_time_s,rr_ms\n0.0,\n")
        paths = {
            "RR": str(workdir / "rr.csv"),
            "MISSING": str(tmp_path / "missing.csv"),
            "ONE_BEAT": str(tmp_path / "one_beat.csv"),
            "DS": str(tmp_path / "ds.csv"),
            "NODIR": str(tmp_path / "nodir" / "d.csv"),
        }
        argv = [
            "process", "--ppg", str(workdir / "ppg.csv"),
            "--out-hr", str(tmp_path / "hr.csv"),
        ] + [paths.get(arg, arg) for arg in extra]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "hr.csv").exists()
        assert not (tmp_path / "ds.csv").exists()

    @pytest.mark.parametrize("argv, code, names", [
        (["process", "--ppg", "DIR", "--out-hr", "OUT/hr.csv"], 2, "DIR"),
        (["process", "--ppg", "MISSING", "--out-hr", "OUT/hr.csv"], 2, "MISSING"),
        (["process", "--ppg", "LATIN1", "--out-hr", "OUT/hr.csv"], 2, "LATIN1"),
        (["process", "--ppg", "LONG", "--out-hr", "OUT/hr.csv"], 2, "LONG:2:"),
        (["train", "--dataset", "LATIN1_DS", "--model", "dt", "--out", "OUT/m.bin"],
         2, "LATIN1_DS"),
        (["eval", "--model", "DIR", "--dataset", "DS"], 2, "DIR"),
        (["bench", "--model", "DIR"], 2, "DIR"),
        (["run", "--config", "DIR", "--out-dir", "OUT/run"], 1, "DIR"),
        (["run", "--config", "MISSING", "--out-dir", "OUT/run"], 1, "MISSING"),
        (["synth", "--preset", "sit", "--out-ppg", "DIR", "--out-rr", "OUT/rr.csv"], 1, "DIR"),
        (["eval", "--model", "MODEL", "--dataset", "DS", "--out-trace", "DIR"], 1, "DIR"),
        (["train", "--dataset", "DS", "--model", "dt", "--out", "DIR"], 1, "DIR"),
        (["run", "--out-dir", "FILE"], 1, "FILE"),
        (["amplify", "--out", "NODIR/a.csv"], 1, "NODIR/a.csv"),
        (["synth", "--preset", "sit", "--out-ppg", "OUT/same.csv", "--out-rr", "OUT/same.csv"],
         1, "OUT/same.csv"),
        (["process", "--ppg", "PPG", "--rr", "RR", "--out-hr", "OUT/same.csv",
          "--out-dataset", "OUT/same.csv"], 1, "OUT/same.csv"),
        (["process", "--ppg", "PPG", "--out-hr", "PPG"], 1, "PPG"),
        (["train", "--dataset", "DS_COPY", "--model", "dt", "--out", "DS_COPY"], 1, "DS_COPY"),
    ], ids=[
        "process_ppg_dir", "process_ppg_missing", "process_ppg_not_utf8",
        "process_ppg_field_over_csv_limit", "train_dataset_not_utf8", "eval_model_dir",
        "bench_model_dir", "run_config_dir", "run_config_missing", "synth_out_dir",
        "eval_out_trace_dir", "train_out_dir", "run_out_dir_is_file", "amplify_out_no_dir",
        "synth_outputs_collide", "process_outputs_collide", "process_out_hr_is_its_ppg",
        "train_out_is_its_dataset",
    ])
    def test_file_failure_exit_codes(self, argv, code, names, workdir, tmp_path, capsys):
        # a path that cannot be read is bad data (2); one that cannot be
        # written, or a bad --config or --out-dir, is a bad setting (1)
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("keep\n")
        (tmp_path / "latin1.csv").write_bytes(b"time_s,value\n0.0,1.0\n0.04,caf\xe9\n")
        (tmp_path / "latin1_ds.csv").write_bytes(b"window_end_time_s,f0,label\n1.0,\xe9,2.0\n")
        (tmp_path / "long.csv").write_text("time_s,value\n0.0," + "1" * 200_000 + "\n")
        inputs = {
            tmp_path / "ppg.csv": (workdir / "ppg.csv").read_bytes(),
            tmp_path / "ds.csv": (workdir / "ds.csv").read_bytes(),
        }
        for path, data in inputs.items():
            path.write_bytes(data)
        paths = {
            "DIR": tmp_path / "dir",
            "FILE": tmp_path / "file",
            "MISSING": tmp_path / "missing.csv",
            "LATIN1": tmp_path / "latin1.csv",
            "LATIN1_DS": tmp_path / "latin1_ds.csv",
            "LONG": tmp_path / "long.csv",
            "DS": workdir / "ds.csv",
            "PPG": tmp_path / "ppg.csv",
            "RR": workdir / "rr.csv",
            "DS_COPY": tmp_path / "ds.csv",
            "MODEL": workdir / "model.bin",
            "OUT": out,
            "NODIR": tmp_path / "nodir",
        }

        def resolve(arg):
            head, _, tail = arg.partition("/")
            return str(paths[head] / tail) if head in paths else arg

        assert main([resolve(arg) for arg in argv]) == code
        name, _, line = names.partition(":")
        err = capsys.readouterr().err
        assert err.startswith("config error" if code == 1 else "data error")
        assert resolve(name) + (f":{line}" if line else "") in err
        assert list(out.iterdir()) == []
        assert list((tmp_path / "dir").iterdir()) == []
        assert (tmp_path / "file").read_text() == "keep\n"
        assert not (tmp_path / "nodir").exists()
        for path, data in inputs.items():
            assert path.read_bytes() == data

    def test_colliding_paths_name_both_flags(self, workdir, tmp_path, capsys):
        # a symlink names the same file by another path
        ppg = tmp_path / "ppg.csv"
        ppg.write_bytes((workdir / "ppg.csv").read_bytes())
        link = tmp_path / "link.csv"
        link.symlink_to(ppg)
        before = ppg.read_bytes()
        code = main(["process", "--ppg", str(ppg), "--out-hr", str(link)])
        assert code == 1
        assert "--out-hr and --ppg name the same file" in capsys.readouterr().err
        assert ppg.read_bytes() == before

    @pytest.mark.parametrize("argv, config", [
        (["synth", "--preset", "sit", "--duration-s", "nan"], None),
        (["run", "--duration-s", "inf"], None),
        (["run"], "duration_s = nan"),
    ], ids=["synth_nan_duration", "run_inf_duration", "run_nan_duration_in_file"])
    def test_non_finite_duration_does_not_hang(self, argv, config, tmp_path):
        # each of these kept generate_rr_trace looping; a subprocess bounds the wait
        if argv[0] == "synth":
            argv = argv + ["--out-ppg", str(tmp_path / "p.csv"), "--out-rr", str(tmp_path / "r.csv")]
        else:
            argv = argv + ["--out-dir", str(tmp_path / "out")]
        if config:
            (tmp_path / "exp.cfg").write_text(config + "\n")
            argv = argv + ["--config", str(tmp_path / "exp.cfg")]
        proc = subprocess.run(
            [sys.executable, "-m", "ppghrv.cli"] + argv,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 1, proc.stderr
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (["--z-score", "0"], "z_score"),
        (["--z-score", "-1"], "z_score"),
        (["--z-score", "nan"], "finite"),
        (["--sampling-rate-hz", "nan"], "finite"),
        (["--sampling-rate-hz", "0"], "sampling rate"),
        (["--sampling-rate-hz", "-5"], "sampling rate"),
    ], ids=["z_zero", "z_negative", "z_nan", "rate_nan", "rate_zero", "rate_negative"])
    def test_bad_process_number_is_config_error(self, args, message, workdir, tmp_path, capsys):
        code = main(
            ["process", "--ppg", str(workdir / "ppg.csv"), "--out-hr", str(tmp_path / "hr.csv")]
            + args
        )
        assert code == 1
        assert message in capsys.readouterr().err

    def test_nan_amplify_level_is_config_error(self, tmp_path, capsys):
        assert main(["amplify", "--levels", "0,nan", "--out", str(tmp_path / "a.csv")]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("level, message", [("-1", ">= 0"), ("200", "non-positive intervals")])
    def test_out_of_range_amplify_level_is_config_error(self, level, message, tmp_path, capsys):
        assert main(["amplify", "--levels", level, "--out", str(tmp_path / "a.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("argv", [
        ["synth", "--preset", "sit", "--duration-s", "1e8"],
        ["run", "--duration-s", "1e8"],
    ], ids=["synth", "run"])
    def test_duration_above_a_day_is_config_error(self, argv, tmp_path):
        # a finite but huge duration ran without bound; a subprocess bounds the wait
        if argv[0] == "synth":
            argv = argv + ["--out-ppg", str(tmp_path / "p.csv"), "--out-rr", str(tmp_path / "r.csv")]
        else:
            argv = argv + ["--out-dir", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "ppghrv.cli"] + argv,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 1, proc.stderr
        assert "duration_s must lie in (0, 86400] s" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--repetitions", "1000000000000"], "repetitions must lie in [100, 1000000]"),
        (["run", "--bench-repetitions", "1000000000000"], "repetitions must lie in [100, 1000000]"),
        (["train", "--budget", "1000000000000"], "budget must lie in [1, 1000]"),
        (["run", "--budget", "1000000000000"], "budget must lie in [1, 1000]"),
        (["amplify", "--trials", "1000000000000"], "trials must lie in [1, 100000]"),
    ], ids=["bench_repetitions", "run_bench_repetitions", "train_budget", "run_budget",
            "amplify_trials"])
    def test_huge_iteration_count_is_config_error(self, argv, message, workdir, tmp_path):
        # these allocated terabytes (exit 3) or ran without bound; a subprocess
        # bounds the wait
        out = tmp_path / "out"
        argv = argv + {
            "bench": ["--model", str(workdir / "model.bin")],
            "run": ["--out-dir", str(out), "--activities", "sit", "--lengths", "30",
                    "--duration-s", "200", "--models", "dt"],
            "train": ["--dataset", str(workdir / "ds.csv"), "--model", "dt", "--out", str(out)],
            "amplify": ["--out", str(out)],
        }[argv[0]]
        proc = subprocess.run(
            [sys.executable, "-m", "ppghrv.cli"] + argv,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert not out.exists()

    def test_duration_below_one_beat_is_config_error(self, tmp_path, capsys):
        code = main([
            "synth", "--preset", "sit", "--duration-s", "0.5",
            "--out-ppg", str(tmp_path / "p.csv"), "--out-rr", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        assert "too short for a single beat interval" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--activities", "sit,bogus"], "unknown activity 'bogus'"),
        (["--train-fraction", "0"], "train_fraction"),
        (["--train-fraction", "1.5"], "train_fraction"),
        (["--val-fraction", "0"], "val_fraction"),
        (["--val-fraction", "1.5"], "val_fraction"),
        (["--mlp-max-epochs", "0"], "max_epochs must be >= 1"),
        (["--lengths", "1"], "n_s must be at least 2 s, got 1"),
        (["--lengths", "0"], "n_s must be at least 2 s, got 0"),
        (["--lengths", "-5"], "n_s must be at least 2 s, got -5"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--lengths", ""], "empty list value"),
        (["--lengths", "1.5"], "expected comma-separated integers, got '1.5'"),
        (["--seed", "x"], "expected a seed (an integer >= 0), got 'x'"),
    ], ids=["activity", "train_zero", "train_above_one", "val_zero", "val_above_one", "epochs_zero",
            "length_one", "length_zero", "length_negative", "seed_negative", "lengths_empty",
            "lengths_not_integer", "seed_not_integer"])
    def test_bad_run_setting_fails_before_any_write(self, args, message, tmp_path, capsys):
        # these used to synthesise every activity, then fail each cell with exit 2
        # (or leave an empty out_dir behind)
        out = tmp_path / "out"
        code = main([
            "run", "--out-dir", str(out), "--activities", "sit", "--lengths", "30",
            "--duration-s", "200", "--models", "dt", "--budget", "1",
        ] + args)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--dataset", "missing.csv", "--model", "dt", "--budget", "0", "--out", "m.bin"],
         "budget must lie in [1, 1000], got 0"),
        (["train", "--dataset", "missing.csv", "--model", "mlp", "--mlp-max-epochs", "0",
          "--out", "m.bin"], "max_epochs must be >= 1"),
        (["process", "--ppg", "missing.csv", "--z-score", "0", "--out-hr", "hr.csv"],
         "z_score must be a finite number > 0, got 0.0"),
        (["process", "--ppg", "missing.csv", "--rr", "missing_rr.csv", "--n-s", "1",
          "--out-hr", "hr.csv", "--out-dataset", "ds.csv"], "n_s must be at least 2 s, got 1"),
        (["bench", "--model", "missing.bin", "--repetitions", "5"],
         "repetitions must lie in [100, 1000000], got 5"),
    ], ids=["train_budget", "train_epochs", "process_z_score", "process_n_s", "bench_repetitions"])
    def test_bad_setting_fails_before_any_read(self, argv, message, tmp_path, monkeypatch, capsys):
        # each read its missing input first and exited 2 with "cannot read"
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_val_fraction_whose_split_rounds_away_is_config_error(
        self, command, workdir, tmp_path, capsys
    ):
        # 1 - 1e-17 == 1.0: the value passed its check, then every split
        # failed on a train_fraction that was never set (run exited 2 and
        # left an empty results.csv behind)
        out = tmp_path / "out"
        args = {
            "run": ["--out-dir", str(out), "--activities", "sit", "--metrics", "rmssd",
                    "--lengths", "30", "--models", "dt", "--duration-s", "200", "--budget", "1"],
            "train": ["--dataset", str(workdir / "ds.csv"), "--model", "dt", "--out", str(out)],
        }[command]
        assert main([command, "--val-fraction", "1e-17"] + args) == 1
        err = capsys.readouterr().err
        assert "val_fraction must lie strictly between 0 and 1" in err
        assert err.rstrip().endswith("got 1e-17")
        assert not out.exists()

    @pytest.mark.parametrize("flag, enum", [("--metrics", HrvMetricKind), ("--models", ModelKind)])
    def test_unknown_enum_value_lists_every_member(self, flag, enum, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--out-dir", str(out), flag, "xx"]) == 1
        known = ", ".join(member.value for member in enum)
        assert f"'xx'; choose one of: {known}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, repeated", [
        ("activities", "sit,sleep,sit", "sit"),
        ("metrics", "rmssd,RMSSD", "rmssd"),
        ("lengths", "30,60,30", "30"),
        ("models", "dt,dt", "dt"),
    ])
    def test_repeated_run_list_entry_fails_before_any_write(
        self, key, value, repeated, tmp_path, capsys
    ):
        # each repeat ran its cells again, adding identical results.csv rows
        # and overwriting their trace files
        out = tmp_path / "out"
        settings = {"activities": "sit", "lengths": "30", "duration_s": "200",
                    "models": "dt", "budget": "1", key: value}
        lines = "".join(f"{k} = {v}\n" for k, v in settings.items())
        flags = [part for k, v in settings.items() for part in ("--" + k.replace("_", "-"), v)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        for argv in (flags, ["--config", str(cfg)]):
            assert main(["run", "--out-dir", str(out)] + argv) == 1
            assert f"{key} lists {repeated} more than once" in capsys.readouterr().err
            assert not out.exists()

    def test_rr_file_disagreeing_with_its_beat_times_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        rows = (workdir / "rr.csv").read_text().splitlines()
        bad = tmp_path / "rr.csv"
        bad.write_text("\n".join(rows[:2] + [r.split(",")[0] + ",5000.0" for r in rows[2:]]))
        code = main([
            "process", "--ppg", str(workdir / "ppg.csv"), "--out-hr", str(tmp_path / "hr.csv"),
            "--rr", str(bad), "--n-s", "30", "--out-dataset", str(tmp_path / "ds.csv"),
        ])
        assert code == 2
        assert f"{bad}:3: rr_ms 5000.0 differs from its beat-time difference" in (
            capsys.readouterr().err
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rr.csv"]

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_negative_seed_is_config_error(self, command, workdir, tmp_path, capsys):
        # a negative seed reached numpy's SeedSequence and exited 3
        args = {
            "train": ["--dataset", str(workdir / "ds.csv"), "--model", "dt",
                      "--out", str(tmp_path / "m.bin")],
            "bench": ["--model", str(workdir / "model.bin")],
        }[command]
        assert main([command, "--seed", "-1"] + args) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("window_s, message", [
        ("0.5", "window_s"),
        ("1e6", "window_s"),
        ("0", "window_s must be positive"),
        ("-5", "window_s must be positive"),
    ], ids=["0.5", "1e6", "0", "-5"])
    def test_amplify_window_yielding_too_few_windows_is_config_error(
        self, window_s, message, tmp_path, capsys
    ):
        out = tmp_path / "a.csv"
        code = main(["amplify", "--window-s", window_s, "--trials", "1", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("train_fraction = inf", "finite"),
        ("budget = many", "bad budget value"),
        ("seed = -1", "seed must be >= 0"),
        ("duration_s = abc", "expected a number, got 'abc'"),
        ("models = dt,xx", "unknown model 'xx'"),
        ("lengths = ,", "empty list value ','"),
        ("clean = maybe", "expected a boolean, got 'maybe'"),
        ("budget 3", "expected key=value, got 'budget 3'"),
    ])
    def test_bad_config_number_is_config_error(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:1: " in err
        assert message in err

    @pytest.mark.parametrize("model", ["knn", "mlp"])
    def test_feature_beyond_float32_is_data_error(self, model, tmp_path, workdir, capsys):
        # 1e41 is a finite float64, but the mean and std a model stores are
        # float32; such a model was saved and then failed to load.  The rough
        # HRV (f30, the last feature) has no upper bound, so `train` takes it
        lines = (workdir / "ds.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[-2] = "1e41"  # f30
        lines[2] = ",".join(fields)
        ds = tmp_path / "ds.csv"
        ds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.bin"
        code = main(["train", "--dataset", str(ds), "--model", model,
                     "--budget", "2", "--mlp-max-epochs", "2", "--out", str(out)])
        assert code == 2
        assert "feature f30" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_process_could_not_write_is_data_error(self, tmp_path, workdir, capsys):
        # row 5's features all -1e308: eval printed a 306-digit sig-proc MAPE
        ds = read_dataset_csv(workdir / "ds.csv")
        X = ds.features.copy()
        X[5, :] = -1e308
        bad = tmp_path / "bad.csv"
        write_dataset_csv(bad, Dataset(X, ds.labels, ds.window_end_times_s))
        out = tmp_path / "m.bin"
        for argv in [
            ["train", "--dataset", str(bad), "--model", "dt", "--budget", "1", "--out", str(out)],
            ["eval", "--model", str(workdir / "model.bin"), "--dataset", str(bad)],
            ["bench", "--model", str(workdir / "model.bin"), "--dataset", str(bad),
             "--repetitions", "100"],
        ]:
            assert main(argv) == 2, argv[0]
            out_text, err = capsys.readouterr()
            assert "dataset row 5 " in err and "HR feature f0 = -1e+308" in err, argv[0]
            assert "MAPE" not in out_text
        assert not out.exists()

    def test_zero_std_model_is_data_error(self, tmp_path, workdir, capsys):
        # a one-feature KNN file holding one row, whose feature std is 0
        blob = tmp_path / "zero_std.bin"
        blob.write_bytes(
            MAGIC + bytes([2, 1, 1, 1, 1]) + bytes(12) + struct.pack("<d", 1.0)
        )
        code = main(["eval", "--model", str(blob), "--dataset", str(workdir / "ds.csv")])
        assert code == 2
        assert "non-positive feature std" in capsys.readouterr().err

    def test_model_whose_estimates_overflow_is_data_error(self, tmp_path, workdir, capsys):
        # an MLP file that decodes, with every parameter finite, but whose
        # estimates overflow to inf; eval scored it inf% with exit 0
        d = read_dataset_csv(workdir / "ds.csv").features.shape[1]
        model = MlpRegressor(
            [(np.full((d, 4), 3e38), np.zeros(4)), (np.full((4, 1), 3e38), np.zeros(1))],
            "relu", x_mu=np.zeros(d), x_sigma=np.full(d, 1e-30), y_mu=0.0, y_sigma=1e300,
        )
        blob = tmp_path / "inf.bin"
        save_model(model, blob)
        trace = tmp_path / "trace.csv"
        code = main(["eval", "--model", str(blob), "--dataset", str(workdir / "ds.csv"),
                     "--out-trace", str(trace)])
        assert code == 2
        err = capsys.readouterr().err
        assert "the estimate for row 0 is inf" in err
        assert "RuntimeWarning" not in err
        assert not trace.exists()
        assert main(["bench", "--model", str(blob), "--repetitions", "100"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"the estimate for probe \d+ is inf", err)
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("distance", ["euclidean", "manhattan"])
    def test_knn_distances_that_overflow_print_no_warning(self, tmp_path, workdir, distance):
        # a feature of 1e308 squares (Euclidean) or a row of -1e308 sums
        # (Manhattan) past float64; the distance is inf and ranks last, and
        # numpy's overflow warning was printed before the scores.  `eval`
        # rejects such features (check_processed), so the eval step is called
        # directly; a RuntimeWarning fails the test
        ds = read_dataset_csv(workdir / "ds.csv")
        save_model(train_knn(ds, 5, distance), tmp_path / "knn.bin")
        X = ds.features.copy()
        X[:, 3] = 1e308
        X[5, :] = -1e308
        big = Dataset(X, ds.labels, ds.window_end_times_s)
        model_mape, _ = ppghrv.experiment.evaluate(load_model(tmp_path / "knn.bin"), big, None)
        assert math.isfinite(model_mape)

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("outdir = /tmp/x\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputs:
    """Bytes of a small `run` and of `eval`, fixed so that a change to how the
    steps are composed cannot move an output unnoticed."""

    RUN_SHA256 = {
        "stdout": "1020feba0697c8c7414812cf7310a0658858e715c2819952ce064c864dba4ec0",
        "results.csv": "7e9e40910ae332bacc30933a553ab7f97eef429386761402b9706d016615f696",
        "trace_sit_rmssd_30s_dt.csv": "ad04210d91e7a3a5a0b451bb6f92a73fe7f68f3682f99aebba8fbc01a1cec1fd",
        "trace_sit_rmssd_30s_knn.csv": "7958f4d4ca5646e98176c14806f9894d60e94c2830f4909a717fba0d8fdf8080",
        "trace_sit_rmssd_30s_mlp.csv": "3cef98d9aa1da9bd3c74929c9dbad37473d218838c1877f8504ac5100f8f14bb",
        "trace_sit_rmssd_60s_dt.csv": "3e82b9f6d5e31cd6050181659b405a522f75bbe4162fe53c084bee746823c2b8",
        "trace_sit_rmssd_60s_knn.csv": "c5158f61f5482a2cab6a6417a1f7c2079df9260ed82e576a831207daf6871edf",
        "trace_sit_rmssd_60s_mlp.csv": "0034bd9abc975c385ebea7e5bcc2752b0f7ea460e6629e7e8ae10a64ac2b327a",
    }

    def test_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--out-dir", str(out), "--activities", "sit", "--metrics", "rmssd",
            "--lengths", "30,60", "--models", "dt,knn,mlp", "--duration-s", "300",
            "--stride-s", "3", "--budget", "1", "--seed", "5", "--mlp-max-epochs", "5",
        ])
        assert code == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        found = {"stdout": _sha256(stdout.encode())}
        found.update((p.name, _sha256(p.read_bytes())) for p in sorted(out.iterdir()))
        assert found == self.RUN_SHA256

    EVAL_SHA256 = {
        "ppg.csv": "7f907d6bf97a9828a63e2f8daf33ce65eb7cf1c0db825a940c6c1fe2acfc3107",
        "rr.csv": "4be2c1456993cbcf8922dfd147e75a9f1548a2768689a3ed3b232aa138ca9b20",
        "hr.csv": "bde4abce7852f65ab83ffcac8db487e134bcb077ea76fa14a9c539d9162b9f35",
        "ds.csv": "b60ab33923fa315784f720be869d070a40fada7f39d867364ebc8d8818bf981f",
        "trace.csv": "80639dc52f658346e423fe4d03146b971ea3d024b5609164b6cc44198040444e",
    }

    def test_synth_process_eval_outputs(self, workdir, tmp_path, capsys):
        # a second recording, so the saved model is scored on windows it never saw
        assert main([
            "synth", "--preset", "sit", "--duration-s", "120", "--seed", "4",
            "--out-ppg", str(tmp_path / "ppg.csv"), "--out-rr", str(tmp_path / "rr.csv"),
        ]) == 0
        assert main([
            "process", "--ppg", str(tmp_path / "ppg.csv"), "--out-hr", str(tmp_path / "hr.csv"),
            "--rr", str(tmp_path / "rr.csv"), "--n-s", "30",
            "--out-dataset", str(tmp_path / "ds.csv"),
        ]) == 0
        assert main([
            "eval", "--model", str(workdir / "model.bin"),
            "--dataset", str(tmp_path / "ds.csv"), "--out-trace", str(tmp_path / "trace.csv"),
        ]) == 0
        assert capsys.readouterr().out.replace(str(tmp_path), "TMP") == (
            "wrote 3000 PPG samples to TMP/ppg.csv\n"
            "wrote 130 beats to TMP/rr.csv\n"
            "wrote 112 per-second HRs to TMP/hr.csv\n"
            "wrote 83 samples (n=30s, rmssd) to TMP/ds.csv\n"
            "model MAPE: 12.3746%\n"
            "sigproc MAPE: 78.3149%\n"
            "wrote trace to TMP/trace.csv\n"
        )
        found = {name: _sha256((tmp_path / name).read_bytes()) for name in self.EVAL_SHA256}
        assert found == self.EVAL_SHA256


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "ppghrv.cli",
            "synth", "--preset", "sit", "--duration-s", "40", "--seed", "0",
            "--out-ppg", str(tmp_path / "p.csv"),
            "--out-rr", str(tmp_path / "r.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p.csv").exists()
