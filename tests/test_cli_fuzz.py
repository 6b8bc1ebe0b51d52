"""Mutated inputs through the CLI: every call ends in exit 0, 1 or 2.

Model files of each kind and dataset CSVs go to `eval`, PPG and RR CSVs to
`process --out-dataset`, each after byte overwrites, bit flips or a
truncation.  A call may accept its input or reject it with a typed error,
but it must not raise an internal error (exit 3), print a traceback, or
report a MAPE or write a dataset that is not finite.  Mutated `run` config
files give an ExperimentConfig or a ConfigError, before any run.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ppghrv.cli import main, read_config_file
from ppghrv.errors import ConfigError
from ppghrv.experiment import ExperimentConfig
from ppghrv.io import read_dataset_csv
from ppghrv.models.codec import save_model
from ppghrv.models.forest import train_rf
from ppghrv.models.knn import train_knn
from ppghrv.models.mlp import fit_early_stopped
from ppghrv.models.tree import train_dt

MODEL_KINDS = ("dt", "rf", "knn", "mlp")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 60-s PPG and RR pair, its n = 20 dataset, and one small model of
    each kind trained on that dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "synth", "--preset", "office_work", "--duration-s", "60", "--seed", "4",
            "--out-ppg", str(root / "ppg.csv"), "--out-rr", str(root / "rr.csv"),
        ]) == 0
        assert main([
            "process", "--ppg", str(root / "ppg.csv"), "--out-hr", str(root / "hr.csv"),
            "--rr", str(root / "rr.csv"), "--n-s", "20",
            "--out-dataset", str(root / "ds.csv"),
        ]) == 0
    ds = read_dataset_csv(root / "ds.csv")
    models = {
        "dt": train_dt(ds, max_depth=3),
        "rf": train_rf(ds, trees=2, max_depth=2, seed=1),
        "knn": train_knn(ds, k=3, distance="manhattan"),
        "mlp": fit_early_stopped(ds, (4,), "relu", 3, 2)[0],
    }
    for kind, model in models.items():
        save_model(model, root / f"{kind}.bin")
    return {p.name: p.read_bytes() for p in root.iterdir()} | {"root": root}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after one to three byte overwrites or bit flips, or cut short."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(out) - 1))
        if draw(st.booleans()):
            out[i] = draw(st.integers(0, 255))
        else:
            out[i] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def run_cli(argv) -> tuple[int, str]:
    """Exit code and everything main printed, both streams."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(argv)
    return code, buf.getvalue()


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_inputs_end_in_a_documented_exit(inputs, data):
    target = data.draw(st.sampled_from(MODEL_KINDS + ("dataset", "ppg", "rr")))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if target in MODEL_KINDS:
            blob = data.draw(mutated(inputs[f"{target}.bin"]))
            (tmp / "m.bin").write_bytes(blob)
            argv = ["eval", "--model", str(tmp / "m.bin"),
                    "--dataset", str(inputs["root"] / "ds.csv")]
        elif target == "dataset":
            (tmp / "ds.csv").write_bytes(data.draw(mutated(inputs["ds.csv"])))
            argv = ["eval", "--model", str(inputs["root"] / "dt.bin"),
                    "--dataset", str(tmp / "ds.csv")]
        else:
            files = {"ppg": inputs["ppg.csv"], "rr": inputs["rr.csv"]}
            files[target] = data.draw(mutated(files[target]))
            for name, text in files.items():
                (tmp / f"{name}.csv").write_bytes(text)
            argv = ["process", "--ppg", str(tmp / "ppg.csv"), "--out-hr", str(tmp / "hr.csv"),
                    "--rr", str(tmp / "rr.csv"), "--n-s", "20",
                    "--out-dataset", str(tmp / "ds.csv")]
        code, printed = run_cli(argv)
        assert code in (0, 1, 2), printed
        assert "Traceback" not in printed
        if code == 0 and target in MODEL_KINDS + ("dataset",):
            mapes = re.findall(r"MAPE: (\S+)%", printed)
            assert len(mapes) == 2 and all(math.isfinite(float(m)) for m in mapes), printed
        elif code == 0:
            read_dataset_csv(tmp / "ds.csv")  # raises on a value that is not finite


RUN_CONFIG = b"""# every key a run config file may set
out_dir = out
activities = sit,office_work
metrics = rmssd,sdnn
lengths = 30,60
models = dt,knn,mlp
duration_s = 600
stride_s = 1
budget = 2
seed = 7
train_fraction = 0.8
val_fraction = 0.2
bench_repetitions = 0
clean = true
mlp_max_epochs = 20
"""


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=mutated(RUN_CONFIG))
def test_mutated_run_config_gives_a_config_or_a_config_error(text):
    # the steps `run` takes before any work: the file's values, out_dir as a
    # Path, then ExperimentConfig, whose checks reject a bad setting
    with tempfile.TemporaryDirectory() as tmp, contextlib.suppress(ConfigError):
        path = Path(tmp) / "run.cfg"
        path.write_bytes(text)
        values = read_config_file(path)
        values["out_dir"] = Path(values.get("out_dir") or tmp)
        ExperimentConfig(**values)
