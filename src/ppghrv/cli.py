"""Command-line front end.

Subcommands: synth, process, train, eval, run, amplify, bench.  Exit codes:
0 success, 1 bad configuration (including bad flags), 2 bad input data,
3 internal error.  `run` additionally accepts a key=value config file;
explicit flags override file values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .amplify import (
    DEFAULT_MAPE_LEVELS_PCT,
    DEFAULT_WINDOW_S,
    amplification_table,
    default_base_trace,
)
from .data import build_hrv_dataset, check_processed, check_window
from .errors import ConfigError, HrvError
from .experiment import ExperimentConfig, evaluate, heart_rate, run_experiment, synthesize
from .io import (
    opened,
    read_dataset_csv,
    read_ppg_csv,
    read_rr_csv,
    write_amplification_csv,
    write_dataset_csv,
    write_hr_csv,
    write_ppg_csv,
    write_rr_csv,
)
from .metrics import HrvMetricKind
from .models.base import ModelKind
from .models.bench import bench_inference, check_repetitions
from .models.codec import load_model, save_model, serialized_size
from .models.search import check_search, random_search
from .sigproc import DEFAULT_SAMPLING_RATE_HZ, DEFAULT_Z_SCORE, check_z_score
from .synth import ACTIVITY_PRESETS, check_seed, derived_rng


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _member(enum, label: str):
    """Converter to the member of enum whose value is the text, in any case;
    the error lists the enum's values."""
    def convert(text: str):
        try:
            return enum(text.lower())
        except ValueError:
            known = ", ".join(member.value for member in enum)
            raise ConfigError(f"unknown {label} {text!r}; choose one of: {known}") from None
    return convert


_metric = _member(HrvMetricKind, "metric")
_model_kind = _member(ModelKind, "model")


def _csv_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ConfigError(f"empty list value {text!r}")
    return items


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _csv_list(text))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"expected a seed (an integer >= 0), got {text!r}") from None
    check_seed(value)
    return value


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _output(text: str) -> str:
    """An output path: not a directory, and inside a directory that exists."""
    path = Path(text)
    if path.is_dir():
        raise ConfigError(f"output path {text} is a directory")
    if not path.absolute().parent.is_dir():
        raise ConfigError(f"no directory for output path {text}")
    return text


# the flags that name a file: the outputs, then the inputs
_PATH_FLAGS = ("--out-ppg", "--out-rr", "--out-hr", "--out-dataset", "--out", "--out-trace",
               "--ppg", "--rr", "--dataset", "--model")


def _check_distinct_paths(args) -> None:
    """ConfigError when two path flags name one file, so that no output
    overwrites another output or an input."""
    seen = {}
    for flag in _PATH_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if isinstance(value, str):  # set, and not train's --model kind
            real = os.path.realpath(value)
            if real in seen:
                raise ConfigError(f"{seen[real]} and {flag} name the same file {value}")
            seen[real] = flag


def _list_of(convert):
    """Converter for a comma-separated list whose items `convert` parses."""
    return lambda text: tuple(convert(part) for part in _csv_list(text))


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# `run`'s config-file keys, each with the converter to its ExperimentConfig
# value; each is also a flag (`duration_s` is `--duration-s`)
RUN_FILE_KEYS = {
    "out_dir": str,
    "activities": _csv_list,
    "metrics": _list_of(_metric),
    "lengths": _int_list,
    "models": _list_of(_model_kind),
    "duration_s": _float,
    "stride_s": int,
    "budget": int,
    "seed": _seed,
    "train_fraction": _float,
    "val_fraction": _float,
    "bench_repetitions": int,
    "clean": _bool,
    "mlp_max_epochs": int,
}


def read_config_file(path) -> dict:
    """key=value lines; # starts a comment; unknown keys are rejected."""
    values = {}
    try:
        with opened(path, "r") as fh:
            text = fh.read()
    except HrvError as err:  # the config path is a setting
        raise ConfigError(str(err)) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in RUN_FILE_KEYS:
            known = ", ".join(sorted(RUN_FILE_KEYS))
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; known: {known}")
        try:
            values[key] = RUN_FILE_KEYS[key](raw.strip())
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from None
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad {key} value {raw.strip()!r}") from None
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="ppghrv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth",
                       help="generate a synthetic PPG trace with RR ground truth")
    p.add_argument("--preset", required=True, choices=sorted(ACTIVITY_PRESETS))
    p.add_argument("--duration-s", type=_float, default=600.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--clean", action="store_true",
                   help="disable motion artifacts and sensor noise")
    p.add_argument("--out-ppg", type=_output, required=True)
    p.add_argument("--out-rr", type=_output, required=True)

    p = sub.add_parser("process",
                       help="PPG CSV -> per-second HR CSV (and optionally a dataset)")
    p.add_argument("--ppg", required=True)
    p.add_argument("--sampling-rate-hz", type=_float, default=DEFAULT_SAMPLING_RATE_HZ)
    p.add_argument("--z-score", type=_float, default=DEFAULT_Z_SCORE)
    p.add_argument("--out-hr", type=_output, required=True)
    p.add_argument("--rr", help="RR ground-truth CSV, needed for --out-dataset")
    p.add_argument("--metric", type=_metric, default=HrvMetricKind.RMSSD)
    p.add_argument("--n-s", type=int, default=300)
    p.add_argument("--stride-s", type=int, default=ExperimentConfig.stride_s)
    p.add_argument("--out-dataset", type=_output)

    p = sub.add_parser("train",
                       help="random hyperparameter search over one model kind")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", type=_model_kind, required=True)
    p.add_argument("--budget", type=int, default=ExperimentConfig.budget)
    p.add_argument("--seed", type=_seed, default=ExperimentConfig.seed)
    p.add_argument("--val-fraction", type=_float, default=ExperimentConfig.val_fraction)
    p.add_argument("--mlp-max-epochs", type=int, default=ExperimentConfig.mlp_max_epochs)
    p.add_argument("--out", type=_output, required=True)

    p = sub.add_parser("eval",
                       help="test MAPE of a saved model on a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-trace", type=_output,
                   help="write window_end_s,truth,sigproc,model CSV")

    p = sub.add_parser("run",
                       help="full experiment matrix; see --config")
    p.add_argument("--config", help="key=value file; flags override it")
    for key, convert in RUN_FILE_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if convert is _bool:
            p.add_argument(flag, action="store_true", default=None)
        else:
            p.add_argument(flag, type=convert)

    p = sub.add_parser("amplify",
                       help="RR-to-HRV error amplification table")
    p.add_argument("--levels", type=_list_of(_float), default=DEFAULT_MAPE_LEVELS_PCT)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--window-s", type=_float, default=DEFAULT_WINDOW_S)
    p.add_argument("--out", type=_output, required=True)

    p = sub.add_parser("bench",
                       help="single-prediction latency of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", help="probe rows come from this dataset CSV")
    p.add_argument("--repetitions", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def _cmd_synth(args) -> None:
    gt, ppg = synthesize(args.preset, args.duration_s, args.seed, args.clean)
    write_ppg_csv(args.out_ppg, ppg)
    write_rr_csv(args.out_rr, gt)
    print(f"wrote {len(ppg.samples)} PPG samples to {args.out_ppg}")
    print(f"wrote {gt.beat_times_s.size} beats to {args.out_rr}")


def _cmd_process(args) -> None:
    if bool(args.out_dataset) != bool(args.rr):
        raise ConfigError("--out-dataset and --rr must be given together")
    check_z_score(args.z_score)
    if args.rr:
        check_window(args.n_s, args.stride_s)
    shr = heart_rate(read_ppg_csv(args.ppg, declared_rate_hz=args.sampling_rate_hz), args.z_score)
    ds = None
    if args.rr:
        gt = read_rr_csv(args.rr)
        ds = build_hrv_dataset(
            shr, gt, n_s=args.n_s, kind=args.metric, stride_s=args.stride_s
        )
    # write only once every step has succeeded, so a failure leaves no file
    write_hr_csv(args.out_hr, shr)
    print(f"wrote {len(shr)} per-second HRs to {args.out_hr}")
    if ds is not None:
        write_dataset_csv(args.out_dataset, ds)
        print(
            f"wrote {len(ds)} samples (n={args.n_s}s, {args.metric.value}) "
            f"to {args.out_dataset}"
        )


def _cmd_train(args) -> None:
    check_search(args.budget, args.seed, args.val_fraction, args.mlp_max_epochs)
    ds = read_dataset_csv(args.dataset)
    check_processed(ds)
    result = random_search(
        ds, args.model, budget=args.budget, seed=args.seed,
        val_fraction=args.val_fraction, mlp_max_epochs=args.mlp_max_epochs,
    )
    save_model(result.model, args.out)
    print(f"best hyperparams: {result.best.hyperparams}")
    print(f"validation MAPE: {result.best.val_mape_pct:.4f}%")
    if result.best.best_epoch is not None:
        print(f"best epoch: {result.best.best_epoch}")
    print(f"model bytes: {serialized_size(result.model)}")
    print(f"saved model to {args.out}")


def _cmd_eval(args) -> None:
    model = load_model(args.model)
    ds = read_dataset_csv(args.dataset)
    check_processed(ds)
    test_mape, sigproc_mape = evaluate(model, ds, args.out_trace)
    print(f"model MAPE: {test_mape:.4f}%")
    print(f"sigproc MAPE: {sigproc_mape:.4f}%")
    if args.out_trace:
        print(f"wrote trace to {args.out_trace}")


def _cmd_run(args) -> None:
    values = read_config_file(args.config) if args.config else {}
    for key in RUN_FILE_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    if not values.get("out_dir"):
        raise ConfigError("run needs --out-dir (or out_dir in the config file)")
    values["out_dir"] = Path(values["out_dir"])
    cfg = ExperimentConfig(**values)
    rows = run_experiment(cfg)
    for r in rows:
        latency = "-" if r.latency_us_mean is None else f"{r.latency_us_mean:.1f}us"
        print(
            f"{r.activity} {r.metric} n={r.n_s}s {r.model}: "
            f"mape={r.mape_pct:.2f}% sigproc={r.sigproc_mape_pct:.2f}% "
            f"bytes={r.model_bytes} latency={latency}"
        )
    print(f"wrote {len(rows)} rows to {cfg.out_dir / 'results.csv'}")


def _cmd_amplify(args) -> None:
    rows = amplification_table(
        default_base_trace(args.seed),
        mape_levels_pct=args.levels,
        trials=args.trials,
        window_s=args.window_s,
        rng_seed=args.seed,
    )
    write_amplification_csv(args.out, rows)
    for r in rows:
        print(
            f"rr={r.rr_mape_pct:g}% -> rmssd={r.rmssd_mape_pct:.2f}% "
            f"sdnn={r.sdnn_mape_pct:.2f}%"
        )
    print(f"wrote {len(rows)} rows to {args.out}")


def _cmd_bench(args) -> None:
    check_repetitions(args.repetitions)
    model = load_model(args.model)
    if args.dataset:
        ds = read_dataset_csv(args.dataset)
        check_processed(ds)
        probes = list(ds.features[:64])
    else:
        rng = derived_rng((args.seed,))
        probes = list(rng.normal(size=(64, model.n_features)))
    stats = bench_inference(model, probes, repetitions=args.repetitions)
    print(f"repetitions: {stats.repetitions}")
    print(f"min: {stats.min_us:.2f}us")
    print(f"mean: {stats.mean_us:.2f}us")
    print(f"p99: {stats.p99_us:.2f}us")


_COMMANDS = {
    "synth": _cmd_synth,
    "process": _cmd_process,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "run": _cmd_run,
    "amplify": _cmd_amplify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_distinct_paths(args)
        _COMMANDS[args.command](args)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except HrvError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
