"""Ratchets on the package's public surface.

A settable value is a parameter with a default or a dataclass field: each is
a setting some caller may change.  An option that only ever takes one value
belongs in a module constant, so the count may fall but must not grow.

Every file is opened by `ppghrv.io.opened`, which decides what a failure
means (HrvError for a read, ConfigError for a write); so no other code
opens one, and `cli.main` catches no OS exception.

The CSV readers cut fields with one tokenizer, the `csv.reader` in
`ppghrv.io._rows`, so two readers cannot disagree on what a line holds.
`ppghrv.io._table` alone tries numpy's `loadtxt` first, and falls through
to `_rows` wherever the two could differ.

`import ppghrv.cli` loads no scipy module.

SDNN or RMSSD is picked in one place, `ppghrv.metrics.hrv_rows`; every
other windowed HRV goes through it.

A decision tree is a forest of one: dt and rf share `tree.TreeModel`'s batch
predict, and only `tree.py` walks a tree.

A `run` cell and the step subcommands share their settings' defaults, which
ExperimentConfig holds, and each setting's bound is checked by the step that
uses the value, so its message is written once.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import ppghrv
import ppghrv.cli
import ppghrv.errors
import ppghrv.experiment
import ppghrv.io
import ppghrv.metrics
import ppghrv.models
from ppghrv.models.base import TrainedModel

MAX_SETTABLE_VALUES = 75


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_counter_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c, d=2):
    return lambda x=0: x

@dataclass(frozen=True)
class C:
    a: int
    b: tuple = field(repr=False)
    LIMIT = 3

class Plain:
    a: int = 1
'''
    assert settable_values(source) == 3 + 2


def test_settable_values_do_not_grow():
    src = Path(ppghrv.__file__).parent
    total = sum(settable_values(p.read_text()) for p in sorted(src.rglob("*.py")))
    assert total <= MAX_SETTABLE_VALUES


def test_models_package_binds_no_public_names():
    # callers import each model submodule by name
    public = [
        name for name in vars(ppghrv.models)
        if not name.startswith("_") and not isinstance(
            getattr(ppghrv.models, name), type(ppghrv.models)
        )
    ]
    assert public == []


def test_one_single_row_predict():
    # every model predicts one row through TrainedModel.predict, which hands
    # the row to the model's batch path
    defining = set()
    for info in pkgutil.walk_packages(ppghrv.models.__path__, "ppghrv.models."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, type) and "predict" in vars(value):
                defining.add(value)
    assert defining == {TrainedModel}


def test_one_tree_model():
    # a decision tree is a forest of one: the tree kinds share one batch
    # predict, and only tree.py walks a tree
    defining = set()
    walkers = set()
    for info in pkgutil.walk_packages(ppghrv.models.__path__, "ppghrv.models."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and "_predict_batch" in vars(value):
                defining.add(value.__qualname__)
        words = set(re.findall(r"\w+", Path(module.__file__).read_text()))
        if words & {"_walk", "_as_lists"}:
            walkers.add(info.name)
    assert defining == {"TreeModel", "KnnRegressor", "MlpRegressor"}
    assert walkers == {"ppghrv.models.tree"}


def _exception_classes(module) -> set[str]:
    return {
        name for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }


def test_one_error_type_per_exit_code():
    # the CLI tells errors apart only by exit code: ConfigError 1, HrvError 2
    assert _exception_classes(ppghrv.errors) == {"HrvError", "ConfigError"}
    others = {}
    for info in pkgutil.walk_packages(ppghrv.__path__, "ppghrv."):
        if info.name != "ppghrv.errors":
            others[info.name] = _exception_classes(importlib.import_module(info.name))
    assert "ppghrv.cli" in others
    assert {name: found for name, found in others.items() if found} == {}


# calls that open a file: open() itself, and these methods of any object
# (pathlib's readers and writers, Path.open, os.open, gzip.open, ...)
_OPENING_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}

# calls that cut text into fields or lines: csv's readers and str's splits
_TOKENIZING_METHODS = {"reader", "DictReader", "split", "rsplit", "splitlines"}


def file_opens(source: str, allowed: str | None) -> list[str]:
    """The calls in source that open a file, outside the function `allowed`."""
    return calls_outside(source, allowed, {"open"}, _OPENING_METHODS)


def _nodes_inside(tree: ast.AST, function: str | None) -> set[int]:
    """The ids of every node in the functions named `function`."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
        for inner in ast.walk(node)
    }


def calls_outside(source: str, allowed: str | None, functions: set, methods: set) -> list[str]:
    """The calls in source of a name in functions or of a method in methods
    (of any object), outside the function `allowed`."""
    tree = ast.parse(source)
    exempt = _nodes_inside(tree, allowed)
    return [
        f"{node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in exempt and (
            (isinstance(node.func, ast.Name) and node.func.id in functions)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in methods)
        )
    ]


def test_finder_sees_each_way_to_open_a_file():
    source = '''
def opened(path, mode):
    return open(path, mode)

def f(p, fh):
    open(p)
    p.read_text(), p.write_text(""), p.read_bytes(), p.write_bytes(b"")
    Path.open(p), os.open(p, 0)
    fh.read(), fh.write("")
'''
    assert len(file_opens(source, allowed=None)) == 8
    assert len(file_opens(source, allowed="opened")) == 7


def test_only_io_opened_opens_files():
    src = Path(ppghrv.__file__).parent
    found = {}
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        calls = file_opens(path.read_text(), allowed="opened" if name == "io.py" else None)
        if calls:
            found[name] = calls
    assert found == {}
    assert len(file_opens((src / "io.py").read_text(), allowed=None)) == 1


def test_finder_sees_each_tokenizer():
    source = '''
def _rows(fh):
    return csv.reader(fh)

def f(line, fh):
    line.split(","), str.split(line, ","), re.split(",", line), line.rsplit(",")
    fh.read().splitlines(), csv.DictReader(fh), line.count(",")
'''
    assert len(calls_outside(source, None, set(), _TOKENIZING_METHODS)) == 7
    assert len(calls_outside(source, "_rows", set(), _TOKENIZING_METHODS)) == 6


def test_only_io_rows_tokenizes():
    source = Path(ppghrv.io.__file__).read_text()
    assert calls_outside(source, "_rows", set(), _TOKENIZING_METHODS) == []
    assert len(calls_outside(source, None, set(), _TOKENIZING_METHODS)) == 1
    # numpy's C tokenizer is tried only by _table, which falls through to _rows
    assert calls_outside(source, "_table", set(), {"loadtxt"}) == []
    assert len(calls_outside(source, None, set(), {"loadtxt"})) == 1


def test_cli_imports_no_scipy():
    # scipy is imported where it is used (the peak search, the Manhattan
    # bound), so a command that does neither does not pay for its import
    probe = ("import sys, ppghrv.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    src = str(Path(ppghrv.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


_KIND_VALUES = {member.value for member in ppghrv.metrics.HrvMetricKind}


def _names_a_kind(node: ast.expr) -> bool:
    """node is an HrvMetricKind member (HrvMetricKind.SDNN) or its value
    ("sdnn"), or a tuple, list or set that holds one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(element) for element in node.elts)
    if isinstance(node, ast.Attribute):
        return ast.unparse(node.value).rsplit(".", 1)[-1] == "HrvMetricKind"
    return isinstance(node, ast.Constant) and node.value in _KIND_VALUES


def kind_comparisons(source: str, allowed: str | None) -> list[str]:
    """The comparisons in source against an HrvMetricKind member, outside the
    function `allowed`."""
    tree = ast.parse(source)
    exempt = _nodes_inside(tree, allowed)
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in exempt
        and any(_names_a_kind(side) for side in [node.left, *node.comparators])
    ]


def test_finder_sees_each_kind_comparison():
    source = '''
def hrv_rows(x, kind):
    return sdnn_rows(x) if kind is HrvMetricKind.SDNN else rmssd_rows(x)

def f(kind):
    kind == HrvMetricKind.RMSSD, metrics.HrvMetricKind.SDNN is not kind
    kind.value == "sdnn", kind in (HrvMetricKind.SDNN,), kind.value != "mape"
    kind is other, kind in KINDS
'''
    assert len(kind_comparisons(source, None)) == 5
    assert len(kind_comparisons(source, "hrv_rows")) == 4


def test_only_metrics_hrv_rows_picks_the_metric():
    src = Path(ppghrv.__file__).parent
    found = {}
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        calls = kind_comparisons(path.read_text(), "hrv_rows" if name == "metrics.py" else None)
        if calls:
            found[name] = calls
    assert found == {}
    assert len(kind_comparisons(Path(ppghrv.metrics.__file__).read_text(), None)) == 1


def test_cli_main_catches_only_the_package_errors():
    tree = ast.parse(Path(ppghrv.cli.__file__).read_text())
    main = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    caught = [
        ast.unparse(handler.type)
        for node in ast.walk(main) if isinstance(node, ast.Try)
        for handler in node.handlers
    ]
    assert caught == ["ConfigError", "HrvError", "Exception"]


def test_step_defaults_are_the_run_defaults():
    parser = ppghrv.cli.build_parser()
    train = parser.parse_args(["train", "--dataset", "d.csv", "--model", "dt", "--out", "m.bin"])
    process = parser.parse_args(["process", "--ppg", "p.csv", "--out-hr", "hr.csv"])
    run = ppghrv.experiment.ExperimentConfig(out_dir=Path("out"))
    for key in ("budget", "seed", "val_fraction", "mlp_max_epochs"):
        assert getattr(train, key) == getattr(run, key), key
    assert process.stride_s == run.stride_s


# the bound of each setting that `run` and a step subcommand share
_SHARED_BOUNDS = [
    "budget must lie in [1, ",
    "val_fraction must lie strictly between 0 and 1, with 1 - val_fraction < 1",
    "train_fraction must lie strictly between 0 and 1",
    "n_s must be at least 2 s",
    "stride_s must be at least 1 s",
    "max_epochs must be >= 1",
    "repetitions must lie in [",
    "seed must be >= 0, got ",
]


def test_each_shared_bound_is_stated_once():
    src = Path(ppghrv.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.rglob("*.py")))
    assert {bound: text.count(bound) for bound in _SHARED_BOUNDS} == dict.fromkeys(
        _SHARED_BOUNDS, 1
    )


# rules that several modules apply, each stated by one function whose
# message appears once in the package
_SINGLE_RULE_MESSAGES = [
    "sampling rate must be > 0 Hz, got ",
    "max_depth must be in [1, ",
    " must be > 0, not ",
    "a dataset needs at least one sample",
]


def test_each_single_rule_message_is_stated_once():
    src = Path(ppghrv.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.rglob("*.py")))
    assert {m: text.count(m) for m in _SINGLE_RULE_MESSAGES} == dict.fromkeys(
        _SINGLE_RULE_MESSAGES, 1
    )


# numpy's seed derivation, called by name or as a method of numpy.random
_SEEDING = {"SeedSequence"}


def test_finder_sees_each_seed_sequence():
    source = '''
def derived_seed(entropy):
    return np.random.SeedSequence(entropy).generate_state(1)[0]

def f(seed):
    SeedSequence(seed), numpy.random.SeedSequence((seed, 1)), np.random.default_rng(seed)
'''
    assert len(calls_outside(source, None, _SEEDING, _SEEDING)) == 3
    assert len(calls_outside(source, "derived_seed", _SEEDING, _SEEDING)) == 2


def test_only_the_synth_helpers_derive_seeds():
    src = Path(ppghrv.__file__).parent
    found = {}
    for path in sorted(src.rglob("*.py")):
        if path.name != "synth.py":
            calls = calls_outside(path.read_text(), None, _SEEDING, _SEEDING)
            if calls:
                found[path.relative_to(src).as_posix()] = calls
    assert found == {}
    # one call in each helper: leaving either out leaves exactly one
    synth = (src / "synth.py").read_text()
    assert len(calls_outside(synth, None, _SEEDING, _SEEDING)) == 2
    for helper in ("derived_rng", "derived_seed"):
        assert len(calls_outside(synth, helper, _SEEDING, _SEEDING)) == 1


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and not isinstance(node.value, bool) and (
        node.value == 0
    )


def _is_diff(node: ast.expr) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "diff") or (
        isinstance(func, ast.Attribute) and func.attr == "diff"
    )


def diff_sign_tests(source: str, allowed: str | None) -> list[str]:
    """The comparisons in source of a diff(...) call with 0, outside the
    function `allowed`."""
    tree = ast.parse(source)
    exempt = _nodes_inside(tree, allowed)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in exempt:
            sides = [node.left, *node.comparators]
            if any(map(_is_diff, sides)) and any(map(_is_zero, sides)):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_finder_sees_each_diff_sign_test():
    source = '''
def first_non_increasing(t):
    return np.diff(t) > 0

def f(t, x):
    np.diff(t) <= 0, 0 < numpy.diff(t), diff(t, axis=-1) != 0.0, not all(np.diff(t) > 0)
    np.diff(t) > 1, x > 0, np.diff(t) * 0 > 0, t.diff > 0
'''
    assert len(diff_sign_tests(source, None)) == 5
    assert len(diff_sign_tests(source, "first_non_increasing")) == 4


def test_only_first_non_increasing_tests_time_order():
    src = Path(ppghrv.__file__).parent
    found = {}
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        calls = diff_sign_tests(
            path.read_text(), "first_non_increasing" if name == "synth.py" else None
        )
        if calls:
            found[name] = calls
    assert found == {}
    assert len(diff_sign_tests((src / "synth.py").read_text(), None)) == 1


def raises_of(source: str, exception: str) -> list[str]:
    """The raise statements in source whose exception is named `exception`,
    called or not, by name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).rsplit(".", 1)[-1] == exception:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_finder_sees_each_raise_of_an_exception():
    source = '''
def f(x):
    if x:
        raise ValueError("bad")
    if x > 1:
        raise ValueError
    try:
        g()
    except ValueError:
        raise builtins.ValueError(x) from None
    raise HrvError("ValueError")
    raise
'''
    assert len(raises_of(source, "ValueError")) == 3
    assert len(raises_of(source, "HrvError")) == 1


def test_no_bare_value_error():
    # bad data is an HrvError (exit 2); the CLI reports any other exception
    # as an internal error (exit 3)
    src = Path(ppghrv.__file__).parent
    found = {}
    for path in sorted(src.rglob("*.py")):
        raises = raises_of(path.read_text(), "ValueError")
        if raises:
            found[path.relative_to(src).as_posix()] = raises
    assert found == {}
