"""The traced benchmark (perfbench/traced_op.py) wraps package functions by
name and reads their positional arguments; every name it wraps must still
exist, and a traced run must still succeed, or ``run.py --trace 1`` breaks
without any test noticing. Five source checks ride along, since the project has
no linter: what the oracle borrows from the fast paths, that no module keeps a
stale import, that code outside the tests reads every public name, which
classes may be dataclasses, and that no two classes declare the same record.
So does one documentation check: every command README shows parses."""

import ast
import importlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from diaginterp import cli
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import space_matrix
from test_cli import RETRAIN_ROWS, linear_run_spec

ROOT = Path(__file__).resolve().parent.parent
TRACED_OP = ROOT / "perfbench" / "traced_op.py"
CHECK = ROOT / "perfbench" / "check.py"
SRC = ROOT / "src" / "diaginterp"


def traced_layer_functions() -> dict:
    """LAYER_FUNCTIONS as written in traced_op.py, read without running it."""
    for node in ast.parse(TRACED_OP.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("traced_op.py defines no LAYER_FUNCTIONS")


def test_traced_layer_functions_exist():
    wrapped = [
        (layer, name) for layer, names in traced_layer_functions().items() for name in names
    ]
    # traced_op.py also counts the images the oracle's own enumeration yields
    wrapped.append(("oracle", "_iterate_space"))
    missing = [
        f"{layer}.{name}"
        for layer, name in wrapped
        if not callable(getattr(importlib.import_module(f"diaginterp.{layer}"), name, None))
    ]
    assert missing == []


def test_checker_imports_exist():
    # check.py imports some names that no src caller uses (disagreement_breakdown);
    # deleting one would pass every other test and break every benchmark run
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(CHECK.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("diaginterp")
        for alias in node.names
    ]
    assert ("diaginterp.metrics", "disagreement_breakdown") in imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def traced_spans(tmp_path, *argv) -> list:
    """Run a CLI command under traced_op.py; return the (span name,
    attributes) of every span, in the order they opened."""
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(TRACED_OP), str(spans_path), *argv, "--out", str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        (name, attributes)
        for name, _, _, _, _, attributes in json.loads(spans_path.read_text())["spans"]
    ]


def traced_label_spans(tmp_path, *argv) -> list:
    """traced_spans of a CLI command, its level_label_matrix spans only."""
    return [
        span for span in traced_spans(tmp_path, *argv)
        if span[0].startswith("models.level_label_matrix[")
    ]


def test_traced_run_records_label_spans(tmp_path):
    spans = traced_label_spans(tmp_path, "interpret", "--fixture", "fig2-diagonal", "--seed", "7")
    # the wrapper reads the labelled matrix's row count from its second argument
    rows = len(space_matrix(build_fixture("fig2-diagonal").space))
    assert {"images": rows} in [attributes for _, attributes in spans]
    # the engine labels the black box, the known model, and the known model
    # again after each step, all through level_label_matrix
    steps = len(json.loads((tmp_path / "out" / "report.json").read_text())["steps"])
    assert steps == 3
    assert [name for name, _ in spans] == ["models.level_label_matrix[rule]"] * (2 + steps)


def test_traced_eval_squares_run_labels_the_envelope_with_the_net(tmp_path):
    # the fixture's trainers, the net's labels and the perceptron's retrains
    # all run under the tracer's wrappers
    spans = traced_label_spans(tmp_path, "demo", "--fixture", "eval-squares", "--seeds", "1")
    rows = len(space_matrix(build_fixture("eval-squares").space))
    assert ("models.level_label_matrix[neural]", {"images": rows}) in spans


def test_traced_retrain_run_records_one_linear_update_per_step(tmp_path):
    # models.linear_update_calls counts these spans: a retrained run calls
    # linear_update once per query, and nothing else does
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps(linear_run_spec(RETRAIN_ROWS, [1, 0, 0], max_queries=6)))
    names = [name for name, _ in traced_spans(tmp_path, "interpret", "--spec", str(spec_path))]
    steps = len(json.loads((tmp_path / "out" / "report.json").read_text())["steps"])
    assert steps == 6
    assert names.count("models.linear_update") == steps


def test_traced_oracle_labels_its_black_box_only_with_its_own_labeller(tmp_path):
    # traced_spans asserts the traced run exits 0. The fixed-point search
    # labels fig1c's linear black box with the oracle's scalar labeller alone,
    # and builds neither the 4x4 space's matrix nor a level_label_matrix.
    names = [name for name, _ in traced_spans(tmp_path, "oracle", "--fixture", "fig1c")]
    assert not [name for name in names if name.startswith("models.level_label_matrix")]
    assert "imagespace.space_matrix" not in names


def test_traced_complete_run_labels_a_full_space_without_its_matrix(tmp_path):
    # The complete run labels fig1c's linear black box once, over its
    # SpaceRows, whose shape the wrapper reads, and never builds the matrix.
    spans = traced_spans(tmp_path, "demo", "--fixture", "fig1c")
    assert spans.count(("models.level_label_matrix[linear]", {"images": 2**16})) == 1
    assert "imagespace.space_matrix" not in [name for name, _ in spans]


def test_oracle_borrows_only_the_updater_and_its_packed_inputs():
    # The oracle checks the fast paths, so it labels, counts and enumerates on
    # its own; it borrows rule_update and the two builders of its inputs.
    imported: dict = {}
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported == {
        "errors": {"AbstractionMismatchError", "InvalidConfigError", "SpaceTooLargeError"},
        "imagespace": {"ImageSpaceSpec", "full_columns", "pack_bits"},
        "models": {"LinearModel", "Model", "NeuralModel", "RuleModel", "num_levels",
                   "rule_update"},
    }


def test_every_from_import_in_the_package_is_used():
    # no linter runs on the package; a name left imported after its last use
    # goes would otherwise stay unnoticed
    stale = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                stale += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                ]
    assert stale == []


def test_every_public_name_in_the_package_is_used():
    # A public top-level name that no package module, benchmark script or demo
    # reads is dead code, however many tests call it: a test that needs it as
    # a reference keeps its own copy. The tracer reads its names as strings.
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                continue
            defined += [f"{path.name}: {name}" for name in names if not name.startswith("_")]
    used = {name for names in traced_layer_functions().values() for name in names}
    for path in [*SRC.glob("*.py"), *ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [entry for entry in defined if entry.split(": ")[1] not in used] == []


def test_only_checked_classes_are_dataclasses():
    # Building a dataclass compiles its generated methods at every import; a
    # class pays that only when its __post_init__ checks or normalizes its
    # fields. A plain record, fields and methods alone, is a NamedTuple.
    unchecked, records, plain = [], [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            name = f"{path.name}: {node.name}"
            dataclass = any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list
            )
            methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            if dataclass and "__post_init__" not in methods:
                unchecked.append(name)
            if [ast.unparse(base) for base in node.bases] == ["NamedTuple"]:
                records.append(name)
            elif not dataclass and any(isinstance(n, ast.AnnAssign) for n in node.body):
                plain.append(name)
    assert unchecked == []
    assert plain == []
    assert records == [
        "engine.py: StepRecord", "engine.py: Report",
        "metrics.py: EntropyBreakdown", "metrics.py: Confidence", "models.py: NeuralLayer",
        "oracle.py: OracleResult",
    ]


def test_no_two_classes_share_three_fields():
    # A class that declares three of another's field names is a second copy
    # of that record, and every use of it copies fields from one to the other
    # (a shared grid, width and height, or a count pair, is not).
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                fields[f"{path.name}: {node.name}"] = {
                    n.target.id for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                }
    shared = [
        (first, second, sorted(fields[first] & fields[second]))
        for first, second in itertools.combinations(fields, 2)
        if len(fields[first] & fields[second]) >= 3
    ]
    assert shared == []


def test_every_readme_command_parses():
    # parsed, never run: a renamed or dropped flag breaks the documented command
    blocks = re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("diaginterp ")
    ]
    assert len(commands) >= 6
    parser = cli._build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func), argv
