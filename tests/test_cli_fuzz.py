"""A fuzz property that holds the CLI to its exit codes.

Each example builds a valid input on a grid of 3x3 or smaller from
``np.random.default_rng(seed)``: a run spec for ``interpret --spec``, or a
models file and a space file for ``oracle --models --space``. It applies one
mutation and calls cli.main in-process on temporary files. A mutation
deletes one key, puts one of MUTANTS in place of one value, or sets the
width or the height to one of them in the space and in both models at once,
so that a grid check cannot hide how a size is handled. A separate property
adds a misspelt copy of one key, which must be refused by name.

The CLI must exit 0, 2 or 3. A non-zero exit prints one ``error: ...`` line
and writes no output directory; exit 0 writes strict JSON. A huge query,
patience or epoch budget only makes a valid run longer, so those settings
draw no huge values. The settings are derandomized and keep no example
database, so every run checks the same examples.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from diaginterp.cli import main
from diaginterp.engine import config_to_json
from diaginterp.imagespace import spec_to_json
from diaginterp.models import model_to_json

from test_properties import SEEDS, random_config

# Written into the JSON text as it is: json.dumps would write inf as Infinity.
RAW_1E400 = "@1e400"
MUTANTS = [None, 0, 1.5, True, "x", [], {}, [1], RAW_1E400, -1, 10**6, 10**30]
HUGE = (10**6, 10**30)
BUDGET_KEYS = ("max_queries", "stall_patience", "retrain_epochs")
FUZZ_SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def valid_files(seed: int, command: str) -> dict:
    """The input files of ``command``, by name, as JSON documents."""
    rng = np.random.default_rng(seed)
    config = random_config(rng, "epsilon" if rng.integers(0, 4) == 0 else "diagnostic")
    if command == "oracle":
        models = {key: model_to_json(getattr(config, key)) for key in ("model_a", "model_b")}
        return {"models": models, "space": spec_to_json(config.space)}
    doc = config_to_json(config)
    doc.update(max_queries=int(rng.integers(0, 5)), retrain_epochs=int(rng.integers(1, 10)))
    return {"spec": doc}


def paths(node, prefix=()):
    """The path of every value below ``node``, a nest of dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from paths(value, (*prefix, key))


def sized_documents(files: dict) -> list[dict]:
    """The documents that carry a grid: the space and both models."""
    if "spec" in files:
        return [files["spec"][key] for key in ("space", "model_a", "model_b")]
    return [files["space"], *files["models"].values()]


def run_cli(command: str, files: dict, root: Path) -> tuple[int, str, Path]:
    """cli.main's exit code and stderr on ``files``, and its output directory."""
    for name, doc in files.items():
        (root / f"{name}.json").write_text(json.dumps(doc).replace(f'"{RAW_1E400}"', "1e400"))
    if command == "oracle":
        argv = ["oracle", "--models", str(root / "models.json"),
                "--space", str(root / "space.json")]
    else:
        argv = ["interpret", "--spec", str(root / "spec.json")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--out", str(root / "out")])
    return code, err.getvalue(), root / "out"


def strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@FUZZ_SETTINGS
@given(
    SEEDS,
    st.sampled_from(["interpret", "oracle"]),
    st.sampled_from(["delete", "replace", "size"]),
    st.sampled_from(MUTANTS),
    st.integers(min_value=0, max_value=2**16),
)
# seed 4 is a rule pair on a full 3x3 space: a huge grid reaches each guard
@example(seed=4, command="interpret", kind="size", value=10**6, pick=0)
@example(seed=4, command="interpret", kind="size", value=10**30, pick=1)
@example(seed=4, command="oracle", kind="size", value=10**6, pick=1)
@example(seed=4, command="oracle", kind="size", value=10**30, pick=0)
def test_one_mutation_exits_0_2_or_3(seed, command, kind, value, pick):
    # ``pick`` picks the grid side, or the value to delete or replace
    files = valid_files(seed, command)
    if kind == "size":
        for doc in sized_documents(files):
            doc[("width", "height")[pick % 2]] = value
    else:
        every = list(paths(files))
        path = every[pick % len(every)]
        assume(not (path[-1] in BUDGET_KEYS and value in HUGE))
        # a file's top level is replaced, never deleted; a list has no keys
        assume(kind == "replace" or (len(path) > 1 and isinstance(path[-1], str)))
        *parents, key = path
        holder = files
        for step in parents:
            holder = holder[step]
        if kind == "delete":
            del holder[key]
        else:
            holder[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = run_cli(command, files, Path(tmp))
        assert code in (0, 2, 3), err
        if code:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert not out.exists()
        else:
            strict_json((out / f"{'oracle' if command == 'oracle' else 'report'}.json").read_text())


@settings(FUZZ_SETTINGS, max_examples=100)
@given(SEEDS, st.sampled_from(["interpret", "oracle"]), st.integers(min_value=0, max_value=2**16))
def test_a_misspelt_key_exits_2_naming_it(seed, command, pick):
    # a copy of one object key, misspelt, beside the valid original: only
    # the unknown key is wrong, so the run must refuse it by name
    files = valid_files(seed, command)
    keys = [path for path in paths(files) if len(path) > 1 and isinstance(path[-1], str)]
    *parents, key = keys[pick % len(keys)]
    holder = files
    for step in parents:
        holder = holder[step]
    misspelt = key[:-1] if key[:-1] not in holder else key + "s"
    holder[misspelt] = holder[key]
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = run_cli(command, files, Path(tmp))
        assert code == 2, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert lines[0].endswith(f" has unknown key {misspelt!r}"), err
        assert not out.exists()
