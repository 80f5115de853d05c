"""The traced benchmark (perfbench/traced_op.py) wraps package functions by
name; every name it wraps must still exist, or ``run.py --trace 1`` breaks
without any test noticing."""

import ast
import importlib
from pathlib import Path

TRACED_OP = Path(__file__).resolve().parent.parent / "perfbench" / "traced_op.py"


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

