"""Output checker: decides whether an op failed and whether it is inconsistent.

An op fails when its exit code is non-zero, when an output ``.json`` file is
not strict JSON (``NaN`` and ``Infinity`` rejected), when a report's initial
disagreement counts or sample size differ from ``brute_force_breakdown``,
when ``oracle.json``'s counts differ from ``disagreement_breakdown``, or when a
``trajectory*.csv`` does not have one row per step.

An op is inconsistent when a report's termination reason contradicts its own
numbers: ``no_disagreement`` or ``entropy_zero`` with a final entropy above 0.

The checker imports the program under test from ``src``; it runs outside the
timed region, once per distinct input.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from diaginterp.engine import config_from_json
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import spec_from_json
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import model_from_json, num_levels
from diaginterp.oracle import brute_force_breakdown

ZERO_ENTROPY_TERMINATIONS = ("no_disagreement", "entropy_zero")


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def strict_json(path: Path):
    return json.loads(
        path.read_text(), parse_constant=_reject_constant, parse_float=_finite_float
    )


class OutputChecker:
    """Checks op outputs; brute-force answers are cached per distinct input."""

    def __init__(self) -> None:
        self._oracle_cache: dict = {}

    def _brute_force(self, key, model_a, model_b, space):
        if key not in self._oracle_cache:
            result = brute_force_breakdown(model_a, model_b, space, keep_images=0)
            self._oracle_cache[key] = (list(result.disagreement_counts), result.sample_size)
        return self._oracle_cache[key]

    def _reference_models(self, check: dict, report: dict):
        """The (model_a, model_b, space) a report's run was given, and a cache key."""
        if check["kind"] == "spec":
            doc = json.loads(Path(check["spec"]).read_text())
            key = check["spec"]
        elif check["kind"] == "fixture":
            fixture = build_fixture(check["name"])
            return ("fixture", check["name"]), fixture.model_a, fixture.model_b, fixture.space
        else:
            doc = report["config"]
            key = json.dumps(doc, sort_keys=True)
        config = config_from_json(doc)
        return key, config.model_a, config.model_b, config.space

    def check(self, op: dict, out_dir: Path) -> tuple[list[str], bool]:
        """Return (failure reasons, inconsistent) for one op's outputs."""
        failures: list[str] = []
        docs = {}
        for path in sorted(out_dir.glob("*.json")):
            try:
                docs[path.name] = strict_json(path)
            except ValueError as err:
                failures.append(f"{path.name}: not strict JSON ({err})")
        if failures:
            return failures, False
        if op["check"]["kind"].startswith("oracle"):
            return self._check_oracle(op["check"], docs.get("oracle.json")), False
        reports = {name: doc for name, doc in docs.items() if name.startswith("report")}
        if not reports:
            return ["no report*.json written"], False
        inconsistent = False
        for name, report in reports.items():
            failures += self._check_report(op["check"], report, out_dir, name)
            inconsistent |= _inconsistent(report)
        return failures, inconsistent

    def _check_report(self, check: dict, report: dict, out_dir: Path, name: str) -> list[str]:
        failures = []
        key, model_a, model_b, space = self._reference_models(check, report)
        counts, sample_size = self._brute_force(key, model_a, model_b, space)
        if report["mode"] == "epsilon":
            counts = counts[-1:]
        initial = report["initial_entropy"]
        if (initial["disagreement_counts"], initial["sample_size"]) != (counts, sample_size):
            failures.append(
                f"{name}: initial counts {initial['disagreement_counts']} of "
                f"{initial['sample_size']}, brute force {counts} of {sample_size}"
            )
        trajectory = out_dir / name.replace("report", "trajectory").replace(".json", ".csv")
        if not trajectory.exists():
            failures.append(f"{trajectory.name} missing")
        else:
            rows = trajectory.read_text().splitlines()[1:]
            if len(rows) != len(report["steps"]):
                failures.append(
                    f"{trajectory.name}: {len(rows)} rows for {len(report['steps'])} steps"
                )
        return failures

    def _check_oracle(self, check: dict, doc: dict | None) -> list[str]:
        if doc is None:
            return ["oracle.json missing"]
        if check["kind"] == "oracle-fixture":
            fixture = build_fixture(check["name"])
            model_a, model_b, space = fixture.model_a, fixture.model_b, fixture.space
        else:
            models = json.loads(Path(check["models"]).read_text())
            model_a = model_from_json(models["model_a"])
            model_b = model_from_json(models["model_b"])
            space = spec_from_json(json.loads(Path(check["space"]).read_text()))
        fast = disagreement_breakdown(
            model_a, model_b, space, top_only=num_levels(model_a) != num_levels(model_b)
        )
        expected = (list(fast.disagreement_counts), fast.sample_size)
        if (doc["disagreement_counts"], doc["sample_size"]) != expected:
            return [
                f"oracle.json counts {doc['disagreement_counts']} of {doc['sample_size']}, "
                f"disagreement_breakdown {expected[0]} of {expected[1]}"
            ]
        return []


def _inconsistent(report: dict) -> bool:
    steps = report["steps"]
    final_entropy = (
        steps[-1]["entropy_after"]["total"] if steps else report["initial_entropy"]["total"]
    )
    return report["termination"] in ZERO_ENTROPY_TERMINATIONS and final_entropy > 0.0
