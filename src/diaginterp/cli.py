"""Command-line front end: seeded, file-driven interpretation runs.

Subcommands:

* ``interpret`` -- run the query loop from a named fixture or an explicit
  JSON run spec, such as the ``config`` every report.json echoes (which
  reruns that report's run); writes report.json and trajectory.csv.
* ``oracle``    -- brute-force disagreement counts for a model pair over a
  space (plus the exhaustive fixed point when the pair qualifies); writes
  oracle.json.
* ``demo``      -- run a named fixture end to end and write per-run reports
  plus a human-readable summary.txt.

Exit codes: 0 success, 2 configuration problem, 3 enumeration guard tripped.
A bad input exits 2 or 3 with one typed ``error:`` line and no output; an
exit of 1 with a traceback is a program bug. All outputs are byte-stable for
a given command line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# Set before numpy is first imported, unless the user set it. The matrix
# products here are small (labels take 1,024 rows at a time, training sets a
# few hundred), and OpenBLAS's worker threads slow those down, and slow
# numpy's import too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .engine import (
    EngineConfig,
    Report,
    admits_complete_run,
    config_from_json,
    run_complete_interpretation,
    run_interpretation,
    trajectory_rows,
)
from .errors import DiagInterpError, InvalidConfigError, SpaceTooLargeError
from .fixtures import build_fixture, fixture_description
from .imagespace import json_field, json_keys, spec_from_json
from .metrics import raw_interpretability
from .models import model_from_json, training_accuracy
from .oracle import brute_force_breakdown, exhaustive_fixed_point

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _write(path: Path, text: str) -> None:
    """Write one output file and its directory: an --out that cannot hold it is a bad input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise DiagInterpError(f"cannot write {path}: {err}") from None


def _write_json(path: Path, doc: dict) -> None:
    _write(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_lines(path: Path, lines: list[str]) -> None:
    _write(path, "\n".join(lines) + "\n")


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise DiagInterpError(f"cannot read {path}: {err}") from None
    except (ValueError, RecursionError) as err:  # bad JSON, non-UTF-8, a huge int, deep nesting
        raise DiagInterpError(f"malformed JSON in {path}: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _write_report(report: Report, out_dir: Path, stem: str = "report") -> None:
    _write_json(out_dir / f"{stem}.json", report.to_json())
    _write_lines(out_dir / f"{stem.replace('report', 'trajectory')}.csv", trajectory_rows(report))


def _overrides(args) -> dict:
    """The run settings given on the command line, as EngineConfig fields."""
    given = {"rng_seed": args.seed, "lam": args.lam, "max_queries": args.max_queries}
    return {name: value for name, value in given.items() if value is not None}


def _config_from_args(args) -> EngineConfig:
    """An explicit run spec, as every report's ``config`` echoes one, or a
    named fixture built at ``--seed``; the command-line settings override either."""
    if bool(args.spec) == bool(args.fixture):
        raise DiagInterpError("provide exactly one of --spec PATH or --fixture NAME")
    if args.spec:
        config = config_from_json(_load_json(args.spec))
    else:
        config = build_fixture(args.fixture, args.seed or 0)
    return replace(config, **_overrides(args))


def _cmd_interpret(args) -> int:
    config = _config_from_args(args)
    report = run_interpretation(config)
    _write_report(report, Path(args.out))
    print(
        f"final_interpretability = {report.final_interpretability:.6f} "
        f"({report.termination}, {len(report.steps)} queries)"
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.fixture and not (args.models or args.space):
        fixture = build_fixture(args.fixture, args.seed)
        model_a, model_b, space = fixture.model_a, fixture.model_b, fixture.space
    elif args.models and args.space and not args.fixture:
        models_doc = _load_json(args.models)
        model_a = model_from_json(json_field(models_doc, "model_a", "models file"))
        model_b = model_from_json(json_field(models_doc, "model_b", "models file"))
        json_keys(models_doc, "models file", ("model_a", "model_b"))
        space = spec_from_json(_load_json(args.space))
    else:
        raise DiagInterpError("provide --fixture NAME or both --models PATH and --space PATH")
    # the fixed point compares every level, as a diagnostic-mode run does
    has_fixed_point = admits_complete_run(model_a, model_b, space, "diagnostic")
    if has_fixed_point:
        # the search's starting breakdown is the pair's breakdown
        _, fixed, result = exhaustive_fixed_point(model_a, model_b, space)
    else:
        result = brute_force_breakdown(model_a, model_b, space)
    doc = result.to_json()
    if has_fixed_point:
        doc["fixed_point"] = {
            "initial_entropy": result.total_entropy,
            "fixed_point_entropy": fixed.total_entropy,
            "interpretability": raw_interpretability(result.total_entropy, fixed.total_entropy),
        }
    _write_json(Path(args.out) / "oracle.json", doc)
    print(
        f"disagreements {list(result.disagreement_counts)} of {result.sample_size}, "
        f"total entropy {result.total_entropy:.6f}"
    )
    return EXIT_OK


def _demo_static(args, out_dir: Path) -> list[str]:
    config = replace(build_fixture(args.fixture, args.seed), **_overrides(args))
    complete = admits_complete_run(config.model_a, config.model_b, config.space, config.mode)
    report = run_complete_interpretation(config) if complete else run_interpretation(config)
    _write_report(report, out_dir)
    h0 = report.initial_entropy.total
    return [
        f"fixture {args.fixture}: {fixture_description(args.fixture)}",
        f"initial entropy h = {h0:.4f} bits "
        f"(disagreements {list(report.initial_entropy.disagreement_counts)} "
        f"of {report.initial_entropy.sample_size})",
        f"I = {report.final_interpretability:.3f}, "
        f"H_final = {(report.steps[-1].entropy_after.total if report.steps else h0):.3f}",
        f"termination = {report.termination} after {len(report.steps)} queries",
    ]


def _demo_eval_squares(args, out_dir: Path) -> list[str]:
    if args.seeds < 1:
        raise InvalidConfigError(f"--seeds must be at least 1, got {args.seeds}")
    settings = _overrides(args)
    reports = []
    lines = ["fixture eval-squares: per-seed interpretation of the trained net"]
    for seed in range(args.seed, args.seed + args.seeds):
        config = build_fixture("eval-squares", seed)
        report = run_interpretation(replace(config, **settings | {"rng_seed": seed}))
        reports.append(report)
        _write_report(report, out_dir, stem=f"report_seed{seed}")
        lines.append(
            f"seed {seed}: black-box train acc "
            f"{training_accuracy(config.model_b, *config.base_dataset):.3f}, "
            f"I = {report.final_interpretability:.4f} after {len(report.steps)} queries "
            f"({report.termination})"
        )
    reached = sum(1 for r in reports if r.final_interpretability >= 0.99)
    lines += [
        f"{reached}/{args.seeds} seeds reached I >= 0.99 "
        f"within {reports[0].config.max_queries} queries",
        f"confidence epsilon = {reports[0].epsilon.display} "
        f"(log2 = {reports[0].epsilon.log2_epsilon:.3f})",
    ]
    # Mean trajectory: runs shorter than the longest are padded with their
    # final interpretability.
    horizon = max((len(r.steps) for r in reports), default=0)
    mean_rows = ["t,mean_I_t"]
    for t in range(1, horizon + 1):
        values = [r.steps[t - 1].i_t if len(r.steps) >= t else r.final_interpretability for r in reports]
        mean_rows.append(f"{t},{sum(values) / len(values)!r}")
    _write_lines(out_dir / "mean_trajectory.csv", mean_rows)
    return lines


def _cmd_demo(args) -> int:
    out_dir = Path(args.out)
    if args.fixture == "eval-squares":
        lines = _demo_eval_squares(args, out_dir)
    else:
        lines = _demo_static(args, out_dir)
    _write_lines(out_dir / "summary.txt", lines)
    for line in lines:
        print(line)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diaginterp",
        description="Measure how faithfully a known model can emulate a black box "
        "by querying their disagreements over binary-image spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interpret", help="run the interpretation loop")
    p_int.add_argument("--spec", help="JSON run-spec path")
    p_int.add_argument("--fixture", help="named fixture instead of a run spec")
    p_int.add_argument("--seed", type=int, default=None, help="seed override")
    p_int.add_argument("--lambda", dest="lam", type=float, default=None, help="query penalty weight")
    p_int.add_argument("--max-queries", type=int, default=None, help="query budget override")
    p_int.add_argument("--out", default=".", help="output directory")
    p_int.set_defaults(func=_cmd_interpret)

    p_orc = sub.add_parser("oracle", help="brute-force disagreement breakdown")
    p_orc.add_argument("--models", help="JSON file with model_a and model_b")
    p_orc.add_argument("--space", help="JSON image-space spec path")
    p_orc.add_argument("--fixture", help="named fixture instead of files")
    p_orc.add_argument("--seed", type=int, default=0, help="fixture build seed")
    p_orc.add_argument("--out", default=".", help="output directory")
    p_orc.set_defaults(func=_cmd_oracle)

    p_demo = sub.add_parser("demo", help="run a named fixture end to end")
    p_demo.add_argument("--fixture", required=True, help="fixture name")
    p_demo.add_argument("--seed", type=int, default=0, help="base seed")
    p_demo.add_argument("--seeds", type=int, default=10, help="number of seeded runs")
    p_demo.add_argument("--lambda", dest="lam", type=float, default=None, help="query penalty weight")
    p_demo.add_argument("--max-queries", type=int, default=None, help="query budget")
    p_demo.add_argument("--out", default=".", help="output directory")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    """Run the command in ``argv``. Without one this is the process entry (the
    console script, ``python -m``): gc.freeze keeps the import heap out of
    every collection, the interpreter's teardown included."""
    if argv is None:
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits 2 on bad usage, which matches the config exit code
        return EXIT_CONFIG if exit_err.code else EXIT_OK
    try:
        return args.func(args)
    except DiagInterpError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_GUARD if isinstance(err, SpaceTooLargeError) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
