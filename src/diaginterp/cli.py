"""Command-line front end: seeded, file-driven interpretation runs.

Subcommands:

* ``interpret`` -- run the query loop from a JSON run spec or a named
  fixture; writes report.json and trajectory.csv.
* ``oracle``    -- brute-force disagreement counts for a model pair over a
  space (plus the exhaustive fixed point when the pair qualifies); writes
  oracle.json.
* ``demo``      -- run a named fixture end to end and write per-run reports
  plus a human-readable summary.txt.

Exit codes: 0 success, 2 configuration problem, 3 enumeration guard tripped.
All outputs are byte-stable for a given command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .engine import (
    EngineConfig,
    Report,
    config_from_json,
    run_complete_interpretation,
    run_interpretation,
    trajectory_rows,
)
from .errors import DiagInterpError, SpaceTooLargeError
from .fixtures import build_fixture, fixture_names
from .imagespace import spec_from_json
from .models import RuleModel, model_from_json, num_levels
from .oracle import brute_force_breakdown, exhaustive_fixed_point

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise DiagInterpError(f"cannot read {path}: {err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DiagInterpError(
            f"malformed JSON in {path}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from None


def _write_report(report: Report, out_dir: Path, stem: str = "report") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / f"{stem}.json", report.to_json())
    _write_lines(out_dir / f"{stem.replace('report', 'trajectory')}.csv", trajectory_rows(report))


def _config_from_args(args) -> EngineConfig:
    if bool(args.spec) == bool(args.fixture):
        raise DiagInterpError("provide exactly one of --spec PATH or --fixture NAME")
    if args.spec:
        doc = _load_json(args.spec)
        if ("fixture" in doc) == ("model_a" in doc):
            raise DiagInterpError(
                "run spec must contain exactly one of a fixture name or explicit models"
            )
        seed = args.seed if args.seed is not None else int(doc.get("rng_seed", 0))
        if "fixture" in doc:
            config = build_fixture(doc["fixture"], seed).engine_config(
                rng_seed=seed,
                lam=float(doc.get("lambda", 0.0)),
                max_queries=doc.get("max_queries"),
            )
        else:
            config = config_from_json(doc)
            if args.seed is not None:
                config = replace(config, rng_seed=args.seed)
    else:
        seed = args.seed if args.seed is not None else 0
        config = build_fixture(args.fixture, seed).engine_config(rng_seed=seed)
    if args.lam is not None:
        config = replace(config, lam=args.lam)
    if args.max_queries is not None:
        config = replace(config, max_queries=args.max_queries)
    return config


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
    if args.fixture:
        fixture = build_fixture(args.fixture, args.seed if args.seed is not None else 0)
        model_a, model_b, space = fixture.model_a, fixture.model_b, fixture.space
    elif args.models and args.space:
        models_doc = _load_json(args.models)
        model_a = model_from_json(models_doc["model_a"])
        model_b = model_from_json(models_doc["model_b"])
        space = spec_from_json(_load_json(args.space))
    else:
        raise DiagInterpError("provide --fixture NAME or both --models PATH and --space PATH")
    result = brute_force_breakdown(model_a, model_b, space)
    doc = result.to_json()
    if (
        isinstance(model_a, RuleModel)
        and space.mode == "full"
        and num_levels(model_a) == num_levels(model_b)
    ):
        _, fixed = exhaustive_fixed_point(model_a, model_b, space)
        doc["fixed_point"] = {
            "initial_entropy": result.total_entropy,
            "fixed_point_entropy": fixed.total_entropy,
            "interpretability": (
                1.0
                if result.total_entropy == 0.0
                else (result.total_entropy - fixed.total_entropy) / result.total_entropy
            ),
        }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "oracle.json", doc)
    print(
        f"disagreements {list(result.disagreement_counts)} of {result.sample_size}, "
        f"total entropy {result.total_entropy:.6f}"
    )
    return EXIT_OK


def _demo_static(fixture, args, out_dir: Path) -> list[str]:
    seed = args.seed if args.seed is not None else 0
    config = fixture.engine_config(
        rng_seed=seed,
        lam=args.lam if args.lam is not None else 0.0,
        max_queries=args.max_queries,
    )
    report = (
        run_complete_interpretation(config) if fixture.complete else run_interpretation(config)
    )
    _write_report(report, out_dir)
    h0 = report.initial_entropy.total
    lines = [
        f"fixture {fixture.name}: {fixture.description}",
        f"initial entropy h = {h0:.4f} bits "
        f"(disagreements {list(report.initial_entropy.disagreement_counts)} "
        f"of {report.initial_entropy.sample_size})",
        f"I = {report.final_interpretability:.3f}, "
        f"H_final = {(report.steps[-1].entropy_after.total if report.steps else h0):.3f}",
        f"termination = {report.termination} after {len(report.steps)} queries",
    ]
    return lines


def _demo_eval_squares(args, out_dir: Path) -> list[str]:
    base_seed = args.seed if args.seed is not None else 0
    n_runs = args.seeds if args.seeds is not None else 10
    max_queries = args.max_queries if args.max_queries is not None else 10
    lam = args.lam if args.lam is not None else 0.0
    reports = []
    lines = ["fixture eval-squares: per-seed interpretation of the trained net"]
    for offset in range(n_runs):
        seed = base_seed + offset
        fixture = build_fixture("eval-squares", seed)
        config = fixture.engine_config(rng_seed=seed, lam=lam, max_queries=max_queries)
        report = run_interpretation(config)
        reports.append(report)
        _write_report(report, out_dir, stem=f"report_seed{seed}")
        lines.append(
            f"seed {seed}: black-box train acc {fixture.black_box_train_accuracy:.3f}, "
            f"I = {report.final_interpretability:.4f} after {len(report.steps)} queries "
            f"({report.termination})"
        )
    reached = sum(1 for r in reports if r.final_interpretability >= 0.99)
    lines.append(f"{reached}/{n_runs} seeds reached I >= 0.99 within {max_queries} queries")
    lines.append(
        f"confidence epsilon = {reports[0].epsilon.display} "
        f"(log2 = {reports[0].epsilon.log2_epsilon:.3f})"
    )
    # Mean trajectory: runs shorter than the longest are padded with their
    # final interpretability.
    horizon = max((len(r.steps) for r in reports), default=0)
    mean_rows = ["t,mean_I_t"]
    for t in range(1, horizon + 1):
        values = []
        for r in reports:
            if len(r.steps) >= t:
                values.append(r.steps[t - 1].i_t)
            else:
                values.append(r.final_interpretability)
        mean_rows.append(f"{t},{sum(values) / len(values)!r}")
    _write_lines(out_dir / "mean_trajectory.csv", mean_rows)
    return lines


def _cmd_demo(args) -> int:
    names = fixture_names()
    if args.fixture not in names:
        raise DiagInterpError(
            f"unknown fixture {args.fixture!r}; valid names: {', '.join(names)}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.fixture == "eval-squares":
        lines = _demo_eval_squares(args, out_dir)
    else:
        fixture = build_fixture(args.fixture, args.seed if args.seed is not None else 0)
        lines = _demo_static(fixture, args, out_dir)
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
    p_orc.add_argument("--seed", type=int, default=None, help="fixture build seed")
    p_orc.add_argument("--out", default=".", help="output directory")
    p_orc.set_defaults(func=_cmd_oracle)

    p_demo = sub.add_parser("demo", help="run a named fixture end to end")
    p_demo.add_argument("--fixture", required=True, help="fixture name")
    p_demo.add_argument("--seed", type=int, default=None, help="base seed")
    p_demo.add_argument("--seeds", type=int, default=None, help="number of seeded runs")
    p_demo.add_argument("--lambda", dest="lam", type=float, default=None, help="query penalty weight")
    p_demo.add_argument("--max-queries", type=int, default=None, help="query budget")
    p_demo.add_argument("--out", default=".", help="output directory")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits 2 on bad usage, which matches the config exit code
        return EXIT_CONFIG if exit_err.code else EXIT_OK
    try:
        return args.func(args)
    except SpaceTooLargeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_GUARD
    except DiagInterpError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, ValueError, TypeError) as err:
        print(f"error: malformed input ({err})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
