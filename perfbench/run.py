"""diaginterp benchmark: fresh-process CLI ops in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rule-oracle --seed 1 --seconds 45 --trace 0

An op is one ``python -m diaginterp.cli ...`` run in a fresh process with
``PYTHONPATH=src``, timed from spawn to exit (``os.wait4``). One client sends
each op only after the previous one exits, so at most two processes run at
once: this harness and one op. Ops run in whole passes over the workload's op
cycle (``gen.py``) until at least ``--seconds`` have passed, so every run sees
the same mix of ops.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each op of
the cycle twice in a row, untraced and then through ``traced_op.py``, and
prints the per-layer metrics: for each layer metric, the median over the
traced ops that entered that layer (0 when none did). The metric names and
units are the ones BENCHMARK.json declares.

Outputs are checked after the timed loop (``check.py``), once per distinct
op; a repeat of an op fails unless its outputs are byte-identical to the
checked ones. The last line of stdout is the result JSON; the line before it
carries provenance and the per-op records. Both are also written to
``.perfbench-work/results/``. Exit code 2 means the program could not even be
imported, and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
ENV = {**os.environ, "PYTHONPATH": "src"}
CLI = [sys.executable, "-m", "diaginterp.cli"]
SETUP_CMD = [sys.executable, "-c", "import diaginterp.cli"]
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10


def run_process(cmd: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run ``cmd`` to completion; return (wall seconds, peak RSS MiB, exit code).

    A process still running after OP_TIMEOUT_S is killed; its exit code is then
    negative.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tree_digest(root: Path, pattern: str = "*") -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def setup_sample(run_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits. Exits
    the benchmark with code 2, printing no result, when the import fails."""
    log = run_dir / "setup.log"
    wall, _, code = run_process(SETUP_CMD, log)
    if code != 0:
        sys.stderr.write(log.read_text() + "error: cannot import diaginterp.cli from src\n")
        raise SystemExit(2)
    return wall


class OpRunner:
    """Executes ops, keeps the first output of each distinct op for the
    checker, and reduces traced ops to per-layer values."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.records: list[dict] = []
        self.kept: dict[str, Path] = {}
        for sub in ("ops", "logs", "spans"):
            (run_dir / sub).mkdir(parents=True)

    def execute(self, op: dict, traced: bool) -> None:
        seq = len(self.records)
        out_dir = self.run_dir / "ops" / str(seq)
        argv = [str(out_dir) if arg == "OUT" else arg for arg in op["argv"]]
        spans_path = self.run_dir / "spans" / f"{seq}.json"
        cmd = (
            [sys.executable, str(BENCH_DIR / "traced_op.py"), str(spans_path)] + argv
            if traced
            else CLI + argv
        )
        log = self.run_dir / "logs" / f"{seq}.log"
        wall, rss, code = run_process(cmd, log)
        record = {"op": op["id"], "traced": traced, "wall_s": wall, "rss_mib": rss, "exit": code}
        if code != 0:
            record["log_tail"] = log.read_text(errors="replace")[-400:]
        if out_dir.exists():
            record["digest"] = tree_digest(out_dir)
            record["bytes_out"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        if traced and code == 0:
            record["layers"] = layer_values(json.loads(spans_path.read_text()), record, out_dir)
        spans_path.unlink(missing_ok=True)
        if code == 0 and op["id"] not in self.kept:
            self.kept[op["id"]] = out_dir
        elif out_dir.exists():
            shutil.rmtree(out_dir)
        self.records.append(record)


def _steps(out_dir: Path) -> int:
    return sum(len(json.loads(p.read_text())["steps"]) for p in out_dir.glob("report*.json"))


def layer_values(trace: dict, record: dict, out_dir: Path) -> dict[str, float]:
    """Per-layer values of one traced op, keyed by BENCHMARK.json metric name.
    A metric is present only when the op entered the function it measures."""
    spans = trace["spans"]
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, dict[str, float]] = {}
    materialized_in = set()
    for name, parent, _start, duration, self_time, extra in spans:
        dur[name] = dur.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        bucket = attrs.setdefault(name, {})
        for key, value in (extra or {}).items():
            bucket[key] = bucket.get(key, 0) + value
        if name.startswith("imagespace._materialize_"):
            materialized_in.add(parent)

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    def entered(*names):
        return any(n in calls for n in names)

    out: dict[str, float] = {"cli.bytes_out": float(record.get("bytes_out", 0))}
    if entered("cli.main"):
        out["cli.main_s"] = dur["cli.main"]
        out["cli.self_s"] = own["cli.main"]
    materialize = ("imagespace._materialize_full", "imagespace._materialize_envelope")
    if entered(*materialize):
        out["imagespace.materialize_s"] = total(dur, *materialize)
        out["imagespace.materialize_images"] = sum(attrs.get(n, {}).get("images", 0) for n in materialize)
        out["imagespace.materialize_rss_mib"] = (
            sum(attrs.get(n, {}).get("rss_kib", 0) for n in materialize) / 1024.0
        )
    lookups = [
        span[3]
        for index, span in enumerate(spans)
        if span[0] in ("imagespace.space_matrix", "imagespace.enumerate_space")
        and index not in materialized_in
    ]
    if lookups:
        out["imagespace.lookup_s"] = sum(lookups)
        out["imagespace.lookups"] = len(lookups)
    label_images = 0
    for family in ("rule", "linear", "neural"):
        name = f"models.level_label_matrix[{family}]"
        if entered(name):
            out[f"models.labels_s.{family}"] = dur[name]
            out[f"models.labels_images.{family}"] = attrs[name]["images"]
            label_images += attrs[name]["images"]
    for metric, name, table in (
        ("models.rule_update_s", "models.rule_update", own),
        ("models.linear_update_s", "models.linear_update", dur),
        ("models.train_linear_s", "models.train_linear", dur),
        ("models.train_neural_s", "models.train_neural", dur),
        ("models.predict_s", "models.predict", own),
        ("metrics.breakdown_s", "metrics.disagreement_breakdown", own),
        ("oracle.brute_force_s", "oracle.brute_force_breakdown", dur),
        ("oracle.fixed_point_self_s", "oracle.exhaustive_fixed_point", own),
        ("fixtures.build_self_s", "fixtures.build_fixture", own),
        ("fixtures.class_pools_s", "fixtures.two_squares_class_pools", dur),
    ):
        if entered(name):
            out[metric] = table[name]
    for metric, name in (
        ("models.rule_update_calls", "models.rule_update"),
        ("models.linear_update_calls", "models.linear_update"),
        ("metrics.breakdown_calls", "metrics.disagreement_breakdown"),
        ("fixtures.class_pools_calls", "fixtures.two_squares_class_pools"),
    ):
        if entered(name):
            out[metric] = calls[name]
    if "oracle.images_scanned" in trace["counters"]:
        out["oracle.images_scanned"] = trace["counters"]["oracle.images_scanned"]
    engine = ("engine.run_interpretation", "engine.run_complete_interpretation")
    if entered(*engine):
        queries = _steps(out_dir)
        out["engine.run_s"] = total(dur, *engine)
        out["engine.self_s"] = total(own, *engine)
        out["engine.queries"] = queries
        if queries:
            out["engine.s_per_query"] = out["engine.run_s"] / queries
            out["models.labels_images_per_query"] = label_images / queries
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least TAIL_BEYOND values
    above it, and that percentile; the minimum when there are too few."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def check_outputs(runner: OpRunner, ops: list[dict]) -> None:
    """Mark each record failed / inconsistent; the checker runs once per op."""
    sys.path.insert(0, str(ROOT / "src"))
    from check import OutputChecker

    checker = OutputChecker()
    verdicts = {}
    for op in ops:
        out_dir = runner.kept.get(op["id"])
        if out_dir is None:
            verdicts[op["id"]] = (["no successful execution"], False, None)
            continue
        failures, inconsistent = checker.check(op, out_dir)
        verdicts[op["id"]] = (failures, inconsistent, tree_digest(out_dir))
    for record in runner.records:
        failures, inconsistent, digest = verdicts[record["op"]]
        reasons = list(failures)
        if record["exit"] != 0:
            reasons.append(f"exit code {record['exit']}")
        elif record.get("digest") != digest:
            reasons.append("outputs differ from the checked execution of this op")
        record["failures"] = reasons
        record["inconsistent"] = not reasons and inconsistent


def provenance(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "git_sha": sha,
        "src_digest": tree_digest(ROOT / "src", "*.py"),
        "bench_digest": tree_digest(BENCH_DIR, "*.py"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "generator": gen.WORKLOADS[workload],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # The first start compiles the bytecode cache, as a user's first run
        # does; it is not a sample. Set-up is sampled before and after the
        # loop, so a slow spell of the machine at either end weighs half.
        setup_sample(run_dir)
        setup = [setup_sample(run_dir) for _ in range(SETUP_SAMPLES)]
        ops = gen.build(args.workload, args.seed, run_dir / "inputs")
        runner = OpRunner(run_dir)
        start = time.perf_counter()
        passes = 0
        wall = 0.0
        # Whole passes, enough that every op runs at least twice (a traced
        # run already runs each op twice per pass); as many as best fit in
        # --seconds, so a run ends within half a pass of it.
        min_passes = 1 if args.trace else 2
        while passes < min_passes or wall * (passes + 0.5) / passes < args.seconds:
            for op in ops:
                runner.execute(op, traced=False)
                if args.trace:
                    runner.execute(op, traced=True)
            passes += 1
            wall = time.perf_counter() - start
        setup += [setup_sample(run_dir) for _ in range(SETUP_SAMPLES)]
        check_outputs(runner, ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = runner.records
    plain = [r["wall_s"] for r in records if not r["traced"]]
    failed = sum(1 for r in records if r["failures"])
    tail_value, tail_pct = tail(plain)
    summary = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(plain),
        "op_s_tail": tail_value,
        "ops_per_s": len(records) / wall,
        "peak_rss_mib": max(r["rss_mib"] for r in records),
        "ops_failed_frac": failed / len(records),
        "ops_inconsistent_frac": sum(1 for r in records if r["inconsistent"]) / len(records),
    }
    if args.trace:
        traced = [r for r in records if r["traced"]]
        summary["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - summary["op_s_p50"]
        per_op = [r["layers"] for r in traced if "layers" in r]
        for metric in declared["per_layer"]:
            if metric["name"] in summary:  # a run-level value, computed above
                continue
            present = [layers[metric["name"]] for layers in per_op if metric["name"] in layers]
            summary[metric["name"]] = statistics.median(present) if present else 0.0
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "provenance": provenance(args.workload, args.seed),
        "op_s_tail": {"percentile": tail_pct, "samples": len(plain)},
        "summary": summary,
        "ops": records,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    for record in records:
        for reason in record["failures"]:
            print(f"FAILED {record['op']}: {reason}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
