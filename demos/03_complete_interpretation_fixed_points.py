"""
Exhaustive querying and its fixed points
========================================

Over a small enough space the known model can visit every disagreement. Two
outcomes are possible: if its family can express the black box, the entropy
is driven all the way to zero (I = 1); if not, the updates settle at a fixed
point whose residual entropy caps the achievable interpretability strictly
below 1. The brute-force oracle confirms both numbers independently.
"""

from diaginterp.engine import run_complete_interpretation
from diaginterp.fixtures import build_fixture
from diaginterp.metrics import raw_interpretability
from diaginterp.oracle import exhaustive_fixed_point

for name in ("fig1b", "fig1c"):
    fx = build_fixture(name)
    report = run_complete_interpretation(fx.engine_config(rng_seed=0))
    h0 = report.initial_entropy.total
    h_final = report.steps[-1].entropy_after.total if report.steps else h0
    print(f"{name}: {fx.description}")
    print(f"  initial entropy h  = {h0:.4f} bits")
    print(f"  final entropy h'   = {h_final:.4f} bits")
    print(f"  interpretability   = {report.final_interpretability:.6f} "
          f"({report.termination}, {len(report.steps)} updates)")

    _, fixed, initial = exhaustive_fixed_point(fx.model_a, fx.model_b, fx.space)
    oracle_i = raw_interpretability(initial.total_entropy, fixed.total_entropy)
    print(f"  oracle (h-h')/h    = {oracle_i:.6f}")
    print()
