"""
Interpretation by minimal querying
==================================

The known model samples an image where it disagrees with the black box, asks
the black box for its answer, edits its own rules to match, and re-measures
the disagreement entropy over the whole evaluation set. Interpretability at
step t is the fraction of the initial entropy removed so far.

The diagonal toy pair needs at most four queries to emulate its target
exactly.
"""

from dataclasses import replace

from diaginterp.engine import run_interpretation
from diaginterp.fixtures import build_fixture

fx = build_fixture("fig2-diagonal")
report = run_interpretation(replace(fx, rng_seed=7))

print(f"initial entropy: {report.initial_entropy.total:.4f} bits")
print("t  query              I_t      dI_t     H_total")
for step in report.steps:
    print(f"{step.t}  {step.query}  {step.i_t:.4f}   "
          f"{step.delta_i_t:+.4f}  {step.entropy_after.total:.4f}")
print(f"termination: {report.termination}")
print(f"final interpretability: {report.final_interpretability:.4f}")
print(f"query-penalized objective (lambda=0): {report.objective_j:.4f}")
