"""
Disagreement as a noisy channel
===============================

Two classifiers looking at the same images either agree or they don't. Treat
the pair as a binary symmetric channel whose crossover probability is the
disagreement rate f; the remaining uncertainty about the second model's
answers is the binary entropy h(f).
"""

from diaginterp.fixtures import build_fixture
from diaginterp.metrics import binary_entropy, disagreement_breakdown

# h(f) is 0 when the models always (or never) agree and peaks at f = 1/2.
for f in (0.0, 0.05, 4 / 34, 0.25, 0.5, 0.75, 1.0):
    print(f"f = {f:.4f}   h(f) = {binary_entropy(f):.4f} bits")

# The diagonal toy pair disagrees on 4 of its 34 evaluation images.
fx = build_fixture("fig2-diagonal")
breakdown = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
print()
print(f"diagonal pair: {breakdown.disagreement_counts[0]} of "
      f"{breakdown.sample_size} images disagree")
print(f"initial uncertainty about the second model: {breakdown.total:.4f} bits")
