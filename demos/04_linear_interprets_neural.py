"""
A linear model interprets a neural net
======================================

The two-squares task: 8x8 binary images with one filled square per half,
label 1 iff the left square is strictly larger. A small feedforward net
trained on 200 samples plays the black box; a perceptron plays the known
model. Interpretation runs at a single abstraction level, so the result
carries a confidence factor: the evaluated envelope is a vanishing sliver of
all 2^64 possible images.
"""

from dataclasses import replace

from diaginterp.engine import run_interpretation
from diaginterp.fixtures import build_fixture
from diaginterp.models import training_accuracy

fx = build_fixture("eval-squares", seed=0)
print(f"evaluation envelope: {len(fx.space.base_images)} base images "
      f"plus one-pixel flips")
print(f"black-box training accuracy: {training_accuracy(fx.model_b, *fx.base_dataset):.3f}")
print(f"known-model training accuracy: {training_accuracy(fx.model_a, *fx.base_dataset):.3f}")

report = run_interpretation(replace(fx, rng_seed=0))
d0 = report.initial_entropy.disagreement_counts[0]
print(f"initial disagreement: {d0} of {report.initial_entropy.sample_size} images "
      f"({report.initial_entropy.total:.5f} bits)")
for step in report.steps:
    print(f"  query {step.t}: I_t = {step.i_t:.4f}, H = {step.entropy_after.total:.5f}")
print(f"final interpretability: {report.final_interpretability:.4f} "
      f"({report.termination})")
print(f"confidence epsilon = {report.epsilon.display} "
      f"(log2 = {report.epsilon.log2_epsilon:.2f})")
print("the interpretation is near-perfect on the envelope, but the envelope")
print("itself covers almost none of the space the models could ever see")
