"""Property-based checks of the fast paths against the scalar oracle.

Each property draws an integer seed and builds its models and spaces from
``np.random.default_rng(seed)``: rule models with 1-3 levels, linear models
and small ReLU nets, on grids of 3x3 or smaller. The settings are
derandomized and keep no example database, so every run checks the same
examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diaginterp.engine import EngineConfig, run_interpretation
from diaginterp.imagespace import BinaryImage, ImageSpaceSpec, enumerate_space
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    RuleLevel,
    RuleModel,
    num_levels,
    predict,
)
from diaginterp.oracle import _scalar_levels, brute_force_breakdown

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def random_grid(rng):
    return int(rng.integers(1, 4)), int(rng.integers(1, 4))


def random_image(rng, width, height):
    return BinaryImage(width, height, tuple(int(b) for b in rng.integers(0, 2, width * height)))


def random_rule(rng, width, height, levels):
    out = []
    for _ in range(levels):
        # each pixel: required 1, required 0, or free (twice as likely)
        marks = rng.integers(0, 4, width * height)
        out.append(RuleLevel.of(ones=np.flatnonzero(marks == 0).tolist(),
                                zeros=np.flatnonzero(marks == 1).tolist()))
    return RuleModel(width, height, tuple(out))


def random_linear(rng, width, height):
    return LinearModel(width, height, rng.normal(size=width * height), float(rng.normal()))


def random_net(rng, width, height):
    hidden = int(rng.integers(1, 5))
    return NeuralModel(width, height, (
        NeuralLayer(rng.normal(size=(width * height, hidden)), rng.normal(size=hidden), "relu"),
        NeuralLayer(rng.normal(size=(hidden, 1)), rng.normal(size=1), "sigmoid"),
    ))


def random_model(rng, width, height, levels=None):
    """A rule model with ``levels`` levels (1-3 when None), or, when
    ``levels`` is None or 1, possibly a linear model or a ReLU net."""
    family = int(rng.integers(0, 3)) if levels in (None, 1) else 0
    if family == 1:
        return random_linear(rng, width, height)
    if family == 2:
        return random_net(rng, width, height)
    return random_rule(rng, width, height, levels or int(rng.integers(1, 4)))


def random_space(rng, width, height):
    if rng.integers(0, 2):
        return ImageSpaceSpec(width, height, "full")
    bases = tuple(random_image(rng, width, height) for _ in range(int(rng.integers(1, 4))))
    return ImageSpaceSpec(width, height, "envelope", bases, int(rng.integers(0, 3)))


def random_config(rng, mode):
    """A run whose known model is a rule model (rule updater) or a linear
    model (retraining updater); diagnostic runs get matched level counts."""
    width, height = random_grid(rng)
    space = random_space(rng, width, height)
    if rng.integers(0, 4) == 0:
        model_a = random_linear(rng, width, height)
        base = [(random_image(rng, width, height), 0), (random_image(rng, width, height), 1)]
        updater = {"updater": "retrain_with_queries", "base_dataset": base}
    else:
        model_a = random_rule(rng, width, height, int(rng.integers(1, 4)))
        updater = {"updater": "rule_minimal_edit"}
    levels = num_levels(model_a) if mode == "diagnostic" else None
    model_b = random_model(rng, width, height, levels)
    return EngineConfig(space=space, model_a=model_a, model_b=model_b, max_queries=0,
                        rng_seed=int(rng.integers(0, 1000)), mode=mode, **updater)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_predict_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    model = random_model(rng, width, height)
    for image in enumerate_space(ImageSpaceSpec(width, height, "full")):
        assert list(predict(model, image)) == _scalar_levels(model, image.bits)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_breakdown_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    model_a = random_model(rng, width, height)
    model_b = random_model(rng, width, height)
    space = random_space(rng, width, height)
    top_only = num_levels(model_a) != num_levels(model_b)
    fast = disagreement_breakdown(model_a, model_b, space, top_only=top_only)
    oracle = brute_force_breakdown(model_a, model_b, space, keep_images=0)
    assert fast.disagreement_counts == oracle.disagreement_counts
    assert fast.sample_size == oracle.sample_size


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from(["diagnostic", "epsilon"]))
def test_initial_run_counts_match_brute_force(seed, mode):
    config = random_config(np.random.default_rng(seed), mode)
    report = run_interpretation(config)
    oracle = brute_force_breakdown(config.model_a, config.model_b, config.space, keep_images=0)
    # epsilon mode compares the diagnosis level only
    expected = oracle.disagreement_counts if mode == "diagnostic" else oracle.disagreement_counts[-1:]
    assert report.initial_entropy.disagreement_counts == expected
    assert report.initial_entropy.sample_size == oracle.sample_size


@pytest.mark.filterwarnings("ignore:entropy increased")
@PROPERTY_SETTINGS
@given(SEEDS)
def test_epsilon_runs_on_mixed_levels_keep_lower_levels(seed):
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    levels_a = int(rng.integers(1, 4))
    if levels_a == 1 or rng.integers(0, 2):
        model_b = random_rule(rng, width, height, int(rng.choice([k for k in (1, 2, 3) if k != levels_a])))
    else:
        model_b = random_model(rng, width, height, 1)
    model_a = random_rule(rng, width, height, levels_a)
    config = EngineConfig(space=random_space(rng, width, height), model_a=model_a,
                          model_b=model_b, updater="rule_minimal_edit", max_queries=8,
                          rng_seed=int(rng.integers(0, 1000)), mode="epsilon")
    report = run_interpretation(config)
    assert report.final_model.levels[:-1] == model_a.levels[:-1]
