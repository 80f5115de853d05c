"""Property-based checks of the fast paths against the scalar oracle.

Each property draws an integer seed and builds its models and spaces from
``np.random.default_rng(seed)``: rule models with 1-3 levels, linear models
and small ReLU nets, on grids of 3x3 or smaller. The settings are
derandomized and keep no example database, so every run checks the same
examples.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from diaginterp.engine import (
    EngineConfig,
    config_from_json,
    config_to_json,
    run_complete_interpretation,
    run_interpretation,
)
from diaginterp.imagespace import (
    BinaryImage,
    ImageSpaceSpec,
    enumerate_space,
    space_matrix,
    spec_from_json,
    spec_to_json,
    unique_rows,
)
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    RuleLevel,
    RuleModel,
    level_label_matrix,
    model_from_json,
    model_to_json,
    num_levels,
    predict,
)
from diaginterp.oracle import (
    _iterate_space,
    _scalar_levels,
    brute_force_breakdown,
    exhaustive_fixed_point,
)

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


def random_config(rng, mode, linear=None):
    """A run whose known model is a rule model (edited) or, when ``linear``
    says so (a 1-in-4 draw when None), a linear model (retrained on a base
    dataset); diagnostic runs get matched level counts."""
    width, height = random_grid(rng)
    space = random_space(rng, width, height)
    if linear is None:
        linear = rng.integers(0, 4) == 0
    if linear:
        model_a = random_linear(rng, width, height)
        base = [(random_image(rng, width, height), 0), (random_image(rng, width, height), 1)]
    else:
        model_a = random_rule(rng, width, height, int(rng.integers(1, 4)))
        base = None
    levels = num_levels(model_a) if mode == "diagnostic" else None
    model_b = random_model(rng, width, height, levels)
    return EngineConfig(space=space, model_a=model_a, model_b=model_b, max_queries=0,
                        rng_seed=int(rng.integers(0, 1000)), mode=mode, base_dataset=base)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_predict_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    model = random_model(rng, width, height)
    space = ImageSpaceSpec(width, height, "full")
    images = enumerate_space(space)
    # the oracle labels image codes, the bitstrings read in base 2
    codes = [int(image.to_string(), 2) for image in images]
    scalar = zip(*_scalar_levels(model, space, codes))
    for image, levels in zip(images, scalar, strict=True):
        assert list(predict(model, image)) == list(levels)


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


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from(["diagnostic", "epsilon"]), st.booleans())
def test_budgeted_run_final_counts_match_brute_force(seed, mode, linear):
    # rule edits and perceptron retraining alike end on a model whose counts
    # the oracle recounts from scratch
    rng = np.random.default_rng(seed)
    config = replace(random_config(rng, mode, linear), max_queries=int(rng.integers(1, 9)))
    report = run_interpretation(config)
    final = report.steps[-1].entropy_after if report.steps else report.initial_entropy
    oracle = brute_force_breakdown(report.final_model, config.model_b, config.space, keep_images=0)
    expected = oracle.disagreement_counts if mode == "diagnostic" else oracle.disagreement_counts[-1:]
    assert final.disagreement_counts == expected
    assert final.sample_size == oracle.sample_size


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
                          model_b=model_b, max_queries=8,
                          rng_seed=int(rng.integers(0, 1000)), mode="epsilon")
    report = run_interpretation(config)
    assert report.final_model.levels[:-1] == model_a.levels[:-1]


@PROPERTY_SETTINGS
@given(SEEDS)
def test_complete_run_matches_exhaustive_fixed_point(seed):
    # a rule model of 1-3 levels against a rule, linear or neural model with
    # as many levels, over a full grid
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    model_b = random_model(rng, width, height)
    model_a = random_rule(rng, width, height, num_levels(model_b))
    space = ImageSpaceSpec(width, height, "full")
    report = run_complete_interpretation(EngineConfig(space=space, model_a=model_a, model_b=model_b))
    fixed, result, _ = exhaustive_fixed_point(model_a, model_b, space)
    final = report.steps[-1].entropy_after if report.steps else report.initial_entropy
    assert report.final_model == fixed
    assert final.disagreement_counts == result.disagreement_counts


def json_trip(doc):
    return json.loads(json.dumps(doc, allow_nan=False))


@PROPERTY_SETTINGS
@given(SEEDS)
def test_space_matrix_matches_oracle_enumeration(seed):
    # full grids up to 3x3; envelopes whose bases repeat, with any radius
    # from 0 to one past the pixel count
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    if rng.integers(0, 3) == 0:
        spec = ImageSpaceSpec(width, height, "full")
    else:
        pool = [random_image(rng, width, height) for _ in range(int(rng.integers(1, 4)))]
        bases = tuple(pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(1, 6))))
        radius = int(rng.integers(0, width * height + 2))
        spec = ImageSpaceSpec(width, height, "envelope", bases, radius)
    codes = [int("".join(map(str, row)), 2) for row in space_matrix(spec).tolist()]
    assert codes == list(_iterate_space(spec))


ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width), min_size=1, max_size=40
    )
)


@PROPERTY_SETTINGS
@given(ROWS)
def test_unique_rows_keeps_exactly_the_first_occurrences(rows):
    expected = list(dict.fromkeys(map(tuple, rows)))
    got = unique_rows(np.array(rows, dtype=np.uint8))
    assert [tuple(row) for row in got.tolist()] == expected


@PROPERTY_SETTINGS
@given(SEEDS)
def test_spec_and_model_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    space = random_space(rng, width, height)
    assert spec_from_json(json_trip(spec_to_json(space))) == space
    model = random_model(rng, width, height)
    doc = model_to_json(model)
    again = model_from_json(json_trip(doc))
    assert model_to_json(again) == doc
    matrix = space_matrix(ImageSpaceSpec(width, height, "full"))
    assert np.array_equal(level_label_matrix(again, matrix), level_label_matrix(model, matrix))


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from(["diagnostic", "epsilon"]))
def test_run_config_json_round_trip(seed, mode):
    config = random_config(np.random.default_rng(seed), mode)
    doc = config_to_json(config)
    assert config_to_json(config_from_json(json_trip(doc))) == doc


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(SEEDS, st.sampled_from(["diagnostic", "epsilon"]))
def test_seeded_run_is_deterministic(seed, mode):
    rng = np.random.default_rng(seed)
    config = replace(random_config(rng, mode), max_queries=int(rng.integers(1, 6)))
    first, second = run_interpretation(config), run_interpretation(config)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())
    assert model_to_json(first.final_model) == model_to_json(second.final_model)
