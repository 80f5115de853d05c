import numpy as np
import pytest

from diaginterp.errors import InvalidConfigError, SpaceTooLargeError
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import ImageSpaceSpec, bitstrings_to_rows
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import LinearModel, RuleLevel, RuleModel, predict
from diaginterp.oracle import brute_force_breakdown, exhaustive_fixed_point


def random_rule_model(rng, pixels=9, grid=(3, 3), max_constraints=3):
    order = list(range(pixels))
    rng.shuffle(order)
    n_ones = int(rng.integers(0, max_constraints))
    n_zeros = int(rng.integers(0, max_constraints))
    ones = order[:n_ones]
    zeros = order[n_ones : n_ones + n_zeros]
    return RuleModel(grid[0], grid[1], (RuleLevel.of(ones=ones, zeros=zeros),))


def random_envelope_34(rng):
    """Two 4x4 bases at Hamming distance >= 3, so the 1-flip envelope has
    exactly 2 + 32 distinct images."""
    while True:
        a = "".join(map(str, rng.integers(0, 2, 16)))
        b = "".join(map(str, rng.integers(0, 2, 16)))
        if sum(x != y for x, y in zip(a, b)) >= 3:
            return ImageSpaceSpec(4, 4, "envelope", (a, b), flip_radius=1)


class TestBruteForceBreakdown:
    def test_diagonal_fixture(self):
        fx = build_fixture("fig2-diagonal")
        result = brute_force_breakdown(fx.model_a, fx.model_b, fx.space)
        assert result.disagreement_counts == (4,)
        assert result.sample_size == 34
        assert result.total_entropy == pytest.approx(0.52256, abs=1e-5)

    def test_identical_models_over_3x3(self):
        model = RuleModel(3, 3, (RuleLevel.of(ones=[0, 4]),))
        result = brute_force_breakdown(model, model, ImageSpaceSpec(3, 3, "full"))
        assert result.disagreement_counts == (0,)
        assert result.total_entropy == 0.0

    def test_matches_metrics_on_20_random_pairs(self):
        rng = np.random.default_rng(2024)
        spec = ImageSpaceSpec(3, 3, "full")
        for _ in range(20):
            model_a = random_rule_model(rng)
            model_b = random_rule_model(rng)
            truth = brute_force_breakdown(model_a, model_b, spec)
            fast = disagreement_breakdown(model_a, model_b, spec)
            assert truth.disagreement_counts == fast.disagreement_counts
            assert truth.sample_size == fast.sample_size
            for a, b in zip(truth.per_level_entropy, fast.per_level):
                assert abs(a - b) <= 1e-12

    def test_guard(self):
        model = RuleModel(5, 5, (RuleLevel.of(ones=[0]),))
        with pytest.raises(SpaceTooLargeError):
            brute_force_breakdown(model, model, ImageSpaceSpec(5, 5, "full"))

    def test_model_grid_must_match_the_space(self):
        # the scalar labellers read a code's bits by the space's pixel count
        model = LinearModel(2, 2, [1.0, 1.0, -1.0, -1.0], -0.5)
        other = RuleModel(3, 3, (RuleLevel.of(ones=[0]),))
        with pytest.raises(InvalidConfigError, match="2x2 model cannot label the 3x3 space"):
            brute_force_breakdown(model, other, ImageSpaceSpec(3, 3, "full"))

    def test_model_grid_is_checked_before_the_space_is_enumerated(self):
        # a full 5x5 space is past the oracle's guard; the grid is the fault
        model = RuleModel(2, 2, (RuleLevel.of(ones=[0]),))
        for search in (brute_force_breakdown, exhaustive_fixed_point):
            with pytest.raises(InvalidConfigError, match="2x2 model cannot label the 5x5"):
                search(model, model, ImageSpaceSpec(5, 5, "full"))

    def test_radius_past_pixels_is_the_whole_ball(self):
        spec = ImageSpaceSpec(2, 2, "envelope", ("1000",), flip_radius=10**9)
        model_a = RuleModel(2, 2, (RuleLevel.of(ones=[0]),))
        model_b = RuleModel(2, 2, (RuleLevel.of(ones=[1]),))
        truth = brute_force_breakdown(model_a, model_b, spec)
        assert truth.sample_size == 16
        assert truth.disagreement_counts == disagreement_breakdown(model_a, model_b, spec).disagreement_counts

    def test_linear_scores_within_rounding_of_zero_label_alike(self):
        # With one-decimal weights many scores are 0 in exact arithmetic, and
        # each summation order rounds them to its own sign. Summed in BLAS
        # order alone, the fast labels counted (33501,), the oracle (33410,).
        weights = [-0.1, -0.2, 0.7, -0.6, 0.1, 0.2, 0.7, -0.6,
                   0.2, 0.3, 0.7, -0.1, 0.3, 0.7, 0.3, -0.1]
        model_a = RuleModel(4, 4, (RuleLevel.of(ones=[0]),))
        model_b = LinearModel(4, 4, weights, -0.1)
        spec = ImageSpaceSpec(4, 4, "full")
        fast = disagreement_breakdown(model_a, model_b, spec)
        oracle = brute_force_breakdown(model_a, model_b, spec)
        assert fast.disagreement_counts == oracle.disagreement_counts == (33410,)

    def test_disagreement_images_listed_in_order(self):
        fx = build_fixture("fig2-diagonal")
        result = brute_force_breakdown(fx.model_a, fx.model_b, fx.space)
        assert len(result.disagreement_images) == 4
        for row in bitstrings_to_rows(result.disagreement_images, 16):
            assert predict(fx.model_a, row) != predict(fx.model_b, row)


class TestExhaustiveFixedPoint:
    def test_expressible_target_reaches_zero_entropy(self):
        fx = build_fixture("fig1b")
        model, result, _ = exhaustive_fixed_point(fx.model_a, fx.model_b, fx.space)
        assert result.total_entropy == 0.0
        assert result.termination == "entropy_zero"
        assert brute_force_breakdown(model, fx.model_b, fx.space).disagreement_counts == (0,)

    def test_inexpressible_target_settles_between(self, fig1c_fixed_point):
        _, _, result, initial = fig1c_fixed_point
        assert 0.0 < result.total_entropy < initial.total_entropy
        # the second pass leaves the entropy where the first left it
        assert (result.termination, result.updates, result.pass_misses) == (
            "stalled", 4, (32768, 16384)
        )

    def test_identical_start_returns_unchanged_model(self):
        model = RuleModel(3, 3, (RuleLevel.of(ones=[0]),))
        fixed, result, _ = exhaustive_fixed_point(model, model, ImageSpaceSpec(3, 3, "full"))
        assert fixed == model
        assert result.total_entropy == 0.0
        assert (result.termination, result.updates, result.pass_misses) == ("no_disagreement", 0, ())

    def test_zero_initial_entropy_returns_start(self):
        # the two images of a 1x1 space both disagree: H0 = 0, nothing to edit
        model_a = RuleModel(1, 1, (RuleLevel.of(ones=[0]),))
        model_b = RuleModel(1, 1, (RuleLevel.of(zeros=[0]),))
        fixed, result, _ = exhaustive_fixed_point(model_a, model_b, ImageSpaceSpec(1, 1, "full"))
        assert fixed == model_a
        assert result.disagreement_counts == (2,)
        assert (result.termination, result.updates, result.pass_misses) == ("entropy_zero", 0, ())

    def test_idempotent(self, fig1c_fixed_point):
        fx, fixed, first, _ = fig1c_fixed_point
        again, second, _ = exhaustive_fixed_point(fixed, fx.model_b, fx.space)
        assert second.total_entropy == first.total_entropy
        assert brute_force_breakdown(again, fx.model_b, fx.space).total_entropy == pytest.approx(
            first.total_entropy, abs=1e-12
        )

    def test_requires_full_space(self):
        fx = build_fixture("fig2-diagonal")
        with pytest.raises(InvalidConfigError):
            exhaustive_fixed_point(fx.model_a, fx.model_b, fx.space)


class TestEnvelopeEquivalence:
    def test_matches_metrics_on_20_random_envelopes(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            spec = random_envelope_34(rng)
            model_a = random_rule_model(rng, pixels=16, grid=(4, 4))
            model_b = random_rule_model(rng, pixels=16, grid=(4, 4))
            truth = brute_force_breakdown(model_a, model_b, spec)
            fast = disagreement_breakdown(model_a, model_b, spec)
            assert truth.sample_size == 34
            assert truth.disagreement_counts == fast.disagreement_counts
            for a, b in zip(truth.per_level_entropy, fast.per_level):
                assert abs(a - b) <= 1e-12
