import math

import numpy as np
import pytest

from diaginterp.errors import AbstractionMismatchError, DomainError
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import ImageSpaceSpec
from diaginterp.metrics import (
    binary_entropy,
    confidence_epsilon,
    disagreement_breakdown,
    interpretability,
    objective,
)
from diaginterp.models import RuleLevel, RuleModel


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_limits_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_diagonal_rate(self):
        assert binary_entropy(4 / 34) == pytest.approx(0.5225593745369408, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    def test_symmetry_on_grid(self):
        for k in range(1, 1000):
            f = k / 1000.0
            assert abs(binary_entropy(f) - binary_entropy(1.0 - f)) <= 1e-12

    def test_bounds_on_grid(self):
        for k in range(0, 1001):
            h = binary_entropy(k / 1000.0)
            assert -1e-12 <= h <= 1.0 + 1e-12

    def test_concavity_on_sampled_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            f1, f2, alpha = rng.uniform(0.0, 1.0, size=3)
            mixed = binary_entropy(alpha * f1 + (1 - alpha) * f2)
            convex = alpha * binary_entropy(f1) + (1 - alpha) * binary_entropy(f2)
            assert mixed >= convex - 1e-12


class TestDisagreementBreakdown:
    def test_identical_models_zero_entropy(self):
        model = RuleModel(3, 3, (RuleLevel.of(ones=[0]),))
        bd = disagreement_breakdown(model, model, ImageSpaceSpec(3, 3, "full"))
        assert bd.total == 0.0
        assert bd.disagreement_counts == (0,)

    def test_diagonal_fixture_rate_and_entropy(self):
        fx = build_fixture("fig2-diagonal")
        bd = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
        assert bd.disagreement_counts == (4,)
        assert bd.sample_size == 34
        assert bd.total == pytest.approx(0.5226, abs=1e-3)

    def test_two_level_half_rates_sum_to_two_bits(self):
        # both levels disagree on exactly half of the 1x2 space
        model_a = RuleModel(2, 1, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[1])))
        model_b = RuleModel(2, 1, (RuleLevel.of(), RuleLevel.of()))
        bd = disagreement_breakdown(model_a, model_b, ImageSpaceSpec(2, 1, "full"))
        assert bd.disagreement_rates == (0.5, 0.5)
        assert bd.total == 2.0

    def test_additivity_exact(self):
        fx = build_fixture("fig2-diagonal")
        bd = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
        assert bd.total == sum(bd.per_level)
        for rate, h in zip(bd.disagreement_rates, bd.per_level):
            assert h == pytest.approx(binary_entropy(rate), abs=1e-12)

    def test_level_mismatch_raises(self):
        model_a = RuleModel(2, 2, (RuleLevel.of(), RuleLevel.of()))
        model_b = RuleModel(2, 2, (RuleLevel.of(),))
        with pytest.raises(AbstractionMismatchError):
            disagreement_breakdown(model_a, model_b, ImageSpaceSpec(2, 2, "full"))

    def test_top_only_compares_diagnosis_labels(self):
        model_a = RuleModel(2, 2, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[1])))
        model_b = RuleModel(2, 2, (RuleLevel.of(ones=[1]),))
        bd = disagreement_breakdown(
            model_a, model_b, ImageSpaceSpec(2, 2, "full"), top_only=True
        )
        assert bd.disagreement_counts == (0,)


class TestInterpretability:
    def test_full_reduction_is_one(self):
        assert interpretability(0.7, 0.0) == 1.0

    def test_no_reduction_is_zero(self):
        assert interpretability(0.7, 0.7) == 0.0

    def test_ratio(self):
        assert interpretability(0.52, 0.13) == 0.75

    def test_zero_initial_entropy_counts_as_interpreted(self):
        assert interpretability(0.0, 0.0) == 1.0

    def test_entropy_increase_clamps_to_zero(self):
        assert interpretability(0.5, 0.6) == 0.0

    def test_negative_entropy_rejected(self):
        with pytest.raises(DomainError):
            interpretability(-0.1, 0.0)
        with pytest.raises(DomainError):
            interpretability(0.5, -0.1)

    def test_range_and_extremes_on_grid(self):
        for h0 in np.linspace(0.0, 1.0, 21):
            for h1 in np.linspace(0.0, 1.0, 21):
                if h1 > h0:
                    continue
                value = interpretability(float(h0), float(h1))
                assert 0.0 <= value <= 1.0
                if h0 > 0 and h1 == h0:
                    assert value == 0.0
                if h1 == 0.0:
                    assert value == 1.0


class TestConfidenceEpsilon:
    def test_reference_ratio(self):
        eps = confidence_epsilon(4068, 16 * 16)
        assert abs(2.0**eps.log2_epsilon - 3.51e-74) / 3.51e-74 < 0.01
        assert eps.display == "3.513e-74"
        assert eps.log2_epsilon == pytest.approx(math.log2(4068) - 256, abs=1e-9)

    def test_full_coverage_is_one(self):
        for pixels in (16, 64):
            eps = confidence_epsilon(2**pixels, pixels)
            assert eps.log2_epsilon == 0.0
            assert eps.display == "1.000e+00"

    def test_34_of_2_16(self):
        eps = confidence_epsilon(34, 16)
        assert 2.0**eps.log2_epsilon == pytest.approx(5.188e-4, rel=1e-3)

    def test_oversized_sample_rejected(self):
        # 2^64 + 1 has the float log2 of 2^64; only an exact comparison rejects it
        for sample_size, pixels in ((0, 16), (-1, 16), (2**16 + 1, 16), (2**64 + 1, 64)):
            with pytest.raises(DomainError):
                confidence_epsilon(sample_size, pixels)

    def test_monotone_in_sample_size(self):
        values = [
            confidence_epsilon(n, 16).log2_epsilon
            for n in (1, 10, 100, 1000, 65536)
        ]
        assert values == sorted(values)

    def test_huge_spaces_stay_finite_in_log_form(self):
        eps = confidence_epsilon(34, 64 * 64)
        assert 2.0**eps.log2_epsilon == 0.0  # the ratio itself underflows
        assert math.isfinite(eps.log2_epsilon)
        assert eps.display.endswith("e-1232")


class TestObjective:
    def test_pure_sum(self):
        assert objective([1.0, 1.0], 0.0) == -2.0

    def test_empty(self):
        assert objective([], 0.5) == 0.0

    def test_penalty_term(self):
        assert objective([1.0, 0.5], 0.1) == pytest.approx(-1.3)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            objective([1.0], -0.1)

    def test_out_of_range_interpretability_rejected(self):
        with pytest.raises(DomainError):
            objective([1.5], 0.0)
