"""Acceptance suite: every criterion the artifact must meet, one test each,
at the stated tolerance and runtime budget. Each test prints a PASS line
(visible under ``pytest -s``); pytest enforces the asserts either way.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from diaginterp.cli import main
from diaginterp.engine import run_complete_interpretation, run_interpretation
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import ImageSpaceSpec
from diaginterp.metrics import binary_entropy, confidence_epsilon, disagreement_breakdown
from diaginterp.models import RuleLevel, RuleModel, init_neural, training_accuracy
from diaginterp.oracle import brute_force_breakdown, exhaustive_fixed_point
from test_trainers import bce_loss, reference_bce_gradients


def _passed(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_1_diagonal_toy_reproduction():
    start = time.perf_counter()
    fx = build_fixture("fig2-diagonal")

    breakdown = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
    assert breakdown.disagreement_counts == (4,)
    assert breakdown.sample_size == 34
    assert breakdown.total == pytest.approx(0.5226, abs=1e-3)

    report = run_interpretation(replace(fx, rng_seed=7))
    assert report.final_interpretability == 1.0
    assert len(report.steps) <= 4

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"4/34 disagreements, h=0.5226, I=1 in {len(report.steps)} queries "
               f"({elapsed:.2f}s < 1s)")


def test_criterion_2_complete_interpretation_over_full_4x4():
    start = time.perf_counter()

    fx_b = build_fixture("fig1b")
    report_b = run_complete_interpretation(replace(fx_b, rng_seed=0))
    assert report_b.steps[-1].entropy_after.total == 0.0
    assert report_b.final_interpretability == 1.0

    fx_c = build_fixture("fig1c")
    report_c = run_complete_interpretation(replace(fx_c, rng_seed=0))
    assert 0.0 < report_c.final_interpretability < 1.0
    _, fixed, initial = exhaustive_fixed_point(fx_c.model_a, fx_c.model_b, fx_c.space)
    h0 = initial.total_entropy
    oracle_i = (h0 - fixed.total_entropy) / h0
    assert report_c.final_interpretability == pytest.approx(oracle_i, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(2, f"expressible pair: H=0, I=1; limited pair: I={report_c.final_interpretability:.6f} "
               f"= oracle to 1e-9 ({elapsed:.2f}s < 10s)")


def test_criterion_3_confidence_arithmetic():
    eps = confidence_epsilon(4068, 16 * 16)
    assert abs(2.0**eps.log2_epsilon - 3.51e-74) / 3.51e-74 < 0.01
    _passed(3, f"4068 / 2^256 = {eps.display} (within 1% of 3.51e-74)")


def test_criterion_4_desk_scale_neural_vs_linear():
    start = time.perf_counter()
    reached = 0
    queries_used = []
    for seed in range(10):
        fx = build_fixture("eval-squares", seed)
        assert training_accuracy(fx.model_b, *fx.base_dataset) >= 0.99
        report = run_interpretation(replace(fx, rng_seed=seed, max_queries=10))
        if report.final_interpretability >= 0.99:
            reached += 1
            queries_used.append(len(report.steps))
    elapsed = time.perf_counter() - start
    assert reached >= 8
    assert elapsed < 60.0
    _passed(4, f"{reached}/10 seeds reached I >= 0.99 within 10 queries "
               f"(max {max(queries_used)} used, {elapsed:.1f}s < 60s)")


def test_criterion_5_oracle_equivalence_sweep():
    rng = np.random.default_rng(1234)

    def random_rule(pixels, grid):
        order = list(range(pixels))
        rng.shuffle(order)
        n_ones = int(rng.integers(0, 3))
        n_zeros = int(rng.integers(0, 3))
        return RuleModel(
            grid[0], grid[1],
            (RuleLevel.of(ones=order[:n_ones], zeros=order[n_ones:n_ones + n_zeros]),),
        )

    checked = 0
    spec3 = ImageSpaceSpec(3, 3, "full")
    for _ in range(20):
        a, b = random_rule(9, (3, 3)), random_rule(9, (3, 3))
        truth = brute_force_breakdown(a, b, spec3)
        fast = disagreement_breakdown(a, b, spec3)
        assert truth.disagreement_counts == fast.disagreement_counts
        for x, y in zip(truth.per_level_entropy, fast.per_level):
            assert abs(x - y) <= 1e-12
        checked += 1

    for _ in range(20):
        while True:
            bits_a = "".join(map(str, rng.integers(0, 2, 16)))
            bits_b = "".join(map(str, rng.integers(0, 2, 16)))
            if sum(x != y for x, y in zip(bits_a, bits_b)) >= 3:
                break
        spec = ImageSpaceSpec(4, 4, "envelope", (bits_a, bits_b), flip_radius=1)
        a, b = random_rule(16, (4, 4)), random_rule(16, (4, 4))
        truth = brute_force_breakdown(a, b, spec)
        fast = disagreement_breakdown(a, b, spec)
        assert truth.sample_size == fast.sample_size == 34
        assert truth.disagreement_counts == fast.disagreement_counts
        for x, y in zip(truth.per_level_entropy, fast.per_level):
            assert abs(x - y) <= 1e-12
        checked += 1

    _passed(5, f"{checked} random pairs: counts exact, entropies within 1e-12")


def test_criterion_6_extremal_cases():
    # (a) zero entropy after querying forces I exactly 1
    fx = build_fixture("fig2-diagonal")
    report_a = run_interpretation(replace(fx, rng_seed=7))
    assert report_a.termination == "entropy_zero"
    assert report_a.steps[-1].entropy_after.total == 0.0
    assert report_a.steps[-1].i_t == 1.0

    # (b) three consecutive flat steps stall the run
    fx_c = build_fixture("fig1c")
    report_b = run_interpretation(replace(fx_c, rng_seed=2, max_queries=50))
    assert report_b.termination == "stalled"
    assert [s.delta_i_t for s in report_b.steps[-3:]] == [0.0, 0.0, 0.0]

    # (c) identical models from the start: I = 1 with zero queries
    model = RuleModel(4, 4, (RuleLevel.of(ones=[0]),))
    from diaginterp.engine import EngineConfig

    report_c = run_interpretation(
        EngineConfig(
            space=ImageSpaceSpec(4, 4, "full"),
            model_a=model,
            model_b=RuleModel(4, 4, (RuleLevel.of(ones=[0]),)),
            max_queries=5,
        )
    )
    assert report_c.final_interpretability == 1.0
    assert report_c.steps == ()

    _passed(6, "entropy_zero => I=1; 3 flat deltas => stalled; A=B => I=1 with 0 queries")


def test_criterion_7_numerical_properties(tmp_path):
    # entropy symmetry and bounds over a 1000-point grid
    for k in range(1, 1000):
        f = k / 1000.0
        assert abs(binary_entropy(f) - binary_entropy(1.0 - f)) <= 1e-12
        assert -1e-12 <= binary_entropy(f) <= 1.0 + 1e-12

    # analytic gradients vs central finite differences
    rng = np.random.default_rng(7)
    X = rng.integers(0, 2, size=(5, 4)).astype(float)
    y = rng.integers(0, 2, size=5).astype(float)
    model = init_neural([4, 3, 1], width=2, height=2, rng_seed=7)
    grads = reference_bce_gradients(model, X, y)
    h = 1e-5
    worst = 0.0
    for k, layer in enumerate(model.layers):
        for index in np.ndindex(layer.weights.shape):
            def loss_with(delta, k=k, index=index):
                layers = []
                for j, lyr in enumerate(model.layers):
                    w = lyr.weights.copy()
                    if j == k:
                        w[index] += delta
                    layers.append(type(lyr)(w, lyr.bias.copy(), lyr.activation))
                from diaginterp.models import NeuralModel

                return bce_loss(NeuralModel(2, 2, tuple(layers)), X, y)

            numeric = (loss_with(h) - loss_with(-h)) / (2 * h)
            rel = abs(numeric - grads[k][0][index]) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4

    # byte-identical outputs across repeated seeded runs
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["interpret", "--fixture", "fig2-diagonal", "--seed", "5",
                     "--out", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    _passed(7, f"entropy grid ok; worst gradient error {worst:.2e} < 1e-4; "
               "seeded outputs byte-identical")
