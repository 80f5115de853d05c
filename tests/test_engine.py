import json
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from diaginterp.engine import (
    EngineConfig,
    _Run,
    admits_complete_run,
    config_from_json,
    config_to_json,
    run_complete_interpretation,
    run_interpretation,
    trajectory_rows,
)
from diaginterp.errors import AbstractionMismatchError, InvalidConfigError
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import ImageSpaceSpec
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    RuleLevel,
    RuleModel,
    model_from_json,
    predict,
)
from diaginterp.oracle import brute_force_breakdown, exhaustive_fixed_point


def rule(ones=(), zeros=(), grid=(4, 4)):
    return RuleModel(grid[0], grid[1], (RuleLevel.of(ones=ones, zeros=zeros),))


def everywhere_disagreeing_config():
    """A 1x1 full space on which the two models disagree on both images, so
    the disagreement rate is 1 and the entropy 0."""
    return EngineConfig(
        space=ImageSpaceSpec(1, 1, "full"),
        model_a=rule(ones=[0], grid=(1, 1)),
        model_b=rule(zeros=[0], grid=(1, 1)),
        max_queries=5,
    )


class TestRunInterpretation:
    def test_everywhere_disagreement_is_not_no_disagreement(self):
        report = run_interpretation(everywhere_disagreeing_config())
        assert report.initial_entropy.disagreement_counts == (2,)
        assert report.initial_entropy.total == 0.0
        assert report.steps == ()
        assert report.termination == "entropy_zero"

    def test_identical_models_need_no_queries(self):
        model = rule(ones=[0])
        config = EngineConfig(
            space=ImageSpaceSpec(4, 4, "full"),
            model_a=model,
            model_b=rule(ones=[0]),
            max_queries=5,
        )
        report = run_interpretation(config)
        assert report.steps == ()
        assert report.final_interpretability == 1.0
        assert report.termination == "no_disagreement"

    def test_diagonal_fixture_reaches_one_quickly(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=7))
        assert report.termination == "entropy_zero"
        assert report.final_interpretability == 1.0
        assert len(report.steps) <= 4

    def test_every_seed_converges_on_diagonal(self):
        fx = build_fixture("fig2-diagonal")
        for seed in range(20):
            report = run_interpretation(replace(fx, rng_seed=seed))
            assert report.final_interpretability == 1.0
            assert len(report.steps) <= 4

    def test_inexpressible_target_lands_strictly_between(self):
        fx = build_fixture("fig1c")
        report = run_interpretation(replace(fx, rng_seed=1, max_queries=20))
        assert 0.0 < report.final_interpretability < 1.0
        assert report.termination == "stalled"

    def test_determinism_field_for_field(self):
        fx = build_fixture("fig2-diagonal")
        r1 = run_interpretation(replace(fx, rng_seed=11))
        r2 = run_interpretation(replace(fx, rng_seed=11))
        assert r1.to_json() == r2.to_json()
        assert trajectory_rows(r1) == trajectory_rows(r2)

    def test_queried_image_agrees_after_rule_update(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=3))
        # after the final step the models agree on the final query at all levels
        assert report.final_model is not None
        last = [int(c) for c in report.steps[-1].query]
        assert predict(report.final_model, last) == predict(fx.model_b, last)

    def test_fixed_denominator_identity(self):
        fx = build_fixture("fig1c")
        report = run_interpretation(replace(fx, rng_seed=5, max_queries=20))
        h0 = report.initial_entropy.total
        for step in report.steps:
            expected = (h0 - step.entropy_after.total) / h0
            assert step.i_t == pytest.approx(max(expected, 0.0), abs=1e-12)

    def test_delta_tracks_consecutive_differences(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=9))
        prev = 0.0
        for step in report.steps:
            assert step.delta_i_t == pytest.approx(step.i_t - prev, abs=1e-15)
            prev = step.i_t

    def test_stall_after_three_flat_steps(self):
        fx = build_fixture("fig1c")
        report = run_interpretation(replace(fx, rng_seed=2, max_queries=50))
        assert report.termination == "stalled"
        flat = [s.delta_i_t for s in report.steps[-3:]]
        assert flat == [0.0, 0.0, 0.0]

    def test_budget_exhaustion(self):
        fx = build_fixture("fig1c")
        report = run_interpretation(replace(fx, rng_seed=2, max_queries=1))
        assert report.termination == "budget_exhausted"
        assert len(report.steps) == 1

    def test_epsilon_mode_attaches_confidence(self):
        fx = build_fixture("fig2-diagonal")
        config = replace(fx, rng_seed=0)
        report = run_interpretation(replace(config, mode="epsilon"))
        assert report.epsilon is not None
        assert 2.0**report.epsilon.log2_epsilon == pytest.approx(34 / 65536)

    def test_epsilon_mode_over_full_space_matches_diagnostic(self):
        space = ImageSpaceSpec(3, 3, "full")
        model_a = rule(ones=[0], grid=(3, 3))
        model_b = rule(ones=[4], grid=(3, 3))
        kwargs = dict(
            space=space,
            model_a=model_a,
            model_b=model_b,
            max_queries=10,
            rng_seed=4,
        )
        diag = run_interpretation(EngineConfig(mode="diagnostic", **kwargs))
        eps = run_interpretation(EngineConfig(mode="epsilon", **kwargs))
        assert eps.epsilon.log2_epsilon == 0.0
        assert eps.final_interpretability == diag.final_interpretability
        assert [s.to_json() for s in eps.steps] == [s.to_json() for s in diag.steps]
        assert eps.termination == diag.termination

    def test_epsilon_mode_bridges_mismatched_level_counts(self):
        # a two-level rule model interprets a single-level target: evaluation
        # and updates touch only the diagnosis level
        model_a = RuleModel(2, 2, (RuleLevel.of(ones=[3]), RuleLevel.of(ones=[0])))
        weights = np.zeros(4)
        weights[1] = 1.0
        model_b = LinearModel(2, 2, weights, -0.5)  # 1 iff pixel 1 set
        config = EngineConfig(
            space=ImageSpaceSpec(2, 2, "full"),
            model_a=model_a,
            model_b=model_b,
            max_queries=10,
            rng_seed=0,
            mode="epsilon",
        )
        report = run_interpretation(config)
        assert report.termination == "entropy_zero"
        assert report.final_interpretability == 1.0
        # the lower level was never the target of an update
        assert report.final_model.levels[0] == model_a.levels[0]
        assert predict(report.final_model, [0, 1, 0, 0])[-1] == 1
        assert predict(report.final_model, [1, 0, 1, 1])[-1] == 0

    def test_objective_recomputable_from_trajectory(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=7, lam=0.1))
        hand_sum = -sum(s.i_t for s in report.steps) + 0.1 * len(report.steps)
        assert report.objective_j == pytest.approx(hand_sum, abs=1e-12)

    def test_retrain_updater_requires_base_dataset(self):
        model_a = LinearModel(2, 2, np.zeros(4), 0.0)
        with pytest.raises(InvalidConfigError):
            EngineConfig(
                space=ImageSpaceSpec(2, 2, "full"),
                model_a=model_a,
                model_b=rule(ones=[0], grid=(2, 2)),
                max_queries=5,
                mode="epsilon",
            )

    def test_known_model_family_fixes_updater(self):
        config = everywhere_disagreeing_config()
        assert config.updater == "rule_minimal_edit"
        linear = LinearModel(1, 1, np.zeros(1), 0.0)
        base = np.zeros((0, 1), dtype=np.uint8), np.zeros(0, dtype=np.uint8)
        assert replace(config, model_a=linear, base_dataset=base).updater == "retrain_with_queries"
        net = NeuralModel(1, 1, (NeuralLayer(np.ones((1, 1)), np.zeros(1), "sigmoid"),))
        with pytest.raises(InvalidConfigError, match="rule or linear"):
            replace(config, model_a=net)

    # the config also refuses a retrain rate that train_linear would refuse
    @pytest.mark.parametrize("value, field", [
        *product([float("nan"), float("inf")], ["lam", "retrain_learning_rate"]),
        (0.0, "retrain_learning_rate"),
        (-1.0, "retrain_learning_rate"),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        config = replace(build_fixture("fig2-diagonal"), rng_seed=0)
        with pytest.raises(InvalidConfigError):
            replace(config, **{field: value})

    # ... and retrain epochs that train_linear would refuse
    @pytest.mark.parametrize("value, field", [
        *product([2.7, "3", True], ["max_queries", "rng_seed", "stall_patience", "retrain_epochs"]),
        (0, "retrain_epochs"),
        (-1, "retrain_epochs"),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        config = replace(build_fixture("fig2-diagonal"), rng_seed=0)
        with pytest.raises(InvalidConfigError):
            replace(config, **{field: value})

    @pytest.mark.parametrize("rows, labels", [(np.zeros((2, 15)), [0, 1]), (np.zeros((2, 16)), [1])])
    def test_base_dataset_rows_must_fit_the_space(self, rows, labels):
        config = replace(build_fixture("fig2-diagonal"), rng_seed=0)
        linear = LinearModel(4, 4, np.zeros(16), 0.0)
        with pytest.raises(InvalidConfigError, match="one space-sized row per label"):
            replace(config, model_a=linear, base_dataset=(rows, labels))

    def test_negative_seed_rejected(self):
        config = replace(build_fixture("fig2-diagonal"), rng_seed=0)
        with pytest.raises(InvalidConfigError, match="rng_seed cannot be negative, got -1"):
            replace(config, rng_seed=-1)

    def test_diagnostic_mode_requires_matched_levels(self):
        model_a = RuleModel(2, 2, (RuleLevel.of(), RuleLevel.of()))
        with pytest.raises(AbstractionMismatchError):
            EngineConfig(
                space=ImageSpaceSpec(2, 2, "full"),
                model_a=model_a,
                model_b=rule(ones=[0], grid=(2, 2)),
                max_queries=5,
            )

    def test_retraining_loop_on_squares(self):
        import math

        from diaginterp.imagespace import space_matrix

        fx = build_fixture("eval-squares", seed=0)
        report = run_interpretation(replace(fx, rng_seed=0))
        assert report.final_interpretability >= 0.99
        envelope_size = space_matrix(fx.space).shape[0]
        assert report.epsilon.log2_epsilon == pytest.approx(
            math.log2(envelope_size) - 64, abs=1e-9
        )

    def test_retraining_loop_is_deterministic(self):
        fx = build_fixture("eval-squares", seed=4)
        r1 = run_interpretation(replace(fx, rng_seed=4))
        r2 = run_interpretation(replace(fx, rng_seed=4))
        assert r1.to_json() == r2.to_json()

    def test_lower_level_only_disagreement_cannot_be_queried(self):
        # Level 0 disagrees on half the space while the diagnosis level always
        # agrees. In diagnostic mode the query region spans every level, so
        # these images are queried (the test name predates that region).
        model_a = RuleModel(2, 2, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[1])))
        model_b = RuleModel(2, 2, (RuleLevel.of(), RuleLevel.of(ones=[1])))
        config = EngineConfig(
            space=ImageSpaceSpec(2, 2, "full"),
            model_a=model_a,
            model_b=model_b,
            max_queries=5,
        )
        report = run_interpretation(config)
        assert report.initial_entropy.total == 1.0
        assert len(report.steps) >= 1
        assert report.termination == "entropy_zero"
        assert report.final_interpretability == 1.0

    def test_diagnostic_region_includes_lower_levels(self):
        # top levels agree everywhere; level 0 disagrees where pixels 0 and 1
        # differ, so H0 = h(8/16) = 1 bit
        model_a = RuleModel(2, 2, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[3])))
        model_b = RuleModel(2, 2, (RuleLevel.of(ones=[1]), RuleLevel.of(ones=[3])))
        config = EngineConfig(
            space=ImageSpaceSpec(2, 2, "full"),
            model_a=model_a,
            model_b=model_b,
            max_queries=16,
        )
        budgeted = run_interpretation(config)
        assert budgeted.initial_entropy.total == 1.0
        assert budgeted.termination == "entropy_zero"
        assert budgeted.final_interpretability == 1.0
        complete = run_complete_interpretation(config)
        assert complete.termination == "entropy_zero"
        assert complete.final_interpretability == 1.0
        assert len(complete.steps) == 2


class TestRunCompleteInterpretation:
    def test_expressible_pair_reaches_one(self):
        fx = build_fixture("fig1b")
        report = run_complete_interpretation(replace(fx, rng_seed=0))
        assert report.termination == "entropy_zero"
        assert report.final_interpretability == 1.0
        assert report.steps[-1].entropy_after.total == 0.0

    def test_inexpressible_pair_matches_oracle_fixed_point(self, fig1c_fixed_point):
        fx, _, fixed, initial = fig1c_fixed_point
        report = run_complete_interpretation(replace(fx, rng_seed=0))
        h0 = initial.total_entropy
        expected = (h0 - fixed.total_entropy) / h0
        # its last pass also ends on the model the pass before ended on, so
        # the stall test must come before the cycle test
        assert report.termination == "stalled"
        assert 0.0 < report.final_interpretability < 1.0
        assert report.final_interpretability == pytest.approx(expected, abs=1e-9)

    def test_two_model_cycle_ends_the_run(self):
        # A conjunction chasing a ReLU net on a 3x2 grid: the pass ends
        # alternate between two models (12 and 8 disagreements), with no two
        # consecutive passes at equal entropy, so the run is never stalled.
        net = model_from_json({"kind": "neural", "width": 3, "height": 2, "layers": [
            {"weights": [[0.7510446959543601, -0.6842229767191204],
                         [0.4987703032705417, -2.457403263706133],
                         [-0.8952416100336763, 1.173820117444949],
                         [-1.2737878476970828, 1.0068279312203865],
                         [0.21998962123574756, 1.3902406625057002],
                         [0.8790618796169933, -2.4941210393852193]],
             "bias": [0.6170948537951628, 0.3144494087693049], "activation": "relu"},
            {"weights": [[-0.6015300711866511], [-0.7615846398802838]],
             "bias": [0.28424159107064145], "activation": "sigmoid"},
        ]})
        start = rule(ones=[1, 4, 5], grid=(3, 2))
        space = ImageSpaceSpec(3, 2, "full")
        report = run_complete_interpretation(EngineConfig(space=space, model_a=start, model_b=net))
        assert report.termination == "cycle"
        assert report.pass_disagreements == (16, 12, 8)
        assert report.steps[-1].entropy_after.disagreement_counts == (12,)
        fixed, result, _ = exhaustive_fixed_point(start, net, space)
        assert fixed == report.final_model == rule(ones=[3], zeros=[0], grid=(3, 2))
        assert result.disagreement_counts == (12,)

    def test_identical_models_trivial(self):
        model = rule(ones=[3])
        config = EngineConfig(
            space=ImageSpaceSpec(4, 4, "full"),
            model_a=model,
            model_b=rule(ones=[3]),
            max_queries=1,
        )
        report = run_complete_interpretation(config)
        assert report.final_interpretability == 1.0
        assert report.steps == ()

    def test_everywhere_disagreement_is_not_no_disagreement(self):
        report = run_complete_interpretation(everywhere_disagreeing_config())
        assert report.initial_entropy.disagreement_counts == (2,)
        assert report.steps == ()
        assert report.pass_disagreements == ()
        assert report.termination == "entropy_zero"

    def test_disagreements_non_increasing_across_passes(self):
        for name in ("fig1b", "fig1c"):
            fx = build_fixture(name)
            report = run_complete_interpretation(replace(fx, rng_seed=0))
            counts = report.pass_disagreements
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_entropy_zero_means_exact_one(self):
        fx = build_fixture("fig1b")
        report = run_complete_interpretation(replace(fx, rng_seed=0))
        assert report.termination == "entropy_zero"
        assert report.final_interpretability == 1.0

    def test_requires_full_space(self):
        fx = build_fixture("fig2-diagonal")
        with pytest.raises(InvalidConfigError):
            run_complete_interpretation(replace(fx, rng_seed=0))

    @pytest.mark.parametrize("case", ["rule pair", "envelope", "linear known model",
                                      "level mismatch", "epsilon rule pair"])
    def test_admits_complete_run_is_what_the_complete_run_takes(self, case):
        # demo and oracle pick complete runs by the predicate; the complete
        # run refuses exactly the pairs it does not admit, with one error
        settings = {
            "space": ImageSpaceSpec(2, 2, "full"),
            "model_a": rule(ones=[0], grid=(2, 2)),
            "model_b": rule(ones=[1], grid=(2, 2)),
        }
        if case == "envelope":
            settings["space"] = ImageSpaceSpec(2, 2, "envelope", ("0110",), 1)
        elif case == "linear known model":
            settings["model_a"] = LinearModel(2, 2, np.zeros(4), 0.0)
            settings["base_dataset"] = np.zeros((1, 4), dtype=np.uint8), np.zeros(1, dtype=np.uint8)
        elif case == "level mismatch":
            settings["model_a"] = RuleModel(2, 2, (RuleLevel.of(ones=[3]), RuleLevel.of(ones=[0])))
            settings["mode"] = "epsilon"
        elif case == "epsilon rule pair":
            settings["mode"] = "epsilon"
        config = EngineConfig(**settings)
        admitted = admits_complete_run(config.model_a, config.model_b, config.space, config.mode)
        assert admitted == (case == "rule pair")
        if admitted:
            assert run_complete_interpretation(config).termination == "entropy_zero"
        else:
            with pytest.raises(InvalidConfigError, match="complete interpretation needs"):
                run_complete_interpretation(config)

    def test_epsilon_mode_is_refused_where_its_run_would_miss_the_fixed_point(self):
        # An epsilon-mode complete run would query only the diagnosis level's
        # disagreements and stop after 2 steps at entropy 0, on a model other
        # than the oracle's, whose search queries a miss at any level. The
        # diagnostic run takes 5 steps and reaches the oracle's model.
        space = ImageSpaceSpec(3, 3, "full")
        model_a = RuleModel(3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[1, 2])))
        model_b = RuleModel(
            3, 3, (RuleLevel.of(ones=[4], zeros=[0]), RuleLevel.of(ones=[1], zeros=[8]))
        )
        config = EngineConfig(space=space, model_a=model_a, model_b=model_b)
        report = run_complete_interpretation(config)
        assert (report.termination, len(report.steps)) == ("entropy_zero", 5)
        assert report.final_model == exhaustive_fixed_point(model_a, model_b, space)[0]
        with pytest.raises(InvalidConfigError, match="in diagnostic mode"):
            run_complete_interpretation(replace(config, mode="epsilon"))

    def test_final_model_agrees_everywhere_when_expressible(self):
        fx = build_fixture("fig1b")
        report = run_complete_interpretation(replace(fx, rng_seed=0))
        bd = disagreement_breakdown(report.final_model, fx.model_b, fx.space)
        assert bd.total == 0.0

    def test_multi_level_pair_matches_oracle_fixed_point(self):
        rng = np.random.default_rng(31)
        space = ImageSpaceSpec(3, 3, "full")
        for _ in range(20):
            levels = int(rng.integers(1, 4))
            model_a = random_rule_model(rng, levels)
            model_b = random_rule_model(rng, levels)
            config = EngineConfig(
                space=space,
                model_a=model_a,
                model_b=model_b,
                max_queries=16,
                rng_seed=int(rng.integers(0, 2**31)),
            )
            complete = run_complete_interpretation(config)
            _, fixed, truth = exhaustive_fixed_point(model_a, model_b, space)
            assert complete.initial_entropy.disagreement_counts == truth.disagreement_counts
            final = complete.steps[-1].entropy_after if complete.steps else complete.initial_entropy
            assert final.disagreement_counts == fixed.disagreement_counts

            budgeted = run_interpretation(config)
            final = budgeted.steps[-1].entropy_after if budgeted.steps else budgeted.initial_entropy
            if budgeted.termination in ("no_disagreement", "entropy_zero"):
                assert final.total == 0.0


def random_rule_model(rng, levels):
    """A 3x3 rule model whose levels each require 0-2 pixels on and 0-2 off."""
    made = []
    for _ in range(levels):
        pixels = [int(i) for i in rng.permutation(9)]
        n_ones, n_zeros = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        made.append(RuleLevel.of(ones=pixels[:n_ones], zeros=pixels[n_ones : n_ones + n_zeros]))
    return RuleModel(3, 3, tuple(made))


def linear(rng, grid):
    return LinearModel(grid[0], grid[1], rng.normal(size=grid[0] * grid[1]), float(rng.normal()))


def full_pair(known, black_box, grid, seed):
    """A full-space run of a ``known`` model against a ``black_box``, each
    "rule" or "linear"; a linear known model gets a two-row base dataset."""
    rng = np.random.default_rng(seed)
    pixels = grid[0] * grid[1]

    def make(kind):
        if kind == "linear":
            return linear(rng, grid)
        marks = rng.integers(0, 4, pixels)
        return rule(np.flatnonzero(marks == 0).tolist(), np.flatnonzero(marks == 1).tolist(), grid)

    model_a, model_b = make(known), make(black_box)
    base = None
    if known == "linear":
        base = rng.integers(0, 2, (2, pixels)).astype(np.uint8), np.array([0, 1], dtype=np.uint8)
    return EngineConfig(space=ImageSpaceSpec(*grid, "full"), model_a=model_a, model_b=model_b,
                        max_queries=12, stall_patience=12, rng_seed=seed, base_dataset=base)


FAMILY_PAIRS = [("rule", "rule"), ("rule", "linear"), ("linear", "rule"), ("linear", "linear")]


def refuse_matrices(monkeypatch) -> None:
    """Make every binding of space_matrix, _materialize_full and pack_columns
    in the package raise, so a reader of a full space that builds its matrix
    or packs it fails."""
    def refuse(*args):
        raise AssertionError("a full space was materialized or packed")

    for module in ("imagespace", "models", "engine", "metrics", "oracle"):
        for name in ("space_matrix", "_materialize_full", "pack_columns"):
            monkeypatch.setattr(f"diaginterp.{module}.{name}", refuse, raising=False)


class TestFullSpaceRun:
    """A full space is never materialized: its rows are decoded from image
    codes and a rule model's columns built from bit patterns, in a run, in
    disagreement_breakdown and in the oracle's fixed-point search."""

    @pytest.mark.parametrize("known, black_box", FAMILY_PAIRS)
    def test_run_builds_no_matrix_and_packs_no_columns(self, monkeypatch, known, black_box):
        refuse_matrices(monkeypatch)
        report = run_interpretation(full_pair(known, black_box, (3, 4), seed=5))
        assert report.steps

    @pytest.mark.parametrize("known, black_box", FAMILY_PAIRS)
    def test_breakdown_builds_no_matrix_and_packs_no_columns(self, monkeypatch, known, black_box):
        config = full_pair(known, black_box, (3, 4), seed=5)
        truth = brute_force_breakdown(config.model_a, config.model_b, config.space, keep_images=0)
        refuse_matrices(monkeypatch)
        breakdown = disagreement_breakdown(config.model_a, config.model_b, config.space)
        assert breakdown.disagreement_counts == truth.disagreement_counts

    @pytest.mark.parametrize("black_box", ["rule", "linear"])
    def test_fixed_point_builds_no_matrix_and_packs_no_columns(self, monkeypatch, black_box):
        config = full_pair("rule", black_box, (3, 3), seed=5)
        expected = exhaustive_fixed_point(config.model_a, config.model_b, config.space)
        refuse_matrices(monkeypatch)
        assert exhaustive_fixed_point(config.model_a, config.model_b, config.space) == expected

    def test_breakdown_of_a_4x5_rule_pair_stays_small(self):
        spec = ImageSpaceSpec(4, 5, "full")
        model_a, model_b = rule([0, 7], [3], (4, 5)), rule([1, 2], [5], (4, 5))
        tracemalloc.start()
        try:
            breakdown = disagreement_breakdown(model_a, model_b, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2^20 x 20 matrix alone would take 20 MiB
        assert breakdown.sample_size == 2**20
        assert peak < 8 * 2**20

    def test_rule_pair_on_3x6_stays_small(self):
        config = EngineConfig(space=ImageSpaceSpec(3, 6, "full"), model_a=rule([0, 7], [3], (3, 6)),
                              model_b=rule([1, 2], [5], (3, 6)))
        picks = np.random.default_rng(0).integers(0, 2**18, 16).tolist()
        tracemalloc.start()
        try:
            run = _Run(config)
            for idx in picks:
                run.update(idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2^18 x 18 matrix alone would take 4.5 MiB
        assert len(run.steps) == 16
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("known, black_box", FAMILY_PAIRS)
    @pytest.mark.parametrize("seed", range(4))
    def test_breakdowns_match_brute_force(self, known, black_box, seed):
        config = full_pair(known, black_box, [(3, 3), (2, 5), (3, 4), (1, 4)][seed], seed)
        report = run_interpretation(config)
        final = report.steps[-1].entropy_after if report.steps else report.initial_entropy
        for model, breakdown in ((config.model_a, report.initial_entropy),
                                 (report.final_model, final)):
            truth = brute_force_breakdown(model, config.model_b, config.space, keep_images=0)
            assert breakdown.disagreement_counts == truth.disagreement_counts
            assert breakdown.sample_size == truth.sample_size
            assert breakdown.per_level == truth.per_level_entropy
            assert breakdown.total == truth.total_entropy


class TestReportSerialization:
    def test_report_json_shape(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=7))
        doc = report.to_json()
        assert doc["termination"] == "entropy_zero"
        assert doc["final_interpretability"] == 1.0
        assert doc["steps"][0]["t"] == 1
        assert set(doc["steps"][0]) == {"t", "query", "entropy_after", "I_t", "delta_I_t"}
        json.dumps(doc)  # must be serializable as-is

    def test_trajectory_rows_format(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=7))
        rows = trajectory_rows(report)
        assert rows[0] == "t,I_t,delta_I_t,H_total"
        assert len(rows) == len(report.steps) + 1
        first = rows[1].split(",")
        assert first[0] == "1"
        float(first[1]), float(first[2]), float(first[3])

    def test_config_round_trip(self):
        fx = build_fixture("fig2-diagonal")
        config = replace(fx, rng_seed=7, lam=0.25)
        back = config_from_json(config_to_json(config))
        assert back.space == config.space
        assert back.model_a == config.model_a
        assert back.model_b == config.model_b
        assert back.lam == config.lam
        assert back.rng_seed == config.rng_seed
        assert back.mode == config.mode

    def test_raw_unclamped_final_matches_final_when_no_clamping(self):
        fx = build_fixture("fig2-diagonal")
        report = run_interpretation(replace(fx, rng_seed=7))
        assert report.raw_unclamped_final == report.final_interpretability
