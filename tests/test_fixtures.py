import hashlib

import numpy as np
import pytest

from diaginterp.engine import admits_complete_run
from diaginterp.errors import InvalidConfigError
from diaginterp.fixtures import (
    build_fixture,
    diagonal_images,
    fixture_names,
    two_squares_bases,
    two_squares_class_pools,
)
from diaginterp.imagespace import bitstrings_to_rows, space_matrix
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import model_to_json, num_levels, predict, training_accuracy


class TestCatalog:
    def test_names(self):
        assert fixture_names() == ["fig1b", "fig1c", "fig2-diagonal", "eval-squares"]

    def test_the_full_space_rule_pairs_admit_complete_runs(self):
        # demo runs complete interpretation on exactly these fixtures
        fixtures = {name: build_fixture(name) for name in fixture_names()}
        admitted = [
            name
            for name, fx in fixtures.items()
            if admits_complete_run(fx.model_a, fx.model_b, fx.space, fx.mode)
        ]
        assert admitted == ["fig1b", "fig1c"]

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(InvalidConfigError, match="fig2-diagonal"):
            build_fixture("nope")


class TestDiagonalFixture:
    def test_envelope_and_disagreement_shape(self):
        fx = build_fixture("fig2-diagonal")
        assert space_matrix(fx.space).shape[0] == 34
        bd = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
        assert bd.disagreement_counts == (4,)

    def test_bases_are_the_two_diagonals(self):
        main, anti = bitstrings_to_rows(diagonal_images(), 16)
        assert main[0] == main[5] == main[10] == main[15] == 1
        assert sum(main) == 4
        assert anti[3] == anti[6] == anti[9] == anti[12] == 1
        assert sum(anti) == 4

    def test_models_classify_their_diagonals(self):
        fx = build_fixture("fig2-diagonal")
        main, anti = bitstrings_to_rows(diagonal_images(), 16)
        assert predict(fx.model_b, main)[-1] == 1
        assert predict(fx.model_b, anti)[-1] == 0


class TestExpressivityFixtures:
    def test_fig1b_pair_disagrees_initially(self):
        fx = build_fixture("fig1b")
        bd = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
        assert bd.total > 0.0
        assert num_levels(fx.model_a) == num_levels(fx.model_b) == 1

    def test_fig1c_target_is_not_a_conjunction(self):
        # the linear OR fires on either pixel alone; no conjunction does that
        fx = build_fixture("fig1c")
        images = space_matrix(fx.space)
        fires = [img for img in images if predict(fx.model_b, img)[-1] == 1]
        only_first = [img for img in fires if img[0] == 1 and img[1] == 0]
        only_second = [img for img in fires if img[1] == 1 and img[0] == 0]
        assert only_first and only_second


class TestEvalSquares:
    def test_bases_are_balanced_and_labeled_by_area(self):
        bases, labels = two_squares_bases()
        assert bases.shape == (768, 64)
        assert np.count_nonzero(labels == 0) == np.count_nonzero(labels == 1)
        grids = bases.reshape(-1, 8, 8)
        left = grids[:, :, :4].sum(axis=(1, 2))
        right = grids[:, :, 4:].sum(axis=(1, 2))
        assert np.array_equal(left > right, labels == 1)

    def test_bases_and_envelope_order_pinned(self):
        # sha256 prefixes of the order the per-image builder produced
        def digest(data):
            return hashlib.sha256(data).hexdigest()[:16]

        bases, labels = two_squares_bases()
        assert digest(bases.tobytes()) == "1e085804b5b36370"
        assert digest(bytes(labels)) == "8ead6a108b519cb1"
        space = space_matrix(build_fixture("eval-squares", seed=0).space)
        assert space.shape == (37272, 64)
        assert digest(space.tobytes()) == "934697c01823a131"

    def test_class_pools_do_not_overlap(self):
        pool0, pool1 = two_squares_class_pools(*two_squares_bases())
        assert set(map(bytes, pool0)).isdisjoint(map(bytes, pool1))

    def test_build_is_deterministic_per_seed(self):
        fx1 = build_fixture("eval-squares", seed=3)
        fx2 = build_fixture("eval-squares", seed=3)
        assert model_to_json(fx1.model_a) == model_to_json(fx2.model_a)
        assert model_to_json(fx1.model_b) == model_to_json(fx2.model_b)
        assert all(map(np.array_equal, fx1.base_dataset, fx2.base_dataset))

    def test_different_seeds_differ(self):
        fx1 = build_fixture("eval-squares", seed=0)
        fx2 = build_fixture("eval-squares", seed=1)
        assert model_to_json(fx1.model_b) != model_to_json(fx2.model_b)

    def test_dataset_contract(self):
        fx = build_fixture("eval-squares", seed=0)
        rows, labels = fx.base_dataset
        labels = labels.tolist()
        assert len(rows) == len(labels) == 200
        assert labels.count(0) == labels.count(1) == 100
        assert training_accuracy(fx.model_b, *fx.base_dataset) >= 0.99

    def test_epsilon_denominator_is_full_8x8_space(self):
        fx = build_fixture("eval-squares", seed=0)
        assert fx.mode == "epsilon"
        assert fx.space.num_pixels == 64
        assert space_matrix(fx.space).shape[0] < 2**64
