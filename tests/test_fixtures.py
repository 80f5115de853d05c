import pytest

from diaginterp.errors import InvalidConfigError
from diaginterp.fixtures import (
    build_fixture,
    diagonal_images,
    fixture_names,
    two_squares_bases,
    two_squares_class_pools,
)
from diaginterp.imagespace import enumerate_space, space_cardinality
from diaginterp.metrics import disagreement_breakdown
from diaginterp.models import model_to_json, num_levels, top_label


class TestCatalog:
    def test_names(self):
        assert fixture_names() == ["fig1b", "fig1c", "fig2-diagonal", "eval-squares"]

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(InvalidConfigError, match="fig2-diagonal"):
            build_fixture("nope")


class TestDiagonalFixture:
    def test_envelope_and_disagreement_shape(self):
        fx = build_fixture("fig2-diagonal")
        assert space_cardinality(fx.space).exact_value == 34
        bd = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
        assert bd.disagreement_counts == (4,)

    def test_bases_are_the_two_diagonals(self):
        main, anti = diagonal_images()
        assert main.bits[0] == main.bits[5] == main.bits[10] == main.bits[15] == 1
        assert sum(main.bits) == 4
        assert anti.bits[3] == anti.bits[6] == anti.bits[9] == anti.bits[12] == 1
        assert sum(anti.bits) == 4

    def test_models_classify_their_diagonals(self):
        fx = build_fixture("fig2-diagonal")
        main, anti = diagonal_images()
        assert top_label(fx.model_b, main) == 1
        assert top_label(fx.model_b, anti) == 0


class TestExpressivityFixtures:
    def test_fig1b_pair_disagrees_initially(self):
        fx = build_fixture("fig1b")
        bd = disagreement_breakdown(fx.model_a, fx.model_b, fx.space)
        assert bd.total > 0.0
        assert num_levels(fx.model_a) == num_levels(fx.model_b) == 1

    def test_fig1c_target_is_not_a_conjunction(self):
        # the linear OR fires on either pixel alone; no conjunction does that
        fx = build_fixture("fig1c")
        images = enumerate_space(fx.space)
        fires = [img for img in images if top_label(fx.model_b, img) == 1]
        only_first = [img for img in fires if img.bits[0] == 1 and img.bits[1] == 0]
        only_second = [img for img in fires if img.bits[1] == 1 and img.bits[0] == 0]
        assert only_first and only_second


class TestEvalSquares:
    def test_bases_are_balanced_and_labeled_by_area(self):
        bases, labels = two_squares_bases()
        assert len(bases) == len(labels)
        assert labels.count(0) == labels.count(1)
        for img, label in zip(bases[:50], labels[:50]):
            left = sum(img.bits[r * 8 + c] for r in range(8) for c in range(4))
            right = sum(img.bits[r * 8 + c] for r in range(8) for c in range(4, 8))
            assert (left > right) == bool(label)

    def test_class_pools_do_not_overlap(self):
        pool0, pool1 = two_squares_class_pools()
        assert set(map(bytes, pool0)).isdisjoint(map(bytes, pool1))

    def test_build_is_deterministic_per_seed(self):
        fx1 = build_fixture("eval-squares", seed=3)
        fx2 = build_fixture("eval-squares", seed=3)
        assert model_to_json(fx1.model_a) == model_to_json(fx2.model_a)
        assert model_to_json(fx1.model_b) == model_to_json(fx2.model_b)
        assert fx1.base_dataset == fx2.base_dataset

    def test_different_seeds_differ(self):
        fx1 = build_fixture("eval-squares", seed=0)
        fx2 = build_fixture("eval-squares", seed=1)
        assert model_to_json(fx1.model_b) != model_to_json(fx2.model_b)

    def test_dataset_contract(self):
        fx = build_fixture("eval-squares", seed=0)
        labels = [label for _, label in fx.base_dataset]
        assert len(fx.base_dataset) == 200
        assert labels.count(0) == labels.count(1) == 100
        assert fx.black_box_train_accuracy >= 0.99

    def test_epsilon_denominator_is_full_8x8_space(self):
        fx = build_fixture("eval-squares", seed=0)
        report_card = space_cardinality(fx.space)
        assert fx.mode == "epsilon"
        assert report_card.exact_value < 2**64
