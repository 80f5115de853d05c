import tracemalloc

import numpy as np
import pytest

from diaginterp.errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidSpecError,
)
from diaginterp.imagespace import ImageSpaceSpec, SpaceRows, full_columns, space_matrix
from diaginterp.models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    RuleLevel,
    RuleModel,
    init_neural,
    level_label_matrix,
    linear_update,
    model_from_json,
    model_to_json,
    num_levels,
    predict,
    rule_update,
    train_linear,
    train_neural,
    training_accuracy,
)
from test_trainers import bce_loss, reference_bce_gradients


def bits(text):
    """The 0/1 pixels of a row-major bitstring."""
    return [int(c) for c in text]


def with_pixels(pixels, *on):
    """The 0/1 pixels of a ``pixels``-pixel image with the pixels ``on`` set."""
    return [int(i in on) for i in range(pixels)]


MAIN_DIAGONAL = with_pixels(16, 0, 5, 10, 15)
ANTI_DIAGONAL = with_pixels(16, 3, 6, 9, 12)


def diagonal_rule():
    return RuleModel(4, 4, (RuleLevel.of(ones=[0, 5, 10, 15]),))


def update_toward(model, image, spec, reference):
    """rule_update of ``image``, a 0/1 row of the space ``spec``, toward
    ``reference``'s labels of that space."""
    space = SpaceRows(spec)
    index = space_matrix(spec).tolist().index([int(v) for v in image])
    return rule_update(model, index, space.columns, level_label_matrix(reference, space))


def training_set(width, height, *examples):
    """(rows, labels, width, height) from (bitstring, label) pairs."""
    rows = [[int(c) for c in text] for text, _ in examples]
    return np.array(rows, dtype=np.uint8), np.array([label for _, label in examples]), width, height


class TestPredict:
    def test_diagonal_rule_accepts_diagonal(self):
        assert predict(diagonal_rule(), MAIN_DIAGONAL) == (1,)

    def test_diagonal_rule_rejects_anti_diagonal(self):
        assert predict(diagonal_rule(), ANTI_DIAGONAL) == (0,)

    def test_empty_level_predicts_one_everywhere(self):
        model = RuleModel(2, 2, (RuleLevel.of(),))
        for img in space_matrix(ImageSpaceSpec(2, 2, "full")):
            assert predict(model, img) == (1,)

    def test_zeros_constraint(self):
        model = RuleModel(2, 2, (RuleLevel.of(zeros=[3]),))
        assert predict(model, bits("1110")) == (1,)
        assert predict(model, bits("1111")) == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="expected an image of 16 0/1 pixels"):
            predict(diagonal_rule(), bits("1111"))

    def test_bitstring_is_not_pixels(self):
        # its length matches, but its characters are not 0/1 ints
        model = RuleModel(2, 2, (RuleLevel.of(ones=[0]),))
        with pytest.raises(InvalidInputError, match="got '0101'"):
            predict(model, "0101")

    def test_linear_ties_break_to_zero(self):
        model = LinearModel(1, 2, np.array([1.0, -1.0]), 0.0)
        assert predict(model, bits("11")) == (0,)
        assert predict(model, bits("10")) == (1,)

    def test_overlapping_constraints_rejected(self):
        with pytest.raises(InvalidSpecError):
            RuleLevel.of(ones=[1], zeros=[1])


class TestTopLabel:
    def test_two_level_model_against_direct_recount(self):
        # independent recount of the last level over the full 3x3 space
        model = RuleModel(
            3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[4], zeros=[8]))
        )
        for img in space_matrix(ImageSpaceSpec(3, 3, "full")):
            expected = 1 if (img[4] == 1 and img[8] == 0) else 0
            assert predict(model, img)[-1] == expected


class TestLabelMatrix:
    def test_labelling_a_full_4x4_space_holds_one_block_of_floats(self):
        # a float64 copy of the 65,536-row space alone is 8 MiB
        matrix = space_matrix(ImageSpaceSpec(4, 4, "full"))
        model = init_neural([16, 64, 1], 4, 4, rng_seed=0)
        tracemalloc.start()
        try:
            level_label_matrix(model, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestRuleModelProperties:
    def test_adding_constraints_is_monotone(self):
        rng = np.random.default_rng(3)
        space = space_matrix(ImageSpaceSpec(3, 3, "full"))
        for _ in range(20):
            ones = {int(i) for i in rng.choice(9, rng.integers(0, 3), replace=False)}
            free = [i for i in range(9) if i not in ones]
            zeros = {int(i) for i in rng.choice(free, rng.integers(0, 2), replace=False)}
            model = RuleModel(3, 3, (RuleLevel.of(ones=ones, zeros=zeros),))
            extra = int(rng.choice([i for i in range(9) if i not in ones | zeros]))
            grown = RuleModel(
                3, 3, (RuleLevel.of(ones=ones | {extra}, zeros=zeros),)
            )
            for img in space:
                if predict(model, img) == (0,):
                    assert predict(grown, img) == (0,)


class TestRuleUpdate:
    def setup_method(self):
        main, anti = "1000010000100001", "0001001001001000"
        self.space = ImageSpaceSpec(4, 4, "envelope", (main, anti), flip_radius=1)
        self.model_a = RuleModel(4, 4, (RuleLevel.of(ones=[0]),))
        self.model_b = diagonal_rule()

    def test_forced_removal_when_target_is_one(self):
        # A requires pixel 5; the queried image lacks it, and a reference that
        # requires pixel 0 alone labels it 1; the only minimal edit is
        # removing that constraint
        model = RuleModel(4, 4, (RuleLevel.of(ones=[0, 5]),))
        image = with_pixels(16, 0, 10, 15)  # the diagonal less pixel 5
        updated = update_toward(model, image, self.space, self.model_a)
        assert updated.levels[0] == RuleLevel.of(ones=[0])
        assert predict(updated, image) == (1,)

    def test_blocking_addition_matches_brute_force_argmin(self):
        image = with_pixels(16, 0, 10, 15)  # A says 1, B says 0
        updated = update_toward(self.model_a, image, self.space, self.model_b)

        # independent argmin: try every legal single addition, count
        # disagreements with B by looping over the envelope
        space_images = space_matrix(self.space)
        best = None
        for j in range(16):
            if image[j] == 0:
                cand = RuleModel(4, 4, (RuleLevel.of(ones=[0, j]),))
            else:
                if j == 0:
                    continue
                cand = RuleModel(4, 4, (RuleLevel.of(ones=[0], zeros=[j]),))
            count = sum(
                1
                for img in space_images
                if predict(cand, img) != predict(self.model_b, img)
            )
            if best is None or (count, j) < best[:2]:
                best = (count, j, cand)
        assert updated == best[2]

    def test_updated_model_hits_target_on_query(self):
        rng = np.random.default_rng(7)
        spec = ImageSpaceSpec(3, 3, "full")
        images = space_matrix(spec)
        for _ in range(25):
            ones = [int(i) for i in rng.choice(9, rng.integers(0, 3), replace=False)]
            model = RuleModel(3, 3, (RuleLevel.of(ones=ones),))
            image = images[int(rng.integers(0, len(images)))]
            target = (1 - predict(model, image)[0],)
            # a one-pixel reference that labels the image with the target
            j = int(rng.integers(0, 9))
            level = RuleLevel.of(ones=[j]) if image[j] == target[0] else RuleLevel.of(zeros=[j])
            updated = update_toward(model, image, spec, RuleModel(3, 3, (level,)))
            assert predict(updated, image) == target

    def test_multi_level_update(self):
        model = RuleModel(
            3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[4]))
        )
        reference = RuleModel(
            3, 3, (RuleLevel.of(ones=[1]), RuleLevel.of(ones=[5]))
        )
        spec = ImageSpaceSpec(3, 3, "full")
        image = with_pixels(9, 1, 5)
        updated = update_toward(model, image, spec, reference)
        assert predict(updated, image) == (1, 1)

    def test_fully_pinned_level_uses_swap(self):
        # every pixel constrained: no single addition can block, so a swap
        # (remove one constraint, add its opposite) must be found
        image = bits("10")
        model = RuleModel(1, 2, (RuleLevel.of(ones=[0], zeros=[1]),))
        spec = ImageSpaceSpec(1, 2, "full")
        reference = RuleModel(1, 2, (RuleLevel.of(ones=[1]),))
        updated = update_toward(model, image, spec, reference)
        assert predict(updated, image) == (0,)
        # swapping pixel 1 accepts only "11", which disagrees with the
        # reference on "01" alone; swapping pixel 0 accepts "00" (3 misses)
        assert updated.levels == (RuleLevel.of(ones=[0, 1]),)

    def test_reference_with_other_level_count_rejected(self):
        model = RuleModel(3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[4])))
        reference = RuleModel(3, 3, (RuleLevel.of(ones=[1]),))
        image = with_pixels(9, 0, 4)
        with pytest.raises(InvalidInputError):
            update_toward(model, image, ImageSpaceSpec(3, 3, "full"), reference)

    @pytest.mark.parametrize("spec, index", [
        (ImageSpaceSpec(2, 3, "full"), -1),
        (ImageSpaceSpec(2, 3, "full"), 64),  # its 64 images fill one word
        (ImageSpaceSpec(2, 3, "envelope", ("101010",), 1), 7),  # 7 images
        (ImageSpaceSpec(2, 3, "envelope", ("101010",), 1), 63),  # the word's last padding bit
    ])
    def test_index_outside_the_space_rejected(self, spec, index):
        # a padding bit would otherwise read as the all-zeros image
        model = RuleModel(2, 3, (RuleLevel.of(ones=[0]),))
        space = SpaceRows(spec)
        with pytest.raises(InvalidInputError, match=f"image {index} is not in the space"):
            rule_update(model, index, space.columns, level_label_matrix(model, space))

    @pytest.mark.parametrize("width, height, columns, words, message", [
        # a 2x2 space for a 2x3 model: a blocking edit indexed past the columns
        (2, 3, full_columns(4), 1, "columns have 5 rows, a 6-pixel model needs 7"),
        # a 2x3 space for a 2x2 model: the image would be read from the wrong grid
        (2, 2, full_columns(6), 1, "columns have 7 rows, a 4-pixel model needs 5"),
        # reference labels over another space's words: a broadcast failure
        (2, 2, full_columns(4), 5, "reference labels have 5 words, columns have 1"),
    ], ids=["columns_of_a_smaller_grid", "columns_of_a_larger_grid", "reference_of_more_words"])
    def test_packed_inputs_of_the_wrong_shape_rejected(self, width, height, columns, words, message):
        # image 8 has pixel 0 set, so the model labels it 1 and the all-zeros
        # reference makes the level block it
        model = RuleModel(width, height, (RuleLevel.of(ones=[0]),))
        reference = np.zeros((1, words), dtype=np.uint64)
        with pytest.raises(InvalidInputError, match=message):
            rule_update(model, 8, columns, reference)

    def test_four_updates_reach_full_envelope_agreement(self):
        current = self.model_a
        disagreements = [
            img
            for img in space_matrix(self.space)
            if predict(current, img) != predict(self.model_b, img)
        ]
        assert len(disagreements) == 4
        for img in disagreements:
            if predict(current, img) != predict(self.model_b, img):
                current = update_toward(current, img, self.space, self.model_b)
        for img in space_matrix(self.space):
            assert predict(current, img) == predict(self.model_b, img)


class TestTrainLinear:
    def one_pixel_dataset(self):
        return training_set(2, 2, ("1000", 1), ("0000", 0))

    def test_single_example_learned(self):
        dataset = training_set(2, 2, ("1010", 1))
        model = train_linear(*dataset, epochs=5, rng_seed=0)
        assert predict(model, bits("1010"))[-1] == 1

    def test_separable_data_reaches_full_accuracy(self):
        from diaginterp.fixtures import build_fixture

        fx = build_fixture("eval-squares", seed=0)
        assert training_accuracy(fx.model_a, *fx.base_dataset) == 1.0

    def test_same_seed_identical_weights(self):
        dataset = self.one_pixel_dataset()
        m1 = train_linear(*dataset, epochs=10, rng_seed=42)
        m2 = train_linear(*dataset, epochs=10, rng_seed=42)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidConfigError):
            train_linear(np.zeros((0, 4)), np.zeros(0), 2, 2, epochs=1, rng_seed=0)

    def test_label_scale_invariance(self):
        model = train_linear(*self.one_pixel_dataset(), 20, rng_seed=1)
        space = space_matrix(ImageSpaceSpec(2, 2, "full"))
        for factor in (0.5, 2.0, 10.0):
            scaled = LinearModel(2, 2, model.weights * factor, model.bias * factor)
            for img in space:
                assert predict(scaled, img) == predict(model, img)


class TestLinearUpdate:
    def test_no_queries_equals_plain_training(self):
        X, y, _, _ = training_set(2, 2, ("1100", 1), ("0011", 0))
        base = train_linear(X, y, 2, 2, epochs=10, rng_seed=9)
        updated = linear_update(base, X, y, epochs=10, rng_seed=9)
        assert np.array_equal(base.weights, updated.weights)
        assert base.bias == updated.bias

    def test_repeated_query_keeps_dimensions(self):
        X, y, _, _ = training_set(2, 2, ("1100", 1), ("0011", 0), *[("1110", 1)] * 3)
        base = train_linear(X[:2], y[:2], 2, 2, epochs=5, rng_seed=0)
        updated = linear_update(base, X, y, epochs=5, rng_seed=0)
        assert updated.weights.shape == base.weights.shape


class TestTrainNeural:
    def test_gradient_check_three_parameter_net(self):
        # single sigmoid unit over two inputs: w1, w2, b -- checked against
        # central finite differences of an independently coded loss
        X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0])
        model = init_neural([2, 1], width=1, height=2, rng_seed=5)
        grads = reference_bce_gradients(model, X, y)

        def loss_at(w, b):
            z = X @ w[:, 0] + b[0]
            p = 1.0 / (1.0 + np.exp(-z))
            return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

        h = 1e-5
        w = model.layers[0].weights.copy()
        b = model.layers[0].bias.copy()
        for i in range(2):
            bump = np.zeros_like(w)
            bump[i, 0] = h
            numeric = (loss_at(w + bump, b) - loss_at(w - bump, b)) / (2 * h)
            rel = abs(numeric - grads[0][0][i, 0]) / max(abs(numeric), 1e-12)
            assert rel < 1e-4
        numeric_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        rel = abs(numeric_b - grads[0][1][0]) / max(abs(numeric_b), 1e-12)
        assert rel < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_check_every_layer(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(6, 4)).astype(float)
        y = rng.integers(0, 2, size=6).astype(float)
        model = init_neural([4, 3, 1], width=2, height=2, rng_seed=seed)
        grads = reference_bce_gradients(model, X, y)
        h = 1e-5
        for k, layer in enumerate(model.layers):
            for index in np.ndindex(layer.weights.shape):
                up = _perturbed(model, k, index, h)
                down = _perturbed(model, k, index, -h)
                numeric = (bce_loss(up, X, y) - bce_loss(down, X, y)) / (2 * h)
                analytic = grads[k][0][index]
                assert abs(numeric - analytic) / max(abs(numeric), 1e-8) < 1e-4

    def test_loss_non_increasing_on_constant_labels(self):
        rng = np.random.default_rng(0)
        X = np.array([rng.integers(0, 2, 4) for _ in range(8)], dtype=float)
        y = np.ones(len(X))
        losses = []
        for epochs in range(1, 101, 10):
            model = train_neural(X, y, 2, 2, [4, 3, 1], epochs, 0.01, rng_seed=4)
            losses.append(bce_loss(model, X, y))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_same_seed_identical_parameters(self):
        dataset = training_set(2, 2, ("1100", 1), ("0011", 0))
        m1 = train_neural(*dataset, [4, 3, 1], 50, 0.5, rng_seed=8)
        m2 = train_neural(*dataset, [4, 3, 1], 50, 0.5, rng_seed=8)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)

    def test_bad_architecture_rejected(self):
        dataset = training_set(2, 2, ("1100", 1))
        with pytest.raises(InvalidConfigError):
            train_neural(*dataset, [4, 3, 2], 1, 0.1, 0)  # output not single
        with pytest.raises(InvalidConfigError):
            train_neural(*dataset, [5, 1], 1, 0.1, 0)  # input mismatch

    @pytest.mark.parametrize("epochs", [0, -5])
    def test_epochs_below_1_rejected_like_the_perceptron(self, epochs):
        dataset = training_set(2, 2, ("1100", 1), ("0011", 0))
        with pytest.raises(InvalidConfigError, match=f"epochs must be >= 1, got {epochs}"):
            train_neural(*dataset, [4, 3, 1], epochs, 0.1, 0)
        with pytest.raises(InvalidConfigError, match=f"epochs must be >= 1, got {epochs}"):
            train_linear(*dataset, epochs, 0)


def _perturbed(model: NeuralModel, layer_index: int, weight_index, delta: float):
    layers = []
    for k, layer in enumerate(model.layers):
        weights = layer.weights.copy()
        if k == layer_index:
            weights[weight_index] += delta
        layers.append(type(layer)(weights, layer.bias.copy(), layer.activation))
    return NeuralModel(model.width, model.height, tuple(layers))


class TestTrainingAccuracy:
    def test_share_of_matching_diagnosis_labels(self):
        model = RuleModel(2, 1, (RuleLevel.of(ones=[0]),))
        X, y, _, _ = training_set(2, 1, ("10", 1), ("11", 1), ("01", 1), ("00", 0))
        assert training_accuracy(model, X, y) == 0.75

    def test_rejects_what_training_rejects(self):
        model = RuleModel(2, 1, (RuleLevel.of(ones=[0]),))
        # no rows, a label of 2, and a row of another grid's size
        for X, y in ((np.zeros((0, 2)), np.zeros(0)), ([[1, 0]], [2]), ([[1, 0, 0]], [1])):
            with pytest.raises(InvalidConfigError):
                training_accuracy(model, X, y)


class TestScoreBound:
    # Float64's largest finite value is about 1.797e308.
    def test_linear_model_needs_a_finite_sum_of_magnitudes(self):
        LinearModel(2, 2, [4e307, -4e307, 4e307, -4e307], 1e307)  # 1.7e308
        with pytest.raises(InvalidSpecError, match=r"sum \|w\| \+ \|b\| is inf"):
            LinearModel(2, 2, [4e307, -4e307, 4e307, -4e307], 2e307)  # 1.8e308

    @pytest.mark.parametrize("hidden, accepted", [("sigmoid", True), ("relu", False)])
    def test_net_bound_passes_through_relus_and_restarts_after_sigmoids(self, hidden, accepted):
        # the hidden unit's score is at most 1.6e308; a sigmoid squashes it
        # below 1 and a relu passes it on, to an output score of 3.2e308
        layers = (
            NeuralLayer(np.full((4, 1), 4e307), np.zeros(1), hidden),
            NeuralLayer(np.array([[2.0]]), np.zeros(1), "sigmoid"),
        )
        if accepted:
            NeuralModel(2, 2, layers)
        else:
            with pytest.raises(InvalidSpecError, match="scores are unbounded"):
                NeuralModel(2, 2, layers)


def malformed_neural_doc(defect):
    """A 2x2 net's JSON document, 4 -> 3 relu -> 1 sigmoid, with one defect."""
    doc = model_to_json(init_neural([4, 3, 1], 2, 2, rng_seed=0))
    hidden, output = doc["layers"]
    if defect == "non_finite_weight":
        hidden["weights"][1][2] = float("nan")
    elif defect == "non_finite_bias":
        output["bias"][0] = float("inf")
    elif defect == "weights_not_2d":
        output["weights"] = [row[0] for row in output["weights"]]
    elif defect == "fan_in_does_not_chain":
        output["weights"].append([0.5])
    elif defect == "bias_shape":
        hidden["bias"].append(0.0)
    elif defect == "unknown_activation":
        hidden["activation"] = "tanh"
    elif defect == "final_layer_relu":
        output["activation"] = "relu"
    elif defect == "final_layer_two_units":
        output["weights"] = [row * 2 for row in output["weights"]]
        output["bias"] = output["bias"] * 2
    elif defect == "ragged_weights":
        hidden["weights"][2].pop()
    elif defect == "non_numeric_weight":
        hidden["weights"][0][1] = "x"
    elif defect == "non_numeric_bias":
        hidden["bias"][0] = "x"
    return doc


NEURAL_DEFECTS = [
    "non_finite_weight", "non_finite_bias", "weights_not_2d", "fan_in_does_not_chain",
    "bias_shape", "unknown_activation", "final_layer_relu", "final_layer_two_units",
    "ragged_weights", "non_numeric_weight", "non_numeric_bias",
]


class TestSerialization:
    def test_rule_round_trip_lossless(self):
        model = RuleModel(
            3, 3, (RuleLevel.of(ones=[0, 4]), RuleLevel.of(ones=[2], zeros=[6]))
        )
        assert model_from_json(model_to_json(model)) == model

    def test_linear_round_trip_bit_identical(self):
        model = LinearModel(2, 2, [0.3, -0.1, 1 / 3, 0.0], 0.1 + 0.2)
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias

    def test_neural_round_trip_bit_identical(self):
        model = init_neural([4, 3, 1], width=2, height=2, rng_seed=12)
        back = model_from_json(model_to_json(model))
        for l1, l2 in zip(model.layers, back.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)
            assert l1.activation == l2.activation

    @pytest.mark.parametrize("defect", NEURAL_DEFECTS)
    def test_malformed_neural_document_rejected(self, defect):
        with pytest.raises(InvalidSpecError):
            model_from_json(malformed_neural_doc(defect))

    @pytest.mark.parametrize("weights, bias", [
        ([0.5, "x", 1.0, 0.0], 0.0),
        ([0.5, [1.0], 1.0, 0.0], 0.0),
        ([0.5, 1.0, 1.0, 0.0], "x"),
    ])
    def test_malformed_linear_document_rejected(self, weights, bias):
        doc = {"kind": "linear", "width": 2, "height": 2, "weights": weights, "bias": bias}
        with pytest.raises(InvalidSpecError):
            model_from_json(doc)

    def test_json_ints_read_as_float_parameters(self):
        ints = {"kind": "linear", "width": 2, "height": 2, "weights": [1, 0, 0, -1], "bias": 0}
        model = model_from_json(ints)
        assert model.weights.tolist() == [1.0, 0.0, 0.0, -1.0] and model.bias == 0.0
        net = model_to_json(init_neural([4, 3, 1], 2, 2, rng_seed=0))
        net["layers"][1]["bias"] = [1]
        assert model_from_json(net).layers[1].bias.tolist() == [1.0]

    @pytest.mark.parametrize("key", ["ones_required", "zeros_required"])
    @pytest.mark.parametrize("index", [1.5, 1.0, True, False, "1", None])
    def test_non_integer_rule_pixel_rejected(self, key, index):
        level = {"ones_required": [], "zeros_required": []}
        level[key] = [index]
        doc = {"kind": "rule", "width": 2, "height": 2, "levels": [level]}
        with pytest.raises(InvalidSpecError, match="is not an integer"):
            model_from_json(doc)

    def test_numpy_integer_rule_pixels_accepted(self):
        model = RuleModel(2, 2, (RuleLevel.of(ones=[np.int64(0)], zeros=[np.uint8(3)]),))
        assert predict(model, bits("1000")) == (1,)
        assert predict(model, bits("1001")) == (0,)

    def test_num_levels(self):
        assert num_levels(diagonal_rule()) == 1
        assert num_levels(init_neural([4, 1], 2, 2, 0)) == 1
