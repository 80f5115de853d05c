import numpy as np
import pytest

from diaginterp.errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidSpecError,
)
from diaginterp.imagespace import BinaryImage, ImageSpaceSpec, enumerate_space, space_matrix
from diaginterp.models import (
    LinearModel,
    NeuralModel,
    RuleLevel,
    RuleModel,
    bce_gradients,
    bce_loss,
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

MAIN_DIAGONAL = BinaryImage.from_pixels(4, 4, [0, 5, 10, 15])
ANTI_DIAGONAL = BinaryImage.from_pixels(4, 4, [3, 6, 9, 12])


def diagonal_rule():
    return RuleModel(4, 4, (RuleLevel.of(ones=[0, 5, 10, 15]),))


def update_toward(model, image, target, spec, reference):
    """rule_update scored against ``reference`` over the space ``spec``."""
    matrix = space_matrix(spec)
    return rule_update(model, image, target, matrix, level_label_matrix(reference, matrix))


class TestPredict:
    def test_diagonal_rule_accepts_diagonal(self):
        assert predict(diagonal_rule(), MAIN_DIAGONAL) == (1,)

    def test_diagonal_rule_rejects_anti_diagonal(self):
        assert predict(diagonal_rule(), ANTI_DIAGONAL) == (0,)

    def test_empty_level_predicts_one_everywhere(self):
        model = RuleModel(2, 2, (RuleLevel.of(),))
        for img in enumerate_space(ImageSpaceSpec(2, 2, "full")):
            assert predict(model, img) == (1,)

    def test_zeros_constraint(self):
        model = RuleModel(2, 2, (RuleLevel.of(zeros=[3]),))
        assert predict(model, BinaryImage.from_string(2, 2, "1110")) == (1,)
        assert predict(model, BinaryImage.from_string(2, 2, "1111")) == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            predict(diagonal_rule(), BinaryImage.from_string(2, 2, "1111"))

    def test_linear_ties_break_to_zero(self):
        model = LinearModel(1, 2, np.array([1.0, -1.0]), 0.0)
        assert predict(model, BinaryImage.from_string(1, 2, "11")) == (0,)
        assert predict(model, BinaryImage.from_string(1, 2, "10")) == (1,)

    def test_overlapping_constraints_rejected(self):
        with pytest.raises(InvalidSpecError):
            RuleLevel.of(ones=[1], zeros=[1])


class TestTopLabel:
    def test_two_level_model_against_direct_recount(self):
        # independent recount of the last level over the full 3x3 space
        model = RuleModel(
            3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[4], zeros=[8]))
        )
        for img in enumerate_space(ImageSpaceSpec(3, 3, "full")):
            expected = 1 if (img.bits[4] == 1 and img.bits[8] == 0) else 0
            assert predict(model, img)[-1] == expected


class TestRuleModelProperties:
    def test_adding_constraints_is_monotone(self):
        rng = np.random.default_rng(3)
        space = enumerate_space(ImageSpaceSpec(3, 3, "full"))
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
        main, anti = MAIN_DIAGONAL, ANTI_DIAGONAL
        self.space = ImageSpaceSpec(4, 4, "envelope", (main, anti), flip_radius=1)
        self.model_a = RuleModel(4, 4, (RuleLevel.of(ones=[0]),))
        self.model_b = diagonal_rule()

    def test_forced_removal_when_target_is_one(self):
        # A requires pixel 5; the queried image lacks it; the only minimal
        # edit is removing that constraint
        model = RuleModel(4, 4, (RuleLevel.of(ones=[0, 5]),))
        image = BinaryImage.from_pixels(4, 4, [0, 10, 15])  # the diagonal less pixel 5
        updated = update_toward(model, image, (1,), self.space, self.model_b)
        assert updated.levels[0] == RuleLevel.of(ones=[0])
        assert predict(updated, image) == (1,)

    def test_blocking_addition_matches_brute_force_argmin(self):
        image = BinaryImage.from_pixels(4, 4, [0, 10, 15])  # A says 1, B says 0
        updated = update_toward(self.model_a, image, (0,), self.space, self.model_b)

        # independent argmin: try every legal single addition, count
        # disagreements with B by looping over the envelope
        space_images = enumerate_space(self.space)
        best = None
        for j in range(16):
            if image.bits[j] == 0:
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
        images = enumerate_space(spec)
        for _ in range(25):
            ones = [int(i) for i in rng.choice(9, rng.integers(0, 3), replace=False)]
            model = RuleModel(3, 3, (RuleLevel.of(ones=ones),))
            reference = RuleModel(3, 3, (RuleLevel.of(ones=[int(rng.integers(0, 9))]),))
            image = images[int(rng.integers(0, len(images)))]
            current = predict(model, image)
            target = (1 - current[0],)
            updated = update_toward(model, image, target, spec, reference)
            assert predict(updated, image) == target

    def test_multi_level_update(self):
        model = RuleModel(
            3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[4]))
        )
        reference = RuleModel(
            3, 3, (RuleLevel.of(ones=[1]), RuleLevel.of(ones=[5]))
        )
        spec = ImageSpaceSpec(3, 3, "full")
        image = BinaryImage.from_pixels(3, 3, [1, 5])
        updated = update_toward(model, image, (1, 1), spec, reference)
        assert predict(updated, image) == (1, 1)

    def test_fully_pinned_level_uses_swap(self):
        # every pixel constrained: no single addition can block, so a swap
        # (remove one constraint, add its opposite) must be found
        image = BinaryImage.from_string(1, 2, "10")
        model = RuleModel(1, 2, (RuleLevel.of(ones=[0], zeros=[1]),))
        spec = ImageSpaceSpec(1, 2, "full")
        reference = RuleModel(1, 2, (RuleLevel.of(ones=[1]),))
        updated = update_toward(model, image, (0,), spec, reference)
        assert predict(updated, image) == (0,)
        # swapping pixel 1 accepts only "11", which disagrees with the
        # reference on "01" alone; swapping pixel 0 accepts "00" (3 misses)
        assert updated.levels == (RuleLevel.of(ones=[0, 1]),)

    def test_reference_with_other_level_count_rejected(self):
        model = RuleModel(3, 3, (RuleLevel.of(ones=[0]), RuleLevel.of(ones=[4])))
        reference = RuleModel(3, 3, (RuleLevel.of(ones=[1]),))
        image = BinaryImage.from_pixels(3, 3, [0, 4])
        with pytest.raises(InvalidInputError):
            update_toward(model, image, (1, 0), ImageSpaceSpec(3, 3, "full"), reference)

    def test_four_updates_reach_full_envelope_agreement(self):
        current = self.model_a
        disagreements = [
            img
            for img in enumerate_space(self.space)
            if predict(current, img) != predict(self.model_b, img)
        ]
        assert len(disagreements) == 4
        for img in disagreements:
            if predict(current, img) != predict(self.model_b, img):
                current = update_toward(
                    current, img, predict(self.model_b, img), self.space, self.model_b
                )
        for img in enumerate_space(self.space):
            assert predict(current, img) == predict(self.model_b, img)


class TestTrainLinear:
    def one_pixel_dataset(self):
        return [
            (BinaryImage.from_string(2, 2, "1000"), 1),
            (BinaryImage.from_string(2, 2, "0000"), 0),
        ]

    def test_single_example_learned(self):
        dataset = [(BinaryImage.from_string(2, 2, "1010"), 1)]
        model = train_linear(dataset, epochs=5, learning_rate=1.0, rng_seed=0)
        assert predict(model, dataset[0][0])[-1] == 1

    def test_separable_data_reaches_full_accuracy(self):
        from diaginterp.fixtures import build_fixture

        fx = build_fixture("eval-squares", seed=0)
        assert fx.known_model_train_accuracy == 1.0

    def test_same_seed_identical_weights(self):
        dataset = self.one_pixel_dataset()
        m1 = train_linear(dataset, epochs=10, learning_rate=0.5, rng_seed=42)
        m2 = train_linear(dataset, epochs=10, learning_rate=0.5, rng_seed=42)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidConfigError):
            train_linear([], epochs=1, learning_rate=1.0, rng_seed=0)

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(InvalidConfigError):
            train_linear(self.one_pixel_dataset(), 1, float("nan"), 0)
        with pytest.raises(InvalidConfigError):
            train_linear(self.one_pixel_dataset(), 1, -1.0, 0)

    def test_label_scale_invariance(self):
        model = train_linear(self.one_pixel_dataset(), 20, 1.0, rng_seed=1)
        space = enumerate_space(ImageSpaceSpec(2, 2, "full"))
        for factor in (0.5, 2.0, 10.0):
            scaled = LinearModel(2, 2, model.weights * factor, model.bias * factor)
            for img in space:
                assert predict(scaled, img) == predict(model, img)


class TestLinearUpdate:
    def test_no_queries_equals_plain_training(self):
        dataset = [
            (BinaryImage.from_string(2, 2, "1100"), 1),
            (BinaryImage.from_string(2, 2, "0011"), 0),
        ]
        base = train_linear(dataset, epochs=10, learning_rate=1.0, rng_seed=9)
        updated = linear_update(base, dataset, [], epochs=10, learning_rate=1.0, rng_seed=9)
        assert np.array_equal(base.weights, updated.weights)
        assert base.bias == updated.bias

    def test_repeated_query_keeps_dimensions(self):
        dataset = [
            (BinaryImage.from_string(2, 2, "1100"), 1),
            (BinaryImage.from_string(2, 2, "0011"), 0),
        ]
        base = train_linear(dataset, epochs=5, learning_rate=1.0, rng_seed=0)
        query = (BinaryImage.from_string(2, 2, "1110"), 1)
        updated = linear_update(
            base, dataset, [query, query, query], epochs=5, learning_rate=1.0, rng_seed=0
        )
        assert updated.weights.shape == base.weights.shape


class TestTrainNeural:
    def test_gradient_check_three_parameter_net(self):
        # single sigmoid unit over two inputs: w1, w2, b -- checked against
        # central finite differences of an independently coded loss
        X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0])
        model = init_neural([2, 1], width=1, height=2, rng_seed=5)
        grads = bce_gradients(model, X, y)

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

    @pytest.mark.parametrize("hidden_activation", ["sigmoid", "relu"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_check_every_layer(self, hidden_activation, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(6, 4)).astype(float)
        y = rng.integers(0, 2, size=6).astype(float)
        model = init_neural(
            [4, 3, 1], width=2, height=2, rng_seed=seed, hidden_activation=hidden_activation
        )
        grads = bce_gradients(model, X, y)
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
        images = [
            BinaryImage(2, 2, tuple(int(b) for b in rng.integers(0, 2, 4)))
            for _ in range(8)
        ]
        dataset = [(img, 1) for img in images]
        X = np.array([img.bits for img in images], dtype=float)
        y = np.ones(len(images))
        losses = []
        for epochs in range(1, 101, 10):
            model = train_neural(dataset, [4, 3, 1], epochs, 0.01, rng_seed=4)
            losses.append(bce_loss(model, X, y))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_same_seed_identical_parameters(self):
        dataset = [
            (BinaryImage.from_string(2, 2, "1100"), 1),
            (BinaryImage.from_string(2, 2, "0011"), 0),
        ]
        m1 = train_neural(dataset, [4, 3, 1], 50, 0.5, rng_seed=8)
        m2 = train_neural(dataset, [4, 3, 1], 50, 0.5, rng_seed=8)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)

    def test_bad_architecture_rejected(self):
        dataset = [(BinaryImage.from_string(2, 2, "1100"), 1)]
        with pytest.raises(InvalidConfigError):
            train_neural(dataset, [4, 3, 2], 1, 0.1, 0)  # output not single
        with pytest.raises(InvalidConfigError):
            train_neural(dataset, [5, 1], 1, 0.1, 0)  # input mismatch


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
        dataset = [
            (BinaryImage.from_string(2, 1, "10"), 1),
            (BinaryImage.from_string(2, 1, "11"), 1),
            (BinaryImage.from_string(2, 1, "01"), 1),
            (BinaryImage.from_string(2, 1, "00"), 0),
        ]
        assert training_accuracy(model, dataset) == 0.75

    def test_rejects_what_training_rejects(self):
        model = RuleModel(2, 1, (RuleLevel.of(ones=[0]),))
        image = BinaryImage.from_string(2, 1, "10")
        for dataset in ([], [(image, 2)], [(image, 1), (BinaryImage.from_string(1, 2, "10"), 0)]):
            with pytest.raises(InvalidConfigError):
                training_accuracy(model, dataset)


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
        model = train_linear(
            [(BinaryImage.from_string(2, 2, "1010"), 1)], 5, 0.3, rng_seed=0
        )
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

    def test_num_levels(self):
        assert num_levels(diagonal_rule()) == 1
        assert num_levels(init_neural([4, 1], 2, 2, 0)) == 1
