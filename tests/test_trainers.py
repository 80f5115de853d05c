"""The trainers against reference copies of their per-example and per-epoch
loops.

``reference_train_linear`` is the perceptron as a per-example float loop:
one score per visited example, with the weights moved by
``learning_rate * (label - prediction)`` at every mistake. Whenever every
integer multiple of the rate is exact in float64 (1.0, 0.5, 2.0, 3.0, ...)
that loop is itself exact, and ``train_linear`` must equal it bit for bit.

``reference_train_neural`` is full-batch gradient descent that builds a
validated ``NeuralModel`` every epoch and takes its gradients from a forward
pass that keeps the pre-activations; ``train_neural`` must equal it bit for
bit.

The properties are derandomized and keep no example database, so every run
checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diaginterp import models
from diaginterp.imagespace import BinaryImage
from diaginterp.models import (
    NeuralLayer,
    NeuralModel,
    _dataset_arrays,
    _sigmoid,
    bce_gradients,
    init_neural,
    level_label_matrix,
    train_linear,
    train_neural,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def reference_train_linear(dataset, epochs, learning_rate, rng_seed):
    X, y, width, height = _dataset_arrays(dataset)
    rng = np.random.default_rng(rng_seed)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    for _ in range(epochs):
        mistakes = 0
        for idx in rng.permutation(len(dataset)):
            pred = 1.0 if X[idx] @ w + b > 0.0 else 0.0
            if pred != y[idx]:
                step = learning_rate * (y[idx] - pred)
                w += step * X[idx]
                b += step
                mistakes += 1
        if mistakes == 0:
            break
    return w, b


def _reference_forward_trace(model, X):
    activations = [X]
    pre = []
    a = X
    for layer in model.layers:
        z = a @ layer.weights + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else _sigmoid(z)
        pre.append(z)
        activations.append(a)
    return pre, activations


def reference_bce_gradients(model, X, y):
    n = X.shape[0]
    pre, activations = _reference_forward_trace(model, X)
    delta = (activations[-1][:, 0] - y)[:, None] / n
    grads = []
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        grads.append((activations[k].T @ delta, delta.sum(axis=0)))
        if k > 0:
            delta = delta @ layer.weights.T
            prev = model.layers[k - 1]
            if prev.activation == "relu":
                delta = delta * (pre[k - 1] > 0.0)
            else:
                s = _sigmoid(pre[k - 1])
                delta = delta * s * (1.0 - s)
    grads.reverse()
    return grads


def reference_train_neural(dataset, architecture, epochs, learning_rate, rng_seed, hidden_activation):
    X, y, width, height = _dataset_arrays(dataset)
    model = init_neural(architecture, width, height, rng_seed, hidden_activation)
    layers = list(model.layers)
    for _ in range(epochs):
        current = NeuralModel(width, height, tuple(layers))
        grads = reference_bce_gradients(current, X, y)
        layers = [
            NeuralLayer(
                layer.weights - learning_rate * dw,
                layer.bias - learning_rate * db,
                layer.activation,
            )
            for layer, (dw, db) in zip(layers, grads)
        ]
    return NeuralModel(width, height, tuple(layers))


def random_dataset(rng, max_side=8, max_examples=60):
    """Random rows and labels on a grid of up to max_side x max_side. Labels
    are drawn independently of the rows, and a few rows are repeated with the
    opposite label, so most datasets are inseparable."""
    width, height = int(rng.integers(1, max_side + 1)), int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_examples + 1))
    rows = (rng.random((n, width * height)) < rng.random()).astype(np.uint8)
    labels = rng.integers(0, 2, n)
    flipped = rng.integers(0, n, int(rng.integers(0, 3)))
    rows = np.vstack([rows, rows[flipped]])
    labels = np.concatenate([labels, 1 - labels[flipped]])
    return [
        (BinaryImage(width, height, tuple(row.tolist())), int(label))
        for row, label in zip(rows, labels)
    ]


def exact_bits(a, b) -> bool:
    """Equal values and equal signs of zero, element by element."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from([1.0, 0.5, 2.0, 3.0]), st.integers(min_value=1, max_value=50))
def test_train_linear_equals_the_per_example_loop(seed, rate, epochs):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng)
    model = train_linear(dataset, epochs, rate, rng_seed=seed)
    w, b = reference_train_linear(dataset, epochs, rate, rng_seed=seed)
    assert exact_bits(model.weights, w)
    assert exact_bits(model.bias, b)


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_train_linear_equals_the_per_example_loop_on_larger_sets(noise):
    # 800 examples: long clean stretches grow the scan's blocks well past
    # their first size, and 30% flipped labels make most visits mistakes.
    rng = np.random.default_rng(11)
    rows = (rng.random((800, 64)) < 0.3).astype(np.uint8)
    scores = rows @ rng.normal(size=64)
    labels = (scores > np.median(scores)) ^ (rng.random(800) < noise)
    dataset = [
        (BinaryImage(8, 8, tuple(row.tolist())), int(label)) for row, label in zip(rows, labels)
    ]
    model = train_linear(dataset, 12, 1.0, rng_seed=5)
    w, b = reference_train_linear(dataset, 12, 1.0, rng_seed=5)
    assert exact_bits(model.weights, w)
    assert exact_bits(model.bias, b)


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_train_linear_over_the_gram_budget_equals_the_per_example_loop(noise, monkeypatch):
    # The 800-example Gram matrix takes 8 * 800^2 bytes, one more than this
    # budget, so every mistake computes its Gram row from the signed rows.
    monkeypatch.setattr(models, "MATERIALIZE_BYTE_LIMIT", 8 * 800**2 - 1)
    test_train_linear_equals_the_per_example_loop_on_larger_sets(noise)


@PROPERTY_SETTINGS
@given(SEEDS, st.integers(min_value=1, max_value=50))
def test_rate_only_scales_the_weights(seed, epochs):
    # The mistakes, and so the integer counts, do not depend on the rate: at
    # 0.1 the weights are 0.1 times the rate-1.0 ones, and every row whose
    # rate-1.0 score is nonzero keeps its label. A row scoring exactly 0 may
    # round either way once the weights are scaled by 0.1.
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng)
    one = train_linear(dataset, epochs, 1.0, rng_seed=seed)
    tenth = train_linear(dataset, epochs, 0.1, rng_seed=seed)
    assert exact_bits(tenth.weights, 0.1 * one.weights)
    assert exact_bits(tenth.bias, 0.1 * one.bias)
    rows = np.array([img.bits for img, _ in dataset], dtype=np.uint8)
    decided = rows @ one.weights + one.bias != 0.0
    assert np.array_equal(
        level_label_matrix(tenth, rows)[0][decided], level_label_matrix(one, rows)[0][decided]
    )


@pytest.mark.parametrize("hidden_activation", ["relu", "sigmoid"])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(SEEDS)
def test_train_neural_equals_the_per_epoch_loop(hidden_activation, seed):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, max_side=4, max_examples=30)
    pixels = dataset[0][0].num_pixels
    architecture = [pixels, *rng.integers(1, 6, int(rng.integers(1, 3))).tolist(), 1]
    epochs = int(rng.integers(1, 40))
    rate = float(rng.choice([0.05, 0.5, 1.3]))
    model = train_neural(dataset, architecture, epochs, rate, [seed, 1], hidden_activation)
    reference = reference_train_neural(dataset, architecture, epochs, rate, [seed, 1], hidden_activation)
    assert len(model.layers) == len(reference.layers)
    for layer, ref in zip(model.layers, reference.layers):
        assert layer.activation == ref.activation
        assert exact_bits(layer.weights, ref.weights)
        assert exact_bits(layer.bias, ref.bias)


@pytest.mark.parametrize("hidden_activation", ["relu", "sigmoid"])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(SEEDS)
def test_bce_gradients_equal_the_reference_backprop(hidden_activation, seed):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, max_side=4, max_examples=30)
    X, y, width, height = _dataset_arrays(dataset)
    architecture = [width * height, *rng.integers(1, 6, int(rng.integers(1, 3))).tolist(), 1]
    model = init_neural(architecture, width, height, seed, hidden_activation)
    for (dw, db), (ref_dw, ref_db) in zip(
        bce_gradients(model, X, y), reference_bce_gradients(model, X, y)
    ):
        assert exact_bits(dw, ref_dw)
        assert exact_bits(db, ref_db)
