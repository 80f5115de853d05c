"""The trainers against reference copies of their per-example and per-epoch
loops.

``reference_train_linear`` is the perceptron as a per-example float loop:
one score per visited example, with the weights moved by
``learning_rate * (label - prediction)`` at every mistake. Whenever every
integer multiple of the rate is exact in float64 (1.0, 0.5, 2.0, 3.0, ...)
that loop is itself exact, and the rate times ``train_linear``'s integer
counts must equal it bit for bit. A retrain run's report, which the rate
cannot change, must then be the same at any rate but for the echoed rate.

``reference_train_neural`` is full-batch gradient descent that builds a
validated ``NeuralModel`` every epoch and takes its gradients,
``reference_bce_gradients``, from a forward pass that keeps the
pre-activations, with the logistic function in its two-branch form;
``train_neural`` must equal it bit for bit, on random small relu nets and at
the eval-squares fixture's 64-16-1 shape. ``bce_loss`` is the loss those
gradients descend, which the numeric gradient checks differentiate.

The properties are derandomized and keep no example database, so every run
checks the same examples.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diaginterp import models
from diaginterp.cli import main
from diaginterp.engine import EngineConfig, config_to_json
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import ImageSpaceSpec
from diaginterp.models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    _sigmoid,
    init_neural,
    neural_forward,
    train_linear,
    train_neural,
)
from test_properties import random_model

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def reference_train_linear(X, y, width, height, epochs, learning_rate, rng_seed):
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(rng_seed)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    for _ in range(epochs):
        mistakes = 0
        for idx in rng.permutation(len(X)):
            pred = 1.0 if X[idx] @ w + b > 0.0 else 0.0
            if pred != y[idx]:
                step = learning_rate * (y[idx] - pred)
                w += step * X[idx]
                b += step
                mistakes += 1
        if mistakes == 0:
            break
    return w, b


def reference_sigmoid(z):
    # the two-branch form, on the entries each branch selects
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_forward_trace(model, X):
    activations = [X]
    pre = []
    a = X
    for layer in model.layers:
        z = a @ layer.weights + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else reference_sigmoid(z)
        pre.append(z)
        activations.append(a)
    return pre, activations


def bce_loss(model, X, y):
    p = np.clip(neural_forward(model, X), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def reference_bce_gradients(model, X, y):
    # bce_loss's gradients, one (dW, db) pair per layer, for relu hidden layers
    n = X.shape[0]
    pre, activations = _reference_forward_trace(model, X)
    delta = (activations[-1][:, 0] - y)[:, None] / n
    grads = []
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        grads.append((activations[k].T @ delta, delta.sum(axis=0)))
        if k > 0:
            delta = delta @ layer.weights.T * (pre[k - 1] > 0.0)
    grads.reverse()
    return grads


def reference_train_neural(X, y, width, height, architecture, epochs, learning_rate, rng_seed):
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    model = init_neural(architecture, width, height, rng_seed)
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
    """Random rows and labels on a grid of up to max_side x max_side, as
    (rows, labels, width, height). Labels
    are drawn independently of the rows, and a few rows are repeated with the
    opposite label, so most datasets are inseparable."""
    width, height = int(rng.integers(1, max_side + 1)), int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_examples + 1))
    rows = (rng.random((n, width * height)) < rng.random()).astype(np.uint8)
    labels = rng.integers(0, 2, n)
    flipped = rng.integers(0, n, int(rng.integers(0, 3)))
    rows = np.vstack([rows, rows[flipped]])
    labels = np.concatenate([labels, 1 - labels[flipped]])
    return rows, labels, width, height


def exact_bits(a, b) -> bool:
    """Equal values and equal signs of zero, element by element."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from([1.0, 0.5, 2.0, 3.0]), st.integers(min_value=1, max_value=50))
def test_train_linear_equals_the_per_example_loop(seed, rate, epochs):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng)
    model = train_linear(*dataset, epochs, rng_seed=seed)
    w, b = reference_train_linear(*dataset, epochs, rate, rng_seed=seed)
    assert exact_bits(rate * model.weights, w)
    assert exact_bits(rate * model.bias, b)


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_train_linear_equals_the_per_example_loop_on_larger_sets(noise):
    # 800 examples: long clean stretches grow the scan's blocks well past
    # their first size, and 30% flipped labels make most visits mistakes.
    rng = np.random.default_rng(11)
    rows = (rng.random((800, 64)) < 0.3).astype(np.uint8)
    scores = rows @ rng.normal(size=64)
    labels = (scores > np.median(scores)) ^ (rng.random(800) < noise)
    dataset = rows, labels.astype(np.uint8), 8, 8
    model = train_linear(*dataset, 12, rng_seed=5)
    w, b = reference_train_linear(*dataset, 12, 1.0, rng_seed=5)
    assert exact_bits(model.weights, w)
    assert exact_bits(model.bias, b)


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_train_linear_over_the_gram_budget_equals_the_per_example_loop(noise, monkeypatch):
    # The 800-example Gram matrix takes 8 * 800^2 bytes, one more than this
    # budget, so every mistake computes its Gram row from the signed rows.
    monkeypatch.setattr(models, "MATERIALIZE_BYTE_LIMIT", 8 * 800**2 - 1)
    test_train_linear_equals_the_per_example_loop_on_larger_sets(noise)


def retrain_run_spec(seed: int, rate: float) -> dict:
    """A run spec over the full space of a random grid of up to 3x3: a
    zero-weight perceptron, retrained for 20 epochs on a random base dataset
    plus its queries, against a random one-level black box, at ``rate``."""
    rng = np.random.default_rng(seed)
    rows, labels, width, height = random_dataset(rng, max_side=3, max_examples=12)
    return config_to_json(EngineConfig(
        space=ImageSpaceSpec(width, height, "full"),
        model_a=LinearModel(width, height, np.zeros(width * height), 0.0),
        model_b=random_model(rng, width, height, 1),
        base_dataset=(rows, labels),
        max_queries=10, stall_patience=10, rng_seed=seed, retrain_epochs=20,
        retrain_learning_rate=rate,
    ))


@pytest.mark.parametrize("seed", range(12))
def test_retrain_reports_do_not_depend_on_the_rate(tmp_path, seed):
    # Weights scaled by 0.1 round some integer scores of exactly 0 above 0, so
    # a perceptron whose weights were rate times its counts labelled, queried
    # and reported differently at 0.1 on seeds 0, 5, 7, 9 and 10 here.
    reports = []
    for rate in (0.1, 1.0):
        spec_path, out = tmp_path / f"run-{rate}.json", tmp_path / f"out-{rate}"
        spec_path.write_text(json.dumps(retrain_run_spec(seed, rate)))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_text())
    echoed = '"retrain_learning_rate": 0.1,'
    assert reports[0].count(echoed) == 1
    assert reports[0].replace(echoed, '"retrain_learning_rate": 1.0,') == reports[1]


@functools.cache
def eval_squares_dataset():
    """The eval-squares fixture's 200-example 8x8 training set."""
    return (*build_fixture("eval-squares", 0).base_dataset, 8, 8)


def neural_case(rng, eval_squares):
    """A dataset and an architecture: a random one on a grid of up to 4x4
    with 1-2 hidden layers of 1-5 units, or the eval-squares 64-16-1 net on
    its fixture's dataset."""
    if eval_squares:
        return eval_squares_dataset(), [64, 16, 1]
    dataset = random_dataset(rng, max_side=4, max_examples=30)
    pixels = dataset[2] * dataset[3]
    return dataset, [pixels, *rng.integers(1, 6, int(rng.integers(1, 3))).tolist(), 1]


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(seed=SEEDS, eval_squares=st.just(False))
@example(seed=0, eval_squares=True)
def test_train_neural_equals_the_per_epoch_loop(seed, eval_squares):
    rng = np.random.default_rng(seed)
    dataset, architecture = neural_case(rng, eval_squares)
    epochs = 100 if eval_squares else int(rng.integers(1, 40))
    rate = 0.5 if eval_squares else float(rng.choice([0.05, 0.5, 1.3]))
    model = train_neural(*dataset, architecture, epochs, rate, [seed, 1])
    reference = reference_train_neural(*dataset, architecture, epochs, rate, [seed, 1])
    assert len(model.layers) == len(reference.layers)
    for layer, ref in zip(model.layers, reference.layers):
        assert layer.activation == ref.activation
        assert exact_bits(layer.weights, ref.weights)
        assert exact_bits(layer.bias, ref.bias)


def test_sigmoid_writes_the_two_branch_form_over_its_input():
    z = np.concatenate([
        np.random.default_rng(0).normal(scale=40.0, size=2000),
        [0.0, -0.0, 36.8, -36.8, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf],
    ])
    expected = reference_sigmoid(z)
    assert _sigmoid(z) is z
    assert exact_bits(z, expected)
