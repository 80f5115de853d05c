"""The model zoo: multi-level rule models, a linear threshold unit, and a
small from-scratch feedforward net.

All three families expose the same prediction surface: a model maps a binary
image to one {0,1} label per abstraction level, with the last level acting as
the diagnosis label. Rule models may have any number of levels; the
real-valued families are single-level.

A net has one forward pass, ``_forward``: labelling, the gradients and the
training epochs all run it. The perceptron keeps integer mistake counts, so
its scores are exact. Real-valued labels take one fixed block of float rows at
a time, never a float copy of the whole space.

Every training routine is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidSpecError,
    UnreachableTargetError,
)
from .imagespace import MATERIALIZE_BYTE_LIMIT, BinaryImage

PredictionVector = tuple[int, ...]

# (image, label) pairs; labels are 0/1 ints.
Dataset = Sequence[tuple[BinaryImage, int]]


@dataclass(frozen=True)
class RuleLevel:
    """One conjunction level: predicts 1 iff every ones_required pixel is 1
    and every zeros_required pixel is 0. An empty level predicts 1 everywhere
    (ignored pixels constrain nothing)."""

    ones_required: frozenset[int]
    zeros_required: frozenset[int]

    def __post_init__(self) -> None:
        overlap = self.ones_required & self.zeros_required
        if overlap:
            raise InvalidSpecError(
                f"pixels {sorted(overlap)} required to be both 1 and 0"
            )

    @classmethod
    def of(cls, ones=(), zeros=()) -> "RuleLevel":
        return cls(frozenset(ones), frozenset(zeros))


@dataclass(frozen=True)
class RuleModel:
    width: int
    height: int
    levels: tuple[RuleLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise InvalidSpecError("a rule model needs at least one level")
        pixels = self.width * self.height
        for level in self.levels:
            for i in level.ones_required | level.zeros_required:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise InvalidSpecError(f"pixel index {i!r} is not an integer")
                if not 0 <= i < pixels:
                    raise InvalidSpecError(f"pixel index {i} outside {pixels}-pixel grid")


def _float_array(values, what: str) -> np.ndarray:
    """A float64 copy of ``values``, which must be a number or a rectangular
    nest of numbers."""
    try:
        return np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidSpecError(f"{what} must be a rectangular array of numbers") from None


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear threshold unit over raw pixels: label 1 iff w.x + b > 0.

    A score of exactly 0 maps to label 0, so prediction is total and
    deterministic.
    """

    width: int
    height: int
    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        # copy, so freezing never touches a caller-owned array
        weights = _float_array(self.weights, "linear weights")
        object.__setattr__(self, "weights", weights)
        try:
            object.__setattr__(self, "bias", float(self.bias))
        except (TypeError, ValueError):
            raise InvalidSpecError("linear bias must be a number") from None
        if weights.shape != (self.width * self.height,):
            raise InvalidSpecError(
                f"expected {self.width * self.height} weights, got shape {weights.shape}"
            )
        if not (np.all(np.isfinite(weights)) and math.isfinite(self.bias)):
            raise InvalidSpecError("linear model parameters must be finite")
        weights.setflags(write=False)


class NeuralLayer(NamedTuple):
    """One dense layer, unchecked; NeuralModel validates its layers."""

    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str  # "relu" | "sigmoid"


@dataclass(frozen=True, eq=False)
class NeuralModel:
    """Feedforward net ending in a single sigmoid unit; label 1 iff the
    output probability exceeds 0.5 (exactly 0.5 maps to 0).

    Its layers are stored as read-only float64 copies of the given arrays."""

    width: int
    height: int
    layers: tuple[NeuralLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise InvalidSpecError("a neural model needs at least one layer")
        layers = []
        fan_in = self.width * self.height
        for weights, bias, activation in self.layers:
            weights = _float_array(weights, "layer weights")
            bias = _float_array(bias, "layer bias")
            if weights.ndim != 2 or bias.shape != (weights.shape[1],):
                raise InvalidSpecError(
                    f"layer shapes do not chain: weights {weights.shape}, bias {bias.shape}"
                )
            if weights.shape[0] != fan_in:
                raise InvalidSpecError(
                    f"layer expects fan-in {weights.shape[0]}, previous gives {fan_in}"
                )
            if activation not in ("relu", "sigmoid"):
                raise InvalidSpecError(f"unknown activation {activation!r}")
            if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
                raise InvalidSpecError("neural parameters must be finite")
            weights.setflags(write=False)
            bias.setflags(write=False)
            layers.append(NeuralLayer(weights, bias, activation))
            fan_in = weights.shape[1]
        object.__setattr__(self, "layers", tuple(layers))
        last = self.layers[-1]
        if last.weights.shape[1] != 1 or last.activation != "sigmoid":
            raise InvalidSpecError("final layer must be a single sigmoid unit")


Model = RuleModel | LinearModel | NeuralModel


def num_levels(model: Model) -> int:
    """Number of abstraction levels K."""
    if isinstance(model, RuleModel):
        return len(model.levels)
    return 1


def _check_image(model: Model, image: BinaryImage) -> None:
    if (image.width, image.height) != (model.width, model.height):
        raise InvalidInputError(
            f"image is {image.width}x{image.height}, model expects "
            f"{model.width}x{model.height}"
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Two-branch form avoids overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(layers: Sequence[NeuralLayer], X: np.ndarray) -> list[np.ndarray]:
    """The net's forward pass over a (n, fan_in) batch: every layer's
    activation, the batch itself first. A relu layer overwrites its
    pre-activation, so the pass holds one (n, fan_out) array fewer."""
    activations = [X]
    for weights, bias, activation in layers:
        z = activations[-1] @ weights
        z += bias
        activations.append(np.maximum(z, 0.0, out=z) if activation == "relu" else _sigmoid(z))
    return activations


def neural_forward(model: NeuralModel, inputs: np.ndarray) -> np.ndarray:
    """Output probabilities for a (n, pixels) batch."""
    return _forward(model.layers, np.asarray(inputs, dtype=np.float64))[-1][:, 0]


# Rows per block when a linear or neural model labels a matrix. 1,024 rows
# measured fastest; 4,096-row blocks made the linear labels twice as slow.
_LABEL_BLOCK = 1024


def _rule_level_labels(level: RuleLevel, matrix: np.ndarray) -> np.ndarray:
    """One rule level's labels over every row of ``matrix``, as booleans."""
    pred = np.ones(matrix.shape[0], dtype=bool)
    if level.ones_required:
        pred &= (matrix[:, sorted(level.ones_required)] == 1).all(axis=1)
    if level.zeros_required:
        pred &= (matrix[:, sorted(level.zeros_required)] == 0).all(axis=1)
    return pred


def level_label_matrix(model: Model, matrix: np.ndarray) -> np.ndarray:
    """Per-level labels for a whole enumerated space; shape (K, n_images).

    A linear or neural model scores one block of _LABEL_BLOCK rows at a time,
    cast to float64, so its working memory does not grow with the space."""
    if isinstance(model, RuleModel):
        out = np.empty((len(model.levels), matrix.shape[0]), dtype=np.uint8)
        for k, level in enumerate(model.levels):
            out[k] = _rule_level_labels(level, matrix)
        return out
    if not isinstance(model, (LinearModel, NeuralModel)):
        raise InvalidInputError(f"unknown model type {type(model).__name__}")
    out = np.empty((1, matrix.shape[0]), dtype=np.uint8)
    for start in range(0, matrix.shape[0], _LABEL_BLOCK):
        block = slice(start, start + _LABEL_BLOCK)
        rows = matrix[block].astype(np.float64)
        if isinstance(model, LinearModel):
            out[0, block] = rows @ model.weights + model.bias > 0.0
        else:
            out[0, block] = neural_forward(model, rows) > 0.5
    return out


def predict(model: Model, image: BinaryImage) -> PredictionVector:
    """Labels at every abstraction level for a single image."""
    _check_image(model, image)
    row = np.array([image.bits], dtype=np.uint8)
    return tuple(level_label_matrix(model, row)[:, 0].tolist())


# ---------------------------------------------------------------------------
# Rule-model update: minimal constraint edits
# ---------------------------------------------------------------------------


def rule_update(
    model: RuleModel,
    image: BinaryImage,
    target: Sequence[int],
    matrix: np.ndarray,
    reference_labels: np.ndarray,
) -> RuleModel:
    """Edit the model so its prediction on ``image`` equals ``target`` at
    every level, using the fewest constraint insertions/removals per level.

    ``matrix`` is the evaluation space (space_matrix) and ``reference_labels``
    the reference's labels over it (level_label_matrix), one row per level of
    ``model``; the caller aligns a reference with another level count.

    For a level that must flip 0 -> 1 the edit is forced: keep only the
    constraints the image meets. A level that must flip 1 -> 0 gets one
    candidate per pixel j: require j to take the value the image lacks. On a
    free pixel that adds a constraint; on a fully pinned level (no pixel
    free) it swaps j's constraint to the other set, a two-edit change.
    Candidates are free pixels, or every pixel when none is free. Each
    candidate is scored by its disagreement with the same level of the
    reference labels, and the lowest score wins, ties going to the lowest
    pixel index.
    """
    if len(target) != len(model.levels):
        raise InvalidInputError(
            f"target has {len(target)} levels, model has {len(model.levels)}"
        )
    if reference_labels.shape[0] != len(model.levels):
        raise InvalidInputError(
            f"reference labels have {reference_labels.shape[0]} levels, "
            f"model has {len(model.levels)}"
        )

    current = predict(model, image)
    bits = image.bits
    new_levels = list(model.levels)
    for k, level in enumerate(model.levels):
        want = int(target[k])
        if current[k] == want:
            continue
        if want == 1:
            new_levels[k] = RuleLevel(
                frozenset(i for i in level.ones_required if bits[i] == 1),
                frozenset(i for i in level.zeros_required if bits[i] == 0),
            )
            continue
        # The image meets every constraint, so candidate j's accepted rows are
        # the rows that differ from the image at j and meet every other
        # constraint: the level's own labels when j is free, and the rows one
        # bit away from the image when every pixel is pinned.
        pinned = level.ones_required | level.zeros_required
        free = [j for j in range(image.num_pixels) if j not in pinned]
        if free:
            allowed = _rule_level_labels(level, matrix)
        else:
            allowed = np.count_nonzero(matrix != np.array(bits, dtype=np.uint8), axis=1) == 1
        ref = reference_labels[k].astype(bool)
        _, j = min(
            (int(np.count_nonzero(((matrix[:, j] != bits[j]) & allowed) != ref)), j)
            for j in free or range(image.num_pixels)
        )
        if bits[j]:
            new_levels[k] = RuleLevel(level.ones_required - {j}, level.zeros_required | {j})
        else:
            new_levels[k] = RuleLevel(level.ones_required | {j}, level.zeros_required - {j})

    updated = RuleModel(model.width, model.height, tuple(new_levels))
    if predict(updated, image) != tuple(int(t) for t in target):
        raise UnreachableTargetError(
            f"no constraint edit reaches target {tuple(target)} on image "
            f"{image.to_string()}"
        )
    return updated


# ---------------------------------------------------------------------------
# Linear model: perceptron training and query-augmented retraining
# ---------------------------------------------------------------------------


def _dataset_arrays(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, int, int]:
    if not dataset:
        raise InvalidConfigError("dataset may not be empty")
    width, height = dataset[0][0].width, dataset[0][0].height
    for img, label in dataset:
        if (img.width, img.height) != (width, height):
            raise InvalidConfigError("dataset images must share one grid size")
        if label not in (0, 1):
            raise InvalidConfigError(f"labels must be 0/1, got {label!r}")
    X = np.array([img.bits for img, _ in dataset], dtype=np.float64)
    y = np.array([label for _, label in dataset], dtype=np.float64)
    return X, y, width, height


def train_linear(
    dataset: Dataset, epochs: int, learning_rate: float, rng_seed
) -> LinearModel:
    """Mistake-driven perceptron training, in exact integer arithmetic.

    Weights start at zero; each epoch visits the dataset in a seeded shuffle
    and, at each misclassified example, adds its row to the weights and 1 to
    the bias (label 1) or subtracts them (label 0). Stops early once an epoch
    is mistake-free (the pass order no longer matters at that point).

    Each row is signed by its label, so every update adds a signed row, and
    the weights are the mistake counts times the signed rows. The scan runs
    in the dual form: it keeps every example's score, and a mistake at i adds
    row i of the Gram matrix ``signed @ signed.T`` to the scores. Rows are
    0/1, so every Gram entry, score and count is an integer, exact in float64
    under any summation order while it stays below 2^53 in magnitude; the
    mistakes, and so the weights, equal the per-example loop's bit for bit.
    Which examples are mistakes does not depend on ``learning_rate``: it only
    scales the returned weights and bias.

    The Gram matrix takes 8 n^2 bytes; above MATERIALIZE_BYTE_LIMIT (about
    5,800 examples) each mistake computes its row from the signed rows
    instead, so memory stays O(n * pixels).
    """
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise InvalidConfigError(f"learning rate must be a positive finite real, got {learning_rate}")
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be >= 1, got {epochs}")
    X, y, width, height = _dataset_arrays(dataset)
    n = len(X)
    # A column of ones carries the bias: the last count is the bias count.
    signed = np.hstack([X, np.ones((n, 1))]) * (2.0 * y - 1.0)[:, None]
    # A label-1 example is a mistake at a signed score <= 0, a label-0 one at
    # a signed score < 0, which for an integer score is <= -0.5.
    limit = np.where(y == 1.0, 0.0, -0.5).tolist()
    gram = signed @ signed.T if 8 * n * n <= MATERIALIZE_BYTE_LIMIT else None
    rng = np.random.default_rng(rng_seed)
    scores, mistakes = np.zeros(n), [0] * n
    view = scores.data  # reads one score as a Python float
    for _ in range(epochs):
        clean = True
        for i in rng.permutation(n).tolist():
            if view[i] <= limit[i]:
                scores += signed @ signed[i] if gram is None else gram[i]
                mistakes[i] += 1
                clean = False
        if clean:
            break
    # + 0.0 turns a sum of -0.0 terms into the +0.0 the weights start at
    counts = np.array(mistakes, dtype=np.float64) @ signed + 0.0
    return LinearModel(width, height, learning_rate * counts[:-1], learning_rate * counts[-1])


def linear_update(
    model: LinearModel,
    base_dataset: Dataset,
    queries: Dataset,
    epochs: int,
    learning_rate: float,
    rng_seed,
) -> LinearModel:
    """Retrain from scratch on base_dataset followed by the queried examples.

    Queries carry the black box's labels; duplicates are kept. With no
    queries this is exactly train_linear on the base set.
    """
    combined = list(base_dataset) + list(queries)
    updated = train_linear(combined, epochs, learning_rate, rng_seed)
    if (updated.width, updated.height) != (model.width, model.height):
        raise InvalidConfigError("query images do not match the model's grid")
    return updated


# ---------------------------------------------------------------------------
# Neural model: Glorot init, full-batch gradient descent on cross-entropy
# ---------------------------------------------------------------------------


def init_neural(
    architecture: Sequence[int],
    width: int,
    height: int,
    rng_seed,
    hidden_activation: str = "relu",
) -> NeuralModel:
    """Fresh net with uniform(-r, r) weights, r = sqrt(6/(fan_in+fan_out)),
    and zero biases."""
    sizes = [int(s) for s in architecture]
    if len(sizes) < 2:
        raise InvalidConfigError("architecture needs at least input and output sizes")
    if any(s < 1 for s in sizes):
        raise InvalidConfigError(f"layer sizes must be positive, got {sizes}")
    if sizes[0] != width * height:
        raise InvalidConfigError(
            f"input size {sizes[0]} does not match {width}x{height} grid"
        )
    if sizes[-1] != 1:
        raise InvalidConfigError("architecture must end in a single sigmoid output")
    rng = np.random.default_rng(rng_seed)
    layers = []
    for depth, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        r = math.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-r, r, size=(fan_in, fan_out))
        activation = "sigmoid" if depth == len(sizes) - 2 else hidden_activation
        layers.append(NeuralLayer(weights, np.zeros(fan_out), activation))
    return NeuralModel(width, height, tuple(layers))


def bce_loss(model: NeuralModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of the net's output probabilities."""
    p = np.clip(neural_forward(model, X), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def bce_gradients(model: NeuralModel, X: np.ndarray, y: np.ndarray):
    """Backpropagated gradients of bce_loss; one (dW, db) pair per layer."""
    return _bce_gradients(model.layers, X, y)


def _bce_gradients(layers: Sequence[NeuralLayer], X: np.ndarray, y: np.ndarray):
    n = X.shape[0]
    activations = _forward(layers, X)
    # Sigmoid + cross-entropy collapse to (p - y)/n at the output.
    delta = (activations[-1][:, 0] - y)[:, None] / n
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        grads.append((activations[k].T @ delta, delta.sum(axis=0)))
        if k > 0:
            delta = delta @ layers[k].weights.T
            # Both derivatives read off the activation: a relu unit's
            # activation is positive iff its pre-activation is, and a sigmoid
            # unit's activation is s in s * (1 - s).
            a = activations[k]
            if layers[k - 1].activation == "relu":
                delta = delta * (a > 0.0)
            else:
                delta = delta * a * (1.0 - a)
    grads.reverse()
    return grads


def train_neural(
    dataset: Dataset,
    architecture: Sequence[int],
    epochs: int,
    learning_rate: float,
    rng_seed,
    hidden_activation: str = "relu",
) -> NeuralModel:
    """Full-batch gradient descent on binary cross-entropy. The epochs step
    unchecked NeuralLayers; the net is validated once, at the end."""
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise InvalidConfigError(f"learning rate must be a positive finite real, got {learning_rate}")
    X, y, width, height = _dataset_arrays(dataset)
    layers = init_neural(architecture, width, height, rng_seed, hidden_activation).layers
    for _ in range(epochs):
        grads = _bce_gradients(layers, X, y)
        layers = [
            NeuralLayer(weights - learning_rate * dw, bias - learning_rate * db, activation)
            for (weights, bias, activation), (dw, db) in zip(layers, grads)
        ]
    return NeuralModel(width, height, tuple(layers))


def training_accuracy(model: Model, dataset: Dataset) -> float:
    X, y, _, _ = _dataset_arrays(dataset)
    return float(np.mean(level_label_matrix(model, X)[-1] == y))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def model_to_json(model: Model) -> dict:
    if isinstance(model, RuleModel):
        return {
            "kind": "rule",
            "width": model.width,
            "height": model.height,
            "levels": [
                {
                    "ones_required": sorted(level.ones_required),
                    "zeros_required": sorted(level.zeros_required),
                }
                for level in model.levels
            ],
        }
    if isinstance(model, LinearModel):
        return {
            "kind": "linear",
            "width": model.width,
            "height": model.height,
            "weights": [float(w) for w in model.weights],
            "bias": float(model.bias),
        }
    if isinstance(model, NeuralModel):
        return {
            "kind": "neural",
            "width": model.width,
            "height": model.height,
            "layers": [
                {
                    "weights": [[float(v) for v in row] for row in layer.weights],
                    "bias": [float(v) for v in layer.bias],
                    "activation": layer.activation,
                }
                for layer in model.layers
            ],
        }
    raise InvalidInputError(f"unknown model type {type(model).__name__}")


def model_from_json(doc: dict) -> Model:
    try:
        kind = doc.get("kind")
        width, height = int(doc["width"]), int(doc["height"])
        if kind == "rule":
            levels = tuple(
                RuleLevel(frozenset(lv["ones_required"]), frozenset(lv["zeros_required"]))
                for lv in doc["levels"]
            )
            return RuleModel(width, height, levels)
        if kind == "linear":
            return LinearModel(width, height, doc["weights"], doc["bias"])
        if kind == "neural":
            layers = tuple(
                NeuralLayer(lv["weights"], lv["bias"], lv["activation"]) for lv in doc["layers"]
            )
            return NeuralModel(width, height, layers)
    except KeyError as missing:
        raise InvalidSpecError(f"model document missing key {missing}") from None
    raise InvalidSpecError(f"unknown model kind {kind!r}")
