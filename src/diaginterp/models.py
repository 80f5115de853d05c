"""The model zoo: multi-level rule models, a linear threshold unit, and a
small from-scratch feedforward net.

All three families expose the same prediction surface: a model maps a binary
image to one {0,1} label per abstraction level, with the last level acting as
the diagnosis label. Rule models may have any number of levels; the
real-valued families are single-level.

Every training routine is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidSpecError,
    UnreachableTargetError,
)
from .imagespace import BinaryImage

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
                if not 0 <= i < pixels:
                    raise InvalidSpecError(f"pixel index {i} outside {pixels}-pixel grid")


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
        weights = np.array(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", float(self.bias))
        if weights.shape != (self.width * self.height,):
            raise InvalidSpecError(
                f"expected {self.width * self.height} weights, got shape {weights.shape}"
            )
        if not (np.all(np.isfinite(weights)) and math.isfinite(self.bias)):
            raise InvalidSpecError("linear model parameters must be finite")
        weights.setflags(write=False)


@dataclass(frozen=True, eq=False)
class NeuralLayer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str  # "relu" | "sigmoid"

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)
        if weights.ndim != 2 or bias.shape != (weights.shape[1],):
            raise InvalidSpecError(
                f"layer shapes do not chain: weights {weights.shape}, bias {bias.shape}"
            )
        if self.activation not in ("relu", "sigmoid"):
            raise InvalidSpecError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise InvalidSpecError("neural parameters must be finite")
        weights.setflags(write=False)
        bias.setflags(write=False)


@dataclass(frozen=True, eq=False)
class NeuralModel:
    """Feedforward net ending in a single sigmoid unit; label 1 iff the
    output probability exceeds 0.5 (exactly 0.5 maps to 0)."""

    width: int
    height: int
    layers: tuple[NeuralLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise InvalidSpecError("a neural model needs at least one layer")
        fan_in = self.width * self.height
        for layer in self.layers:
            if layer.weights.shape[0] != fan_in:
                raise InvalidSpecError(
                    f"layer expects fan-in {layer.weights.shape[0]}, previous gives {fan_in}"
                )
            fan_in = layer.weights.shape[1]
        last = self.layers[-1]
        if last.weights.shape[1] != 1 or last.activation != "sigmoid":
            raise InvalidSpecError("final layer must be a single sigmoid unit")


Model = RuleModel | LinearModel | NeuralModel


def model_grid(model: Model) -> tuple[int, int]:
    return (model.width, model.height)


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


def _rule_level_label(level: RuleLevel, bits: Sequence[int]) -> int:
    if any(bits[i] == 0 for i in level.ones_required):
        return 0
    if any(bits[i] == 1 for i in level.zeros_required):
        return 0
    return 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Two-branch form avoids overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def neural_forward(model: NeuralModel, inputs: np.ndarray) -> np.ndarray:
    """Output probabilities for a (n, pixels) batch."""
    a = np.asarray(inputs, dtype=np.float64)
    for layer in model.layers:
        z = a @ layer.weights + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else _sigmoid(z)
    return a[:, 0]


def _rule_level_labels(level: RuleLevel, matrix: np.ndarray) -> np.ndarray:
    """One rule level's labels over every row of ``matrix``, as booleans."""
    pred = np.ones(matrix.shape[0], dtype=bool)
    if level.ones_required:
        pred &= (matrix[:, sorted(level.ones_required)] == 1).all(axis=1)
    if level.zeros_required:
        pred &= (matrix[:, sorted(level.zeros_required)] == 0).all(axis=1)
    return pred


def level_label_matrix(model: Model, matrix: np.ndarray) -> np.ndarray:
    """Per-level labels for a whole enumerated space; shape (K, n_images)."""
    if isinstance(model, RuleModel):
        out = np.empty((len(model.levels), matrix.shape[0]), dtype=np.uint8)
        for k, level in enumerate(model.levels):
            out[k] = _rule_level_labels(level, matrix)
        return out
    if isinstance(model, LinearModel):
        scores = matrix.astype(np.float64) @ model.weights + model.bias
        return (scores > 0.0).astype(np.uint8)[None, :]
    if isinstance(model, NeuralModel):
        probs = neural_forward(model, matrix.astype(np.float64))
        return (probs > 0.5).astype(np.uint8)[None, :]
    raise InvalidInputError(f"unknown model type {type(model).__name__}")


def top_label_vector(model: Model, matrix: np.ndarray) -> np.ndarray:
    """Last-level labels for a whole enumerated space; shape (n_images,)."""
    return level_label_matrix(model, matrix)[-1]


def predict(model: Model, image: BinaryImage) -> PredictionVector:
    """Labels at every abstraction level for a single image."""
    _check_image(model, image)
    if isinstance(model, RuleModel):
        return tuple(_rule_level_label(level, image.bits) for level in model.levels)
    row = np.array([image.bits], dtype=np.uint8)
    return (int(top_label_vector(model, row)[0]),)


def top_label(model: Model, image: BinaryImage) -> int:
    """The diagnosis label: the last entry of predict()."""
    return predict(model, image)[-1]


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
    the reference model's labels over it (level_label_matrix).

    For a level that must flip 0 -> 1 the edit is forced: remove exactly the
    constraints the image violates. For 1 -> 0 any single violated constraint
    suffices; among those candidates the one minimizing post-edit disagreement
    with the reference labels wins, with remaining ties broken by lowest pixel
    index; a reference with a different level count is scored by its
    diagnosis level. When a level is fully pinned (every pixel already
    constrained) a two-edit swap is used instead.
    """
    _check_image(model, image)
    if len(target) != len(model.levels):
        raise InvalidInputError(
            f"target has {len(target)} levels, model has {len(model.levels)}"
        )
    matched = reference_labels.shape[0] == len(model.levels)

    new_levels = list(model.levels)
    for k, level in enumerate(model.levels):
        current = _rule_level_label(level, image.bits)
        want = int(target[k])
        if current == want:
            continue
        if want == 1:
            violated_ones = frozenset(i for i in level.ones_required if image.bits[i] == 0)
            violated_zeros = frozenset(i for i in level.zeros_required if image.bits[i] == 1)
            new_levels[k] = RuleLevel(
                level.ones_required - violated_ones,
                level.zeros_required - violated_zeros,
            )
        else:
            ref_row = reference_labels[k] if matched else reference_labels[-1]
            new_levels[k] = _best_blocking_edit(level, image, matrix, ref_row)

    updated = RuleModel(model.width, model.height, tuple(new_levels))
    if predict(updated, image) != tuple(int(t) for t in target):
        raise UnreachableTargetError(
            f"no constraint edit reaches target {tuple(target)} on image "
            f"{image.to_string()}"
        )
    return updated


def _best_blocking_edit(
    level: RuleLevel, image: BinaryImage, matrix: np.ndarray, ref_row: np.ndarray
) -> RuleLevel:
    """Smallest constraint addition that forces label 0 on ``image``."""
    ref = ref_row.astype(bool)
    base = _rule_level_labels(level, matrix)
    candidates: list[tuple[int, int, RuleLevel]] = []
    for j in range(image.num_pixels):
        if image.bits[j] == 0 and j not in level.zeros_required:
            cand = RuleLevel(level.ones_required | {j}, level.zeros_required)
            pred = base & (matrix[:, j] == 1)
        elif image.bits[j] == 1 and j not in level.ones_required:
            cand = RuleLevel(level.ones_required, level.zeros_required | {j})
            pred = base & (matrix[:, j] == 0)
        else:
            continue
        candidates.append((int(np.count_nonzero(pred != ref)), j, cand))
    if not candidates:
        # Fully pinned level: swap one constraint to the other set (size-2 edit).
        for i in sorted(level.ones_required | level.zeros_required):
            if i in level.ones_required:
                cand = RuleLevel(level.ones_required - {i}, level.zeros_required | {i})
            else:
                cand = RuleLevel(level.ones_required | {i}, level.zeros_required - {i})
            if _rule_level_label(cand, image.bits) == 0:
                pred = _rule_level_labels(cand, matrix)
                candidates.append((int(np.count_nonzero(pred != ref)), i, cand))
    if not candidates:
        raise UnreachableTargetError("no blocking edit exists for this level")
    candidates.sort(key=lambda item: (item[0], item[1]))
    return candidates[0][2]


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
    """Mistake-driven perceptron training.

    Weights start at zero; each epoch shuffles the dataset under the seed and
    applies additive updates on misclassified examples. Stops early once an
    epoch is mistake-free (the pass order no longer matters at that point).
    """
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise InvalidConfigError(f"learning rate must be a positive finite real, got {learning_rate}")
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be >= 1, got {epochs}")
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
    return LinearModel(width, height, w, b)


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


def _forward_trace(model: NeuralModel, X: np.ndarray):
    activations = [X]
    pre = []
    a = X
    for layer in model.layers:
        z = a @ layer.weights + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else _sigmoid(z)
        pre.append(z)
        activations.append(a)
    return pre, activations


def bce_loss(model: NeuralModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of the net's output probabilities."""
    p = np.clip(neural_forward(model, X), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def bce_gradients(model: NeuralModel, X: np.ndarray, y: np.ndarray):
    """Backpropagated gradients of bce_loss; one (dW, db) pair per layer."""
    n = X.shape[0]
    pre, activations = _forward_trace(model, X)
    # Sigmoid + cross-entropy collapse to (p - y)/n at the output.
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


def train_neural(
    dataset: Dataset,
    architecture: Sequence[int],
    epochs: int,
    learning_rate: float,
    rng_seed,
    hidden_activation: str = "relu",
) -> NeuralModel:
    """Full-batch gradient descent on binary cross-entropy."""
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise InvalidConfigError(f"learning rate must be a positive finite real, got {learning_rate}")
    X, y, width, height = _dataset_arrays(dataset)
    model = init_neural(architecture, width, height, rng_seed, hidden_activation)
    layers = list(model.layers)
    for _ in range(epochs):
        current = NeuralModel(width, height, tuple(layers))
        grads = bce_gradients(current, X, y)
        layers = [
            NeuralLayer(
                layer.weights - learning_rate * dw,
                layer.bias - learning_rate * db,
                layer.activation,
            )
            for layer, (dw, db) in zip(layers, grads)
        ]
    return NeuralModel(width, height, tuple(layers))


def training_accuracy(model: Model, dataset: Dataset) -> float:
    X = np.array([img.bits for img, _ in dataset], dtype=np.uint8)
    y = np.array([label for _, label in dataset], dtype=np.uint8)
    return float(np.mean(top_label_vector(model, X) == y))


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
    kind = doc.get("kind")
    width, height = int(doc["width"]), int(doc["height"])
    if kind == "rule":
        levels = tuple(
            RuleLevel(frozenset(lv["ones_required"]), frozenset(lv["zeros_required"]))
            for lv in doc["levels"]
        )
        return RuleModel(width, height, levels)
    if kind == "linear":
        return LinearModel(width, height, np.array(doc["weights"], dtype=np.float64), doc["bias"])
    if kind == "neural":
        layers = tuple(
            NeuralLayer(
                np.array(lv["weights"], dtype=np.float64),
                np.array(lv["bias"], dtype=np.float64),
                lv["activation"],
            )
            for lv in doc["layers"]
        )
        return NeuralModel(width, height, layers)
    raise InvalidSpecError(f"unknown model kind {kind!r}")
