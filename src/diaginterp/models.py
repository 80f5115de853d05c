"""The model zoo: multi-level rule models, a linear threshold unit, and a
small from-scratch feedforward net.

All three families expose the same prediction surface: a model maps a binary
image to one {0,1} label per abstraction level, with the last level acting as
the diagnosis label. Rule models may have any number of levels; the
real-valued families are single-level.

A net has one forward and one backward pass, ``_forward`` and ``_backward``;
labelling runs the first, and training, whose hidden layers are relu, runs
both into buffers it makes once. The perceptron keeps integer mistake
counts, so its scores are exact. Real-valued labels take one fixed block of
float rows at a time, never a float copy of the whole space.

Every model labels a space as packed bits, 64-bit words (level_label_matrix).
A rule level's are the AND of the space's packed pixel columns (a SpaceRows'
``columns``, or pack_columns of a bare matrix) and masked complements
(rule_bits). rule_update scores every candidate edit on the same words, as
popcounts over one (candidates, words) array.

Every training routine takes a 0/1 row matrix, its 0/1 labels and the grid,
and is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, InvalidSpecError
from .imagespace import (
    MATERIALIZE_BYTE_LIMIT,
    SpaceRows,
    json_field,
    json_keys,
    pack_bits,
    pack_columns,
)


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
    except (TypeError, ValueError, OverflowError):
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
        except (TypeError, ValueError, OverflowError):
            raise InvalidSpecError("linear bias must be a number") from None
        if weights.shape != (self.width * self.height,):
            raise InvalidSpecError(
                f"expected {self.width * self.height} weights, got shape {weights.shape}"
            )
        with np.errstate(over="ignore"):  # |w.x + b| <= sum |w| + |b| for 0/1 pixels x
            bound = np.abs(weights).sum() + abs(self.bias)
        if not math.isfinite(bound):  # a parameter is not finite, or a score can overflow
            raise InvalidSpecError(f"linear model scores are unbounded: sum |w| + |b| is {bound}")
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
        bound = np.ones(fan_in)  # on the inputs' magnitudes: a pixel is 0 or 1
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
            with np.errstate(all="ignore"):  # |W|^T bound + |b| bounds the layer's scores
                bound = bound @ np.abs(weights) + np.abs(bias)
            if not np.all(np.isfinite(bound)):
                raise InvalidSpecError(f"neural model scores are unbounded: {bound.max()}")
            bound = bound if activation == "relu" else np.ones_like(bound)  # sigmoids stay below 1
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, written over ``z``. e = exp(-|z|) cannot
    overflow: it is 1 / (1 + e) where z >= 0, else e / (1 + e)."""
    pos = z >= 0
    e = np.exp(np.copysign(z, -1.0))
    d = e + 1.0
    np.divide(e, d, out=z)
    return np.divide(1.0, d, out=z, where=pos)


def _forward(layers: Sequence[NeuralLayer], X: np.ndarray, out=None) -> list[np.ndarray]:
    """The net's forward pass over a (n, fan_in) batch: every layer's
    activation, the batch itself first. Layer k writes its pre-activation and
    then its activation into ``out[k]``, or into a new array."""
    activations = [X]
    for k, (weights, bias, activation) in enumerate(layers):
        z = np.matmul(activations[-1], weights, out=None if out is None else out[k])
        z += bias
        activations.append(np.maximum(z, 0.0, out=z) if activation == "relu" else _sigmoid(z))
    return activations


def _backward(layers, activations, y, grads) -> None:
    """A relu net's backward pass: the cross-entropy's gradients into ``grads``.
    Each of a forward pass's ``activations`` but the batch becomes its delta."""
    # Sigmoid + cross-entropy collapse to (p - y)/n at the output.
    delta = np.subtract(activations[-1], y[:, None], out=activations[-1])
    delta /= len(y)
    for k in range(len(layers) - 1, -1, -1):
        np.matmul(activations[k].T, delta, out=grads[k][0])
        np.add.reduce(delta, axis=0, out=grads[k][1])
        if k > 0:
            positive = activations[k] > 0.0  # relu's derivative, read before the delta
            delta = np.matmul(delta, layers[k].weights.T, out=activations[k])
            delta *= positive


def neural_forward(model: NeuralModel, inputs: np.ndarray) -> np.ndarray:
    """Output probabilities for a (n, pixels) batch."""
    return _forward(model.layers, np.asarray(inputs, dtype=np.float64))[-1][:, 0]


def rule_bits(levels: Sequence[RuleLevel], columns: np.ndarray) -> np.ndarray:
    """Rule levels' labels as packed bits, one row per level, over the space
    of the pack_columns ``columns``: the AND of a level's ones-required
    columns and the complements of its zeros-required ones."""
    return np.array([
        np.bitwise_and.reduce(columns[[*level.ones_required, -1]], axis=0)
        & ~np.bitwise_or.reduce(columns[list(level.zeros_required)], axis=0)
        for level in levels
    ])


# Rows per block when a linear or neural model labels a matrix. 1,024 rows
# measured fastest; 4,096-row blocks made the linear labels twice as slow.
_LABEL_BLOCK = 1024


def _rounding_bound(model: LinearModel) -> float:
    """How far two summation orders of one score may differ: 2 (pixels + 1)
    2^-52 (sum |w| + |b|), twice the sum of both orders' error bounds. It is
    0 when every order is exact: integer weights and bias, such as a
    perceptron's, whose every partial sum is an integer below 2^53."""
    weights, bias = model.weights, model.bias
    scale = float(np.abs(weights).sum()) + abs(bias)
    if scale < 2.0**53 and bias.is_integer() and bool(np.all(np.floor(weights) == weights)):
        return 0.0
    return 2 * (weights.size + 1) * 2.0**-52 * scale


def _linear_labels(model: LinearModel, rows: np.ndarray, bound: float) -> np.ndarray:
    """A block of float rows' linear labels: the sign of the set pixels' weights
    summed in pixel order, plus the bias. ``rows @ w + b`` sums in BLAS order,
    so the rows whose score is within ``bound`` (_rounding_bound) of 0, the
    only ones whose sign the order can change, are summed again in pixel
    order. Its scores are freed on return, before the next block is cast:
    held across that cast, they doubled the time to label a 12,480-row 8x8
    envelope, 0.36 to 0.74 ms on a 2-vCPU VM."""
    scores = rows @ model.weights + model.bias
    if bound:
        near = np.abs(scores) <= bound
        # cumsum adds left to right; w * 0 is a signed zero, which adds nothing
        scores[near] = np.cumsum(rows[near] * model.weights, axis=1)[:, -1] + model.bias
    return scores > 0.0


def level_label_matrix(model: Model, matrix) -> np.ndarray:
    """Per-level labels for a whole enumerated space as packed bits (pack_bits),
    one row of words per level. ``matrix`` is the space's rows: a SpaceRows,
    or a bare 0/1 matrix such as a training set. A rule model is rule_bits
    over a SpaceRows' ``columns``, or over a bare matrix's pack_columns. A
    linear or neural model scores one block of _LABEL_BLOCK float64 rows at a
    time, so its working memory does not grow with the space, and packs once.
    A linear label is the sign of the pixel-order sum plus the bias, as in the
    oracle (_linear_labels)."""
    if isinstance(model, RuleModel):
        columns = matrix.columns if isinstance(matrix, SpaceRows) else pack_columns(matrix)
        return rule_bits(model.levels, columns)
    if not isinstance(model, (LinearModel, NeuralModel)):
        raise InvalidInputError(f"unknown model type {type(model).__name__}")
    linear = isinstance(model, LinearModel)
    bound = _rounding_bound(model) if linear else 0.0
    out = np.empty((1, matrix.shape[0]), dtype=np.uint8)
    for start in range(0, matrix.shape[0], _LABEL_BLOCK):
        block = slice(start, start + _LABEL_BLOCK)
        rows = matrix[block].astype(np.float64)
        if linear:
            out[0, block] = _linear_labels(model, rows, bound)
        else:
            out[0, block] = neural_forward(model, rows) > 0.5
    return pack_bits(out)


def predict(model: Model, bits: Sequence[int]) -> tuple[int, ...]:
    """Labels at every abstraction level for one image's 0/1 pixels."""
    pixels = model.width * model.height
    if isinstance(bits, str) or len(bits) != pixels:  # a bitstring's characters are not pixels
        raise InvalidInputError(f"expected an image of {pixels} 0/1 pixels, got {bits!r}")
    # one image: each level's only word is its label
    return tuple(level_label_matrix(model, np.array([bits], dtype=np.uint8))[:, 0].tolist())


# ---------------------------------------------------------------------------
# Rule-model update: minimal constraint edits
# ---------------------------------------------------------------------------


def rule_update(
    model: RuleModel, index: int, columns: np.ndarray, reference_bits: np.ndarray
) -> RuleModel:
    """Edit the model so its labels of image ``index`` equal the reference's
    at every level, using the fewest constraint insertions/removals per level.

    ``columns`` is the evaluation space's pack_columns and ``reference_bits``
    the reference's labels over it (level_label_matrix's layout), one row per
    level of ``model``; the caller aligns another level count. The image is
    read from them: its pixels are bit ``index`` of each pixel column, and its
    targets bit ``index`` of each reference level.

    For a level that must flip 0 -> 1 the edit is forced: keep only the
    constraints the image meets. A level that must flip 1 -> 0 gets one
    candidate per pixel j: require j to take the value the image lacks. On a
    free pixel that adds a constraint; on a fully pinned level (no pixel
    free) it swaps j's constraint to the other set, a two-edit change.
    Candidates are free pixels, or every pixel when none is free. Each
    candidate is scored by its disagreement with the same level of the
    reference labels, all candidates at once as one (candidates, words)
    array, and the lowest score wins, ties going to the lowest pixel index.
    """
    pixels = model.width * model.height
    if columns.shape[0] != pixels + 1:
        raise InvalidInputError(
            f"columns have {columns.shape[0]} rows, a {pixels}-pixel model needs {pixels + 1}"
        )
    if reference_bits.shape[0] != len(model.levels):
        raise InvalidInputError(
            f"reference labels have {reference_bits.shape[0]} levels, "
            f"model has {len(model.levels)}"
        )
    if reference_bits.shape[1] != columns.shape[1]:
        raise InvalidInputError(
            f"reference labels have {reference_bits.shape[1]} words, "
            f"columns have {columns.shape[1]}"
        )
    word, shift = index >> 6, index & 63
    if index < 0 or word >= columns.shape[1] or not columns[-1, word] >> shift & 1:
        raise InvalidInputError(f"image {index} is not in the space")
    bits = columns[:-1, word] >> shift & 1
    target = reference_bits[:, word] >> shift & 1
    on = frozenset(np.flatnonzero(bits).tolist())

    def label(level: RuleLevel) -> int:  # the level's label of the image
        return int(level.ones_required <= on and not level.zeros_required & on)

    # column j ^ flips[j] marks the rows that differ from the image at pixel j
    flips = -bits
    new_levels = list(model.levels)
    for k, level in enumerate(model.levels):
        want = int(target[k])
        if label(level) == want:
            continue
        if want == 1:
            new_levels[k] = RuleLevel(level.ones_required & on, level.zeros_required - on)
            continue
        # The image meets every constraint, so candidate j's accepted rows are
        # the rows that differ from the image at j and meet every other
        # constraint: the level's own labels when j is free, and the rows one
        # bit away from the image when every pixel is pinned.
        pinned = level.ones_required | level.zeros_required
        free = [j for j in range(pixels) if j not in pinned]
        candidates = free or list(range(pixels))
        differ = columns[candidates]
        differ ^= flips[candidates, None]
        if free:
            allowed = rule_bits([level], columns)[0]
        else:
            # bit-sliced counts of the pixels a row differs in: at least one, two
            ones, twos = np.zeros((2, columns.shape[1]), dtype=np.uint64)
            for row in differ:
                twos |= ones & row
                ones |= row
            allowed = ones & ~twos & columns[-1]
        differ &= allowed  # in place, like the XOR: a 4x5 space's differ is 2.6 MiB
        differ ^= reference_bits[k]
        scores = np.bitwise_count(differ).sum(axis=1)
        j = candidates[int(np.argmin(scores))]
        if bits[j]:
            new_levels[k] = RuleLevel(level.ones_required - {j}, level.zeros_required | {j})
        else:
            new_levels[k] = RuleLevel(level.ones_required | {j}, level.zeros_required - {j})
    return RuleModel(model.width, model.height, tuple(new_levels))


# ---------------------------------------------------------------------------
# Linear model: perceptron training and query-augmented retraining
# ---------------------------------------------------------------------------


def check_training(epochs: int, learning_rate: float | None = None) -> None:
    """Refuse fewer than one epoch, or a given rate that is not a positive finite real."""
    if learning_rate is not None and not (math.isfinite(learning_rate) and learning_rate > 0):
        raise InvalidConfigError(f"learning rate must be a positive finite real, got {learning_rate}")
    if epochs < 1:
        raise InvalidConfigError(f"epochs must be >= 1, got {epochs}")


def _training_arrays(X, y, pixels: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 copies of a training set: n > 0 rows ``X`` of ``pixels`` 0/1
    pixels each, and n 0/1 labels ``y``."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or not len(X) or y.shape != X.shape[:1] or X.shape[1] != pixels:
        raise InvalidConfigError(f"a training set needs n > 0 rows of {pixels} pixels and n labels")
    if not (np.isin(X, (0.0, 1.0)).all() and np.isin(y, (0.0, 1.0)).all()):
        raise InvalidConfigError("training rows and labels must be 0/1")
    return X, y


def train_linear(X, y, width: int, height: int, epochs: int, rng_seed) -> LinearModel:
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
    The weights and bias are those integer counts. A learning rate would
    change no mistake, only scale them, and scaled weights can round a score
    of exactly 0 to either side, so there is none.

    The Gram matrix takes 8 n^2 bytes; above MATERIALIZE_BYTE_LIMIT (about
    5,800 examples) each mistake computes its row from the signed rows
    instead, so memory stays O(n * pixels).
    """
    check_training(epochs)
    X, y = _training_arrays(X, y, width * height)
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
    return LinearModel(width, height, counts[:-1], counts[-1])


def linear_update(model: LinearModel, X, y, epochs: int, rng_seed) -> LinearModel:
    """Retrain from scratch: train_linear on the model's grid, base rows first."""
    return train_linear(X, y, model.width, model.height, epochs, rng_seed)


# ---------------------------------------------------------------------------
# Neural model: Glorot init, full-batch gradient descent on cross-entropy
# ---------------------------------------------------------------------------


def init_neural(
    architecture: Sequence[int],
    width: int,
    height: int,
    rng_seed,
) -> NeuralModel:
    """Fresh net of relu hidden layers and one sigmoid output unit, with
    uniform(-r, r) weights, r = sqrt(6/(fan_in+fan_out)), and zero biases."""
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
        activation = "sigmoid" if depth == len(sizes) - 2 else "relu"
        layers.append(NeuralLayer(weights, np.zeros(fan_out), activation))
    return NeuralModel(width, height, tuple(layers))


def _flat_layers(layers: Sequence[NeuralLayer]) -> tuple[np.ndarray, list[NeuralLayer]]:
    """A flat float64 copy of the layers' parameters, each layer's weights
    (row-major) and then its bias, and the layers as views of it."""
    parts = [part for layer in layers for part in layer[:2]]
    flat = np.concatenate([part.ravel() for part in parts])
    views = np.split(flat, np.cumsum([part.size for part in parts])[:-1])
    return flat, [
        NeuralLayer(w.reshape(layer.weights.shape), b, layer.activation)
        for w, b, layer in zip(views[::2], views[1::2], layers)
    ]


def train_neural(
    X,
    y,
    width: int,
    height: int,
    architecture: Sequence[int],
    epochs: int,
    learning_rate: float,
    rng_seed,
) -> NeuralModel:
    """Full-batch gradient descent on binary cross-entropy. The layers are
    views of one flat parameter vector and their gradients of another; each
    epoch runs the two passes into buffers made once here and steps by
    ``grad *= rate; theta -= grad``, the same IEEE operations as
    ``w - rate * dw``. The net is validated once, at the end."""
    check_training(epochs, learning_rate)
    X, y = _training_arrays(X, y, width * height)
    init = init_neural(architecture, width, height, rng_seed).layers
    (theta, layers), (grad, grads) = _flat_layers(init), _flat_layers(init)
    activations = [np.empty((len(X), len(bias))) for _, bias, _ in init]
    for _ in range(epochs):
        _backward(layers, _forward(layers, X, activations), y, grads)
        grad *= learning_rate
        theta -= grad
    return NeuralModel(width, height, tuple(layers))


def training_accuracy(model: Model, X, y) -> float:
    """The share of the rows ``X`` whose diagnosis label is their label in ``y``."""
    X, y = _training_arrays(X, y, model.width * model.height)
    wrong = np.bitwise_count(level_label_matrix(model, X)[-1] ^ pack_bits(y[None] == 1.0)).sum()
    return (len(y) - int(wrong)) / len(y)


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


def _pixel_set(level: dict, key: str) -> frozenset:
    """A rule level's JSON pixel list as a set. A list or object entry cannot
    be hashed, so it is refused here; RuleModel checks the other entries."""
    pixels = json_field(level, key, "rule level", list)
    for i in pixels:
        if isinstance(i, (list, dict)):
            raise InvalidSpecError(f"pixel index {i!r} is not an integer")
    return frozenset(pixels)


def _numbers(doc: dict, key: str, what: str, kind: type = object):
    """json_field's ``doc[key]``: a JSON number, or lists of them. A string or a
    bool is refused, which np.array and float() would read as a number."""
    nest = [value := json_field(doc, key, what, kind)]
    while nest:
        if isinstance(item := nest.pop(), list):
            nest.extend(reversed(item))  # so the first bad item is named
        elif isinstance(item, (str, bool)):
            raise InvalidSpecError(f"{what} {key} holds {item!r}, not a number")
    return value


# The keys model_to_json writes beside kind, width and height, by kind.
_MODEL_KEYS = {"rule": ("levels",), "linear": ("weights", "bias"), "neural": ("layers",)}


def _rule_level(lv: dict) -> RuleLevel:
    ones, zeros = (_pixel_set(lv, key) for key in ("ones_required", "zeros_required"))
    json_keys(lv, "rule level", ("ones_required", "zeros_required"))
    return RuleLevel(ones, zeros)


def _neural_layer(lv: dict) -> NeuralLayer:
    weights = _numbers(lv, "weights", "neural layer", list)
    bias = _numbers(lv, "bias", "neural layer")
    activation = json_field(lv, "activation", "neural layer")
    json_keys(lv, "neural layer", ("weights", "bias", "activation"))
    return NeuralLayer(weights, bias, activation)


def model_from_json(doc: dict) -> Model:
    width, height = (json_field(doc, key, "model", int) for key in ("width", "height"))
    kind = doc.get("kind")
    if kind not in tuple(_MODEL_KEYS):  # compared, not hashed: kind may be a list
        raise InvalidSpecError(f"unknown model kind {kind!r}")
    json_keys(doc, "model", ("kind", "width", "height", *_MODEL_KEYS[kind]))
    if kind == "rule":
        levels = json_field(doc, "levels", "model", list)
        return RuleModel(width, height, tuple(map(_rule_level, levels)))
    if kind == "linear":
        weights, bias = (_numbers(doc, key, "model") for key in ("weights", "bias"))
        return LinearModel(width, height, weights, bias)
    layers = json_field(doc, "layers", "model", list)
    return NeuralModel(width, height, tuple(map(_neural_layer, layers)))
