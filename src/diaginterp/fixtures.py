"""Named, seeded fixtures: small model pairs and evaluation spaces that
reproduce the package's reference numbers end to end.

* ``fig1b``   -- two single-level rule models over the full 4x4 space; the
  interpreting family can express the target exactly, so exhaustive querying
  drives the disagreement entropy to zero.
* ``fig1c``   -- a rule model against a linear OR over the full 4x4 space; no
  conjunction can express an OR, so exhaustive querying settles at a fixed
  point with entropy strictly between zero and the initial value.
* ``fig2-diagonal`` -- the two 4x4 diagonal images plus their one-pixel-flip
  envelope (34 images); the rule pair disagrees on exactly 4 of them.
* ``eval-squares``  -- 8x8 two-squares task: one filled square per half,
  label 1 iff the left square is strictly larger. A seeded training set is
  drawn, a small from-scratch net becomes the black box, a perceptron the
  known model, and single-level interpretation runs over the full
  base-plus-flip envelope.

Every generator is deterministic in its seed. A fixture is its run: its
builder returns the run's EngineConfig. One table maps each name to its
(description, builder) pair; engine.admits_complete_run, not a fixture flag,
picks complete runs.
"""

from __future__ import annotations

import numpy as np

from .engine import EngineConfig
from .errors import InvalidConfigError
from .imagespace import ImageSpaceSpec, rows_to_bitstrings, unique_rows
from .models import LinearModel, RuleLevel, RuleModel, train_linear, train_neural

GRID_4 = 4
GRID_8 = 8

# eval-squares generator parameters: square sizes per half and the per-class
# training-sample count. Sizes {1, 3} keep the pixel-count margin between the
# classes at 8, far above the 1-pixel envelope noise; a perceptron trained on
# 200 envelope samples then lands within a handful of queries of the net.
SQUARE_SIZES = (1, 3)
TRAIN_PER_CLASS = 100
NEURAL_ARCHITECTURE = (64, 16, 1)
NEURAL_EPOCHS = 1500
NEURAL_LEARNING_RATE = 0.5
PERCEPTRON_EPOCHS = 100


def fixture_names() -> list[str]:
    return list(_BUILDERS)


def fixture_description(name: str) -> str:
    return _BUILDERS[name][0]


def build_fixture(name: str, seed: int = 0) -> EngineConfig:
    """The named fixture's run: its space, models, mode, query budget and
    base dataset; every other setting keeps EngineConfig's default."""
    if seed < 0:
        raise InvalidConfigError(f"fixture seed cannot be negative, got {seed}")
    if name not in _BUILDERS:
        raise InvalidConfigError(
            f"unknown fixture {name!r}; valid names: {', '.join(fixture_names())}"
        )
    return _BUILDERS[name][1](seed)


def _build_fig1b() -> EngineConfig:
    space = ImageSpaceSpec(GRID_4, GRID_4, "full")
    model_a = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0]),))
    model_b = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[5, 10]),))
    return EngineConfig(space, model_a, model_b, max_queries=64)


def _build_fig1c() -> EngineConfig:
    space = ImageSpaceSpec(GRID_4, GRID_4, "full")
    model_a = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0, 1]),))
    weights = np.zeros(GRID_4 * GRID_4)
    weights[:2] = 1.0  # pixels 0 and 1: a linear OR
    model_b = LinearModel(GRID_4, GRID_4, weights, -0.5)
    return EngineConfig(space, model_a, model_b, max_queries=64)


def diagonal_images() -> tuple[str, str]:
    """The 4x4 diagonals' bitstrings: pixels 0, 5, 10, 15 and 3, 6, 9, 12 set."""
    return "1000010000100001", "0001001001001000"


def _build_fig2_diagonal() -> EngineConfig:
    space = ImageSpaceSpec(GRID_4, GRID_4, "envelope", diagonal_images(), flip_radius=1)
    model_a = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0]),))
    model_b = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0, 5, 10, 15]),))
    return EngineConfig(space, model_a, model_b, max_queries=8)


# ---------------------------------------------------------------------------
# eval-squares: the two-squares task
# ---------------------------------------------------------------------------


def _squares(size: int) -> np.ndarray:
    """Every filled ``size`` x ``size`` square in an 8x4 half, one (8, 4) uint8
    grid per top-left corner, corners in row-major order."""
    rows, cols = GRID_8 - size + 1, GRID_8 // 2 - size + 1
    squares = np.zeros((rows, cols, GRID_8, GRID_8 // 2), dtype=np.uint8)
    for row in range(rows):
        for col in range(cols):
            squares[row, col, row : row + size, col : col + size] = 1
    return squares.reshape(-1, GRID_8, GRID_8 // 2)


def two_squares_bases() -> tuple[np.ndarray, np.ndarray]:
    """Every two-squares image with distinct square sizes, one uint8 row per
    image, plus its uint8 label (1 iff the left square is strictly larger).
    Ordered by left size, right size, left corner, right corner."""
    half = GRID_8 // 2
    images, labels = [], []
    for left_size in SQUARE_SIZES:
        for right_size in SQUARE_SIZES:
            if left_size == right_size:
                continue
            lefts, rights = _squares(left_size), _squares(right_size)
            block = np.empty((len(lefts), len(rights), GRID_8, GRID_8), dtype=np.uint8)
            block[..., :half] = lefts[:, None]
            block[..., half:] = rights[None, :]
            images.append(block.reshape(-1, GRID_8 * GRID_8))
            labels.append(np.full(len(images[-1]), left_size > right_size, dtype=np.uint8))
    return np.concatenate(images), np.concatenate(labels)


def two_squares_class_pools(
    images: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The envelope of the two_squares_bases ``images`` split by class, one
    uint8 matrix of image rows per class: each base and its one-pixel flips
    inherit the base's label, base by base, repeats dropped. The two classes
    never collide (their left halves alone differ by 8 pixels)."""
    pixels = GRID_8 * GRID_8
    # Row 0 keeps the base; row i + 1 flips pixel i.
    flips = np.vstack([np.zeros(pixels, dtype=np.uint8), np.eye(pixels, dtype=np.uint8)])
    return tuple(
        unique_rows((images[labels == label][:, None, :] ^ flips).reshape(-1, pixels))
        for label in (0, 1)
    )


def _build_eval_squares(seed: int) -> EngineConfig:
    bases, classes = two_squares_bases()
    space = ImageSpaceSpec(GRID_8, GRID_8, "envelope", rows_to_bitstrings(bases), flip_radius=1)

    rng = np.random.default_rng([seed, 0])
    pool0, pool1 = two_squares_class_pools(bases, classes)
    picked0 = rng.choice(len(pool0), size=TRAIN_PER_CLASS, replace=False)
    picked1 = rng.choice(len(pool1), size=TRAIN_PER_CLASS, replace=False)
    rows = np.concatenate([pool0[picked0], pool1[picked1]])
    labels = np.repeat(np.uint8([0, 1]), TRAIN_PER_CLASS)
    dataset = rows, labels, GRID_8, GRID_8

    black_box = train_neural(
        *dataset,
        NEURAL_ARCHITECTURE,
        epochs=NEURAL_EPOCHS,
        learning_rate=NEURAL_LEARNING_RATE,
        rng_seed=[seed, 1],
    )
    known = train_linear(*dataset, epochs=PERCEPTRON_EPOCHS, rng_seed=[seed, 2])
    return EngineConfig(
        space, known, black_box, max_queries=10, mode="epsilon", base_dataset=(rows, labels)
    )


# Each fixture's description and builder, by name, in listing order; only
# eval-squares is seeded.
_BUILDERS = {
    "fig1b": (
        "rule vs rule over the full 4x4 space; expressible target",
        lambda seed: _build_fig1b(),
    ),
    "fig1c": (
        "rule vs linear OR over the full 4x4 space; inexpressible target",
        lambda seed: _build_fig1c(),
    ),
    "fig2-diagonal": (
        "diagonal classification over the 34-image flip envelope",
        lambda seed: _build_fig2_diagonal(),
    ),
    "eval-squares": (
        "8x8 two-squares task: perceptron interprets a small net",
        _build_eval_squares,
    ),
}
