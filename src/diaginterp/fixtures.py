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

Every generator is deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import EngineConfig
from .errors import InvalidConfigError
from .imagespace import BinaryImage, ImageSpaceSpec, unique_rows
from .models import (
    Dataset,
    LinearModel,
    Model,
    RuleLevel,
    RuleModel,
    train_linear,
    train_neural,
    training_accuracy,
)

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
PERCEPTRON_LEARNING_RATE = 1.0


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    space: ImageSpaceSpec
    model_a: Model
    model_b: Model
    mode: str
    max_queries: int
    complete: bool = False
    base_dataset: Dataset | None = None
    black_box_train_accuracy: float | None = None
    known_model_train_accuracy: float | None = None

    def engine_config(self, **settings) -> EngineConfig:
        """The fixture's run: its space, models, mode, query budget and base
        dataset. ``settings`` names EngineConfig fields to set as well (the
        query budget among them); the rest keep EngineConfig's defaults."""
        fixed = {
            "space": self.space,
            "model_a": self.model_a,
            "model_b": self.model_b,
            "mode": self.mode,
            "max_queries": self.max_queries,
            "base_dataset": self.base_dataset,
        }
        return EngineConfig(**{**fixed, **settings})


def fixture_names() -> list[str]:
    return ["fig1b", "fig1c", "fig2-diagonal", "eval-squares"]


def build_fixture(name: str, seed: int = 0) -> Fixture:
    if name == "fig1b":
        return _build_fig1b()
    if name == "fig1c":
        return _build_fig1c()
    if name == "fig2-diagonal":
        return _build_fig2_diagonal()
    if name == "eval-squares":
        return _build_eval_squares(seed)
    raise InvalidConfigError(
        f"unknown fixture {name!r}; valid names: {', '.join(fixture_names())}"
    )


def _build_fig1b() -> Fixture:
    space = ImageSpaceSpec(GRID_4, GRID_4, "full")
    model_a = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0]),))
    model_b = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[5, 10]),))
    return Fixture(
        name="fig1b",
        description="rule vs rule over the full 4x4 space; expressible target",
        space=space,
        model_a=model_a,
        model_b=model_b,
        mode="diagnostic",
        max_queries=64,
        complete=True,
    )


def _build_fig1c() -> Fixture:
    space = ImageSpaceSpec(GRID_4, GRID_4, "full")
    model_a = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0, 1]),))
    weights = np.zeros(GRID_4 * GRID_4)
    weights[0] = 1.0
    weights[1] = 1.0
    model_b = LinearModel(GRID_4, GRID_4, weights, -0.5)
    return Fixture(
        name="fig1c",
        description="rule vs linear OR over the full 4x4 space; inexpressible target",
        space=space,
        model_a=model_a,
        model_b=model_b,
        mode="diagnostic",
        max_queries=64,
        complete=True,
    )


def diagonal_images() -> tuple[BinaryImage, BinaryImage]:
    main = BinaryImage.from_pixels(GRID_4, GRID_4, [0, 5, 10, 15])
    anti = BinaryImage.from_pixels(GRID_4, GRID_4, [3, 6, 9, 12])
    return main, anti


def _build_fig2_diagonal() -> Fixture:
    main, anti = diagonal_images()
    space = ImageSpaceSpec(GRID_4, GRID_4, "envelope", (main, anti), flip_radius=1)
    model_a = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0]),))
    model_b = RuleModel(GRID_4, GRID_4, (RuleLevel.of(ones=[0, 5, 10, 15]),))
    return Fixture(
        name="fig2-diagonal",
        description="diagonal classification over the 34-image flip envelope",
        space=space,
        model_a=model_a,
        model_b=model_b,
        mode="diagnostic",
        max_queries=8,
    )


# ---------------------------------------------------------------------------
# eval-squares: the two-squares task
# ---------------------------------------------------------------------------


def _square_placements(size: int) -> list[tuple[int, int]]:
    half_width = GRID_8 // 2
    return [
        (row, col)
        for row in range(GRID_8 - size + 1)
        for col in range(half_width - size + 1)
    ]


def _two_squares_image(
    left_size: int, left_pos: tuple[int, int], right_size: int, right_pos: tuple[int, int]
) -> BinaryImage:
    half_width = GRID_8 // 2
    bits = [0] * (GRID_8 * GRID_8)
    for dr in range(left_size):
        for dc in range(left_size):
            bits[(left_pos[0] + dr) * GRID_8 + left_pos[1] + dc] = 1
    for dr in range(right_size):
        for dc in range(right_size):
            bits[(right_pos[0] + dr) * GRID_8 + half_width + right_pos[1] + dc] = 1
    return BinaryImage(GRID_8, GRID_8, tuple(bits))


def two_squares_bases() -> tuple[list[BinaryImage], list[int]]:
    """Every two-squares image with distinct square sizes, plus its label
    (1 iff the left square is strictly larger)."""
    images: list[BinaryImage] = []
    labels: list[int] = []
    for left_size in SQUARE_SIZES:
        for right_size in SQUARE_SIZES:
            if left_size == right_size:
                continue
            label = 1 if left_size > right_size else 0
            for left_pos in _square_placements(left_size):
                for right_pos in _square_placements(right_size):
                    images.append(
                        _two_squares_image(left_size, left_pos, right_size, right_pos)
                    )
                    labels.append(label)
    return images, labels


def two_squares_class_pools() -> tuple[np.ndarray, np.ndarray]:
    """The envelope split by class, one uint8 matrix of image rows per class:
    each base and its one-pixel flips inherit the base's label, base by base,
    repeats dropped. The two classes never collide (their left halves alone
    differ by 8 pixels)."""
    images, labels = two_squares_bases()
    bases = np.array([img.bits for img in images], dtype=np.uint8)
    pixels = GRID_8 * GRID_8
    # Row 0 keeps the base; row i + 1 flips pixel i.
    flips = np.vstack([np.zeros(pixels, dtype=np.uint8), np.eye(pixels, dtype=np.uint8)])
    return tuple(
        unique_rows((bases[np.equal(labels, label)][:, None, :] ^ flips).reshape(-1, pixels))
        for label in (0, 1)
    )


def _build_eval_squares(seed: int) -> Fixture:
    bases, _ = two_squares_bases()
    space = ImageSpaceSpec(GRID_8, GRID_8, "envelope", tuple(bases), flip_radius=1)

    rng = np.random.default_rng([seed, 0])
    pool0, pool1 = two_squares_class_pools()
    picked0 = rng.choice(len(pool0), size=TRAIN_PER_CLASS, replace=False)
    picked1 = rng.choice(len(pool1), size=TRAIN_PER_CLASS, replace=False)
    dataset: list[tuple[BinaryImage, int]] = []
    for label, pool, picked in ((0, pool0, picked0), (1, pool1, picked1)):
        for i in picked:
            dataset.append((BinaryImage(GRID_8, GRID_8, tuple(pool[i].tolist())), label))

    black_box = train_neural(
        dataset,
        NEURAL_ARCHITECTURE,
        epochs=NEURAL_EPOCHS,
        learning_rate=NEURAL_LEARNING_RATE,
        rng_seed=[seed, 1],
    )
    known = train_linear(
        dataset,
        epochs=PERCEPTRON_EPOCHS,
        learning_rate=PERCEPTRON_LEARNING_RATE,
        rng_seed=[seed, 2],
    )
    return Fixture(
        name="eval-squares",
        description="8x8 two-squares task: perceptron interprets a small net",
        space=space,
        model_a=known,
        model_b=black_box,
        mode="epsilon",
        max_queries=10,
        base_dataset=tuple(dataset),
        black_box_train_accuracy=training_accuracy(black_box, dataset),
        known_model_train_accuracy=training_accuracy(known, dataset),
    )
