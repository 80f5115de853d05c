"""The rule updater against a verbatim copy of its earlier two-path form.

The copy below (``rule_update`` and ``_best_blocking_edit``) scores a
blocking edit on a free pixel in one loop and, on a fully pinned level,
builds a swapped ``RuleLevel`` per candidate and relabels the whole space for
each. ``diaginterp.models.rule_update`` scores every blocking candidate with
one expression; it must return the same model, or raise the same error type,
on generated inputs.

The property is derandomized and keeps no example database, so every run
checks the same examples.
"""

from typing import Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

import diaginterp.models as models
from diaginterp.errors import InvalidInputError, UnreachableTargetError
from diaginterp.imagespace import BinaryImage, space_matrix
from diaginterp.models import (
    RuleLevel,
    RuleModel,
    _rule_level_labels,
    level_label_matrix,
    predict,
)
from test_properties import random_grid, random_image, random_rule, random_space

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=400, derandomize=True, database=None, deadline=None)


# ---------------------------------------------------------------------------
# The two-path rule updater, copied verbatim
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

    For a level that must flip 0 -> 1 the edit is forced: remove exactly the
    constraints the image violates. For 1 -> 0 any single violated constraint
    suffices; among those candidates the one minimizing post-edit disagreement
    with the same level of the reference labels wins, with remaining ties
    broken by lowest pixel index. When a level is fully pinned (every pixel
    already constrained) a two-edit swap is used instead.
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
    new_levels = list(model.levels)
    for k, level in enumerate(model.levels):
        want = int(target[k])
        if current[k] == want:
            continue
        if want == 1:
            violated_ones = frozenset(i for i in level.ones_required if image.bits[i] == 0)
            violated_zeros = frozenset(i for i in level.zeros_required if image.bits[i] == 1)
            new_levels[k] = RuleLevel(
                level.ones_required - violated_ones,
                level.zeros_required - violated_zeros,
            )
        else:
            new_levels[k] = _best_blocking_edit(level, image, matrix, reference_labels[k])

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
        # Fully pinned level: swap one constraint to the other set (size-2
        # edit). The image satisfies every constraint, so each swap blocks it.
        for i in sorted(level.ones_required | level.zeros_required):
            if i in level.ones_required:
                cand = RuleLevel(level.ones_required - {i}, level.zeros_required | {i})
            else:
                cand = RuleLevel(level.ones_required | {i}, level.zeros_required - {i})
            pred = _rule_level_labels(cand, matrix)
            candidates.append((int(np.count_nonzero(pred != ref)), i, cand))
    if not candidates:
        raise UnreachableTargetError("no blocking edit exists for this level")
    candidates.sort(key=lambda item: (item[0], item[1]))
    return candidates[0][2]


# ---------------------------------------------------------------------------
# Property
# ---------------------------------------------------------------------------


def random_level(rng, image: BinaryImage) -> RuleLevel:
    """A level the image may or may not meet. One draw in four is fully
    pinned, to the image itself (so the image meets it and a blocking edit
    must swap) or to random values; one in four constrains pixels only to
    the image's values, so the image meets it with free pixels left."""
    pixels = image.num_pixels
    kind = int(rng.integers(0, 4))
    if kind == 0:
        values = image.bits if rng.integers(0, 2) else tuple(rng.integers(0, 2, pixels).tolist())
        return RuleLevel.of(ones=[i for i in range(pixels) if values[i]],
                            zeros=[i for i in range(pixels) if not values[i]])
    if kind == 1:
        kept = rng.integers(0, 2, pixels)
        return RuleLevel.of(ones=[i for i in range(pixels) if kept[i] and image.bits[i]],
                            zeros=[i for i in range(pixels) if kept[i] and not image.bits[i]])
    return random_rule(rng, image.width, image.height, 1).levels[0]


def random_update(rng):
    """An update's inputs: a full space up to 3x3 or an envelope of radius
    0-2, a 1-3 level rule model, an image of the space or any image, any
    target (now and then of the wrong length), and reference labels from a
    rule model or a random 0/1 matrix (now and then of the wrong level
    count)."""
    width, height = random_grid(rng)
    matrix = space_matrix(random_space(rng, width, height))
    if rng.integers(0, 2):
        image = BinaryImage(width, height, tuple(matrix[int(rng.integers(0, len(matrix)))].tolist()))
    else:
        image = random_image(rng, width, height)
    levels = int(rng.integers(1, 4))
    model = RuleModel(width, height, tuple(random_level(rng, image) for _ in range(levels)))
    target_levels = levels if rng.integers(0, 20) else int(rng.integers(1, 4))
    target = rng.integers(0, 2, target_levels).astype(np.uint8)
    ref_levels = levels if rng.integers(0, 20) else int(rng.integers(1, 4))
    if rng.integers(0, 2):
        reference = level_label_matrix(random_rule(rng, width, height, ref_levels), matrix)
    else:
        reference = rng.integers(0, 2, (ref_levels, len(matrix))).astype(np.uint8)
    return model, image, target, matrix, reference


def outcome(update, args):
    try:
        return update(*args)
    except Exception as err:  # the error's type is part of the outcome
        return type(err)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_rule_update_matches_two_path_copy(seed):
    args = random_update(np.random.default_rng(seed))
    assert outcome(models.rule_update, args) == outcome(rule_update, args)
