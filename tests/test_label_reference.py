"""Blocked real-valued labels against a verbatim copy of the one-shot form.

The copy below (``one_shot_labels``) casts the whole matrix to float64 and
scores it in one expression. ``diaginterp.models.level_label_matrix`` scores
linear models and nets one block of ``_LABEL_BLOCK`` rows at a time and packs
the labels into 64-bit words; it must give the copy's labels packed by
``pack_bits``, word for word, with every padding bit 0. The property shrinks
the block to 1-7 rows, so a space of two rows or more spans several blocks.

The property is derandomized and keeps no example database, so every run
checks the same examples.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import diaginterp.models as models
from diaginterp.imagespace import ImageSpaceSpec, pack_bits, space_matrix
from diaginterp.models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    init_neural,
    level_label_matrix,
    neural_forward,
)
from test_properties import random_grid, random_linear, random_space

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


# ---------------------------------------------------------------------------
# The one-shot real-valued labels, copied verbatim
# ---------------------------------------------------------------------------


def one_shot_labels(model, matrix: np.ndarray) -> np.ndarray:
    if isinstance(model, LinearModel):
        scores = matrix.astype(np.float64) @ model.weights + model.bias
        return (scores > 0.0).astype(np.uint8)[None, :]
    if isinstance(model, NeuralModel):
        probs = neural_forward(model, matrix.astype(np.float64))
        return (probs > 0.5).astype(np.uint8)[None, :]
    raise AssertionError(f"not a real-valued model: {type(model).__name__}")


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


def random_deep_net(rng, width, height):
    """A net with 1-2 hidden layers of 1-5 units, each relu or sigmoid."""
    layers, fan_in = [], width * height
    for _ in range(int(rng.integers(1, 3))):
        units = int(rng.integers(1, 6))
        activation = ("relu", "sigmoid")[int(rng.integers(0, 2))]
        layers.append(NeuralLayer(rng.normal(size=(fan_in, units)), rng.normal(size=units), activation))
        fan_in = units
    layers.append(NeuralLayer(rng.normal(size=(fan_in, 1)), rng.normal(size=1), "sigmoid"))
    return NeuralModel(width, height, tuple(layers))


@PROPERTY_SETTINGS
@given(SEEDS, st.integers(min_value=1, max_value=7))
def test_blocked_labels_match_one_shot_copy(seed, block):
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    matrix = space_matrix(random_space(rng, width, height))
    if rng.integers(0, 2):
        model = random_linear(rng, width, height)
    else:
        model = random_deep_net(rng, width, height)
    with mock.patch.object(models, "_LABEL_BLOCK", min(block, max(1, len(matrix) - 1))):
        labels = level_label_matrix(model, matrix)
    expected = pack_bits(one_shot_labels(model, matrix))
    assert labels.dtype == expected.dtype and labels.shape == expected.shape
    assert np.array_equal(labels, expected)
    # the bits past the last image, read without pack_bits, are all 0
    padding = np.unpackbits(labels.view(np.uint8), axis=1, bitorder="little")[:, len(matrix):]
    assert not padding.any()


def test_full_4x4_space_in_default_blocks_matches_one_shot_copy():
    matrix = space_matrix(ImageSpaceSpec(4, 4, "full"))
    assert len(matrix) == 64 * models._LABEL_BLOCK
    rng = np.random.default_rng(11)
    for model in (random_linear(rng, 4, 4), init_neural([16, 64, 1], 4, 4, rng_seed=11)):
        labels = level_label_matrix(model, matrix)
        assert 0 < np.bitwise_count(labels).sum() < len(matrix)
        assert np.array_equal(labels, pack_bits(one_shot_labels(model, matrix)))
