"""The packed-bit rule path against the uint8 forms it replaced.

A run keeps its labels, disagreements and query region as little-endian
uint64 words (``imagespace.pack_bits``, ``imagespace.pack_columns``,
``imagespace.SpaceRows``, ``models.rule_bits``, ``models.level_label_matrix``,
``metrics.disagreement``) and picks queries by bit position
(``engine._nth_bit``, ``engine._rank``). On generated full spaces and
envelopes up to 3x3, whose row counts are rarely a multiple of 64, and on
one-row radius-0 envelopes, each must give what the uint8 arrays give.

The property is derandomized and keeps no example database, so every run
checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diaginterp.engine import (
    EngineConfig,
    _nth_bit,
    _rank,
    run_complete_interpretation,
    run_interpretation,
)
from diaginterp.imagespace import ImageSpaceSpec, SpaceRows, pack_bits, pack_columns, space_matrix
from diaginterp.metrics import EntropyBreakdown, disagreement
from diaginterp.models import RuleLevel, RuleModel, level_label_matrix, rule_bits
from test_properties import random_grid, random_image, random_model, random_rule, random_space
from test_rule_update_reference import _rule_level_labels

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def unpack(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of each row of packed words, as 0/1 bytes."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count, bitorder="little")


def random_case(rng):
    """A space (one draw in six a one-row radius-0 envelope), a 1-3 level
    rule model and a reference with as many levels."""
    width, height = random_grid(rng)
    if rng.integers(0, 6) == 0:
        space = ImageSpaceSpec(width, height, "envelope", (random_image(rng, width, height),), 0)
    else:
        space = random_space(rng, width, height)
    levels = int(rng.integers(1, 4))
    return space, random_rule(rng, width, height, levels), random_model(rng, width, height, levels)


def check_bit_search(words: np.ndarray, n: int) -> None:
    positions = np.flatnonzero(unpack(words, n))
    for k, position in enumerate(positions):
        assert _nth_bit(words, k) == position
    for start in range(n + 1):
        assert _rank(words, start) == np.searchsorted(positions, start)


@PROPERTY_SETTINGS
@given(SEEDS)
def test_packed_rule_path_matches_the_uint8_arrays(seed):
    rng = np.random.default_rng(seed)
    space, model, reference = random_case(rng)
    matrix = space_matrix(space)
    n = len(matrix)
    columns = pack_columns(matrix)
    labels = rule_bits(model.levels, columns)
    expected = np.array([_rule_level_labels(level, matrix) for level in model.levels])
    assert np.array_equal(unpack(labels, n), expected)
    assert np.array_equal(level_label_matrix(model, matrix), labels)
    # padding bits stay 0
    assert int(np.bitwise_count(labels).sum()) == int(expected.sum())

    # Labels on a SpaceRows, whose columns every labelling shares, equal the
    # labels on its bare matrix, for a real-valued reference too.
    rows = SpaceRows(space)
    assert np.array_equal(level_label_matrix(model, rows), labels)
    ref_bits = level_label_matrix(reference, rows)
    assert np.array_equal(ref_bits, level_label_matrix(reference, matrix))
    # A bare matrix whose row count is not a multiple of 64 is packed with
    # padding in its last word, which stays 0.
    part = matrix[: n - (n % 64 == 0)]
    assert len(part) % 64
    part_bits = level_label_matrix(model, part)
    assert np.array_equal(part_bits, rule_bits(model.levels, pack_columns(part)))
    assert int(np.bitwise_count(part_bits).sum()) == int(expected[:, : len(part)].sum())

    ref_labels = unpack(ref_bits, n)
    assert np.array_equal(pack_bits(ref_labels), ref_bits)
    top_only = bool(rng.integers(0, 2))
    breakdown, region = disagreement(labels, ref_bits, top_only, n)
    plain, plain_region = disagreement(expected.astype(np.uint8), ref_labels, top_only, n)
    # the compared levels' disagreements, from the unpacked labels
    differ = (expected != ref_labels)[-1:] if top_only else expected != ref_labels
    assert breakdown == plain == EntropyBreakdown.from_counts(differ.sum(axis=1), n)
    assert np.array_equal(unpack(region, n), differ.any(axis=0))
    assert np.array_equal(plain_region, differ.any(axis=0))
    check_bit_search(region, n)
    check_bit_search(pack_bits(rng.random((1, n)) < rng.random())[0], n)


@pytest.mark.parametrize("rows", [1, 63, 64, 16_384, 40_001])
def test_pack_columns_stitches_its_row_blocks(rows):
    # pack_columns packs 16,384 rows at a time; the spaces above stay in one
    matrix = np.random.default_rng(rows).integers(0, 2, (rows, 7), dtype=np.uint8)
    expected = np.vstack([matrix.T, np.ones(rows, dtype=np.uint8)])
    packed = pack_columns(matrix)
    assert packed.shape == (8, -(-rows // 64))
    assert np.array_equal(unpack(packed, rows), expected)
    assert int(np.bitwise_count(packed).sum()) == int(expected.sum())


@PROPERTY_SETTINGS
@given(SEEDS)
def test_zero_entropy_starts_keep_their_terminations(seed):
    """An agreeing pair ends in no_disagreement; a pair that disagrees on
    every image at one level, by pixel j required 1 against required 0,
    ends in entropy_zero."""
    rng = np.random.default_rng(seed)
    space, model, _ = random_case(rng)
    k = int(rng.integers(0, len(model.levels)))
    j = int(rng.integers(0, space.num_pixels))
    levels = list(model.levels)
    levels[k] = RuleLevel.of(ones=[j])
    flipped = list(levels)
    flipped[k] = RuleLevel.of(zeros=[j])
    model = RuleModel(space.width, space.height, tuple(levels))
    opposite = RuleModel(space.width, space.height, tuple(flipped))
    runs = [run_interpretation]
    if space.mode == "full":
        runs.append(run_complete_interpretation)
    for run in runs:
        same = run(EngineConfig(space=space, model_a=model, model_b=model))
        assert (same.termination, same.steps) == ("no_disagreement", ())
        apart = run(EngineConfig(space=space, model_a=model, model_b=opposite))
        assert (apart.termination, apart.steps) == ("entropy_zero", ())
        assert apart.initial_entropy.total == 0.0
