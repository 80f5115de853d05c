import tracemalloc

import numpy as np
import pytest

from diaginterp import imagespace
from diaginterp.errors import InvalidSpecError, SpaceTooLargeError
from diaginterp.fixtures import diagonal_images, two_squares_bases
from diaginterp.imagespace import (
    ImageSpaceSpec,
    SpaceRows,
    bitstrings_to_rows,
    enumerate_space,
    envelope_size_bound,
    full_columns,
    pack_columns,
    rows_to_bitstrings,
    space_matrix,
    spec_from_json,
    spec_to_json,
)
from diaginterp.metrics import confidence_epsilon


def full_spec(w, h):
    return ImageSpaceSpec(w, h, "full")


MAIN, ANTI = diagonal_images()


def flip(text, index):
    """The bitstring ``text`` with pixel ``index`` inverted."""
    return text[:index] + "10"[int(text[index])] + text[index + 1 :]


def envelope(width, height, *bases, radius=0):
    return ImageSpaceSpec(width, height, "envelope", bases, flip_radius=radius)


class TestBinaryImage:
    """A binary image at the JSON edge: its row-major bitstring, checked as
    a spec's base image and converted to and from matrix rows."""

    def test_bit_count_enforced(self):
        for text in ("010", "01010"):
            with pytest.raises(InvalidSpecError, match="is not a 4-bit string"):
                envelope(2, 2, text)

    def test_rejects_non_bits(self):
        # only a str is a base image: not its bits, nor a list of its characters
        for base in ((1, 0), [1, 0], ["1", "0"], b"10", 10, 1.0, None, {"1": 0}):
            with pytest.raises(InvalidSpecError, match="is not a 2-bit string"):
                envelope(1, 2, base)

    def test_integer_bits_write_out(self):
        for bits in ((1, 0), (True, False), (np.int64(1), np.uint8(0))):
            assert rows_to_bitstrings([bits]) == ("10",)

    def test_from_string_rejects_non_bits(self):
        for text in ("02", "0 ", "1a"):
            with pytest.raises(InvalidSpecError):
                envelope(1, 2, text)
            with pytest.raises(InvalidSpecError):
                spec_from_json(spec_to_json(envelope(1, 2, "10")) | {"base_images": [text]})

    def test_rows_and_bitstrings_round_trip(self):
        texts = ("0110", "1110", "0000")
        rows = bitstrings_to_rows(texts, 4)
        assert rows.dtype == np.uint8
        assert rows.tolist() == [[0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 0]]
        assert rows_to_bitstrings(rows) == texts


class TestCardinality:
    def test_4x4_space_size(self):
        spec = full_spec(4, 4)
        assert space_matrix(spec).shape[0] == 65536 == 2**spec.num_pixels

    def test_16x16_space_size(self):
        # too large to enumerate; its size lives on as 2^pixels, exactly
        assert full_spec(16, 16).num_pixels == 256
        assert confidence_epsilon(2**256, 256).log2_epsilon == 0.0
        assert confidence_epsilon(1, 256).log2_epsilon == -256.0

    def test_single_pixel(self):
        assert len(enumerate_space(full_spec(1, 1))) == 2

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidSpecError):
            full_spec(0, 4)


class TestEnumeration:
    def test_full_2x2_has_16_images(self):
        images = enumerate_space(full_spec(2, 2))
        assert len(images) == 16
        assert len(set(images)) == 16

    def test_diagonal_envelope_has_34_images(self):
        images = enumerate_space(envelope(4, 4, MAIN, ANTI, radius=1))
        assert len(images) == 34
        assert len(set(images)) == 34

    def test_single_base_one_flip_envelope(self):
        # brute force: the all-zero 2x2 base plus its 4 single-flip variants,
        # all distinct
        images = enumerate_space(envelope(2, 2, "0000", radius=1))
        expected = {"0000", "1000", "0100", "0010", "0001"}
        assert set(images) == expected

    def test_flip_radius_zero_keeps_deduped_bases(self):
        base = "0110"
        images = enumerate_space(envelope(2, 2, base, base, flip(base, 0)))
        assert images == (base, "1110")

    def test_size_never_exceeds_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            bases = ("".join(map(str, rng.integers(0, 2, 9))) for _ in range(3))
            spec = envelope(3, 3, *bases, radius=2)
            assert len(enumerate_space(spec)) <= envelope_size_bound(spec)

    def test_full_order_is_lexicographic_golden(self):
        # pixel 0 is the most significant bit of the bitstring
        images = enumerate_space(full_spec(3, 3))
        assert len(images) == 512
        strings = list(images)
        assert strings[:4] == ["000000000", "000000001", "000000010", "000000011"]
        assert strings[5] == "000000101"
        assert strings[-1] == "111111111"
        assert strings == sorted(strings)

    def test_envelope_order_is_stable(self):
        spec = envelope(4, 4, MAIN, ANTI, radius=1)
        images = enumerate_space(spec)
        assert images[0] == MAIN
        assert images[1] == ANTI
        assert images[2] == flip(MAIN, 0)
        assert images == enumerate_space(spec)

    def test_envelope_matches_oracle_enumeration(self):
        # the oracle enumerates image codes (the bitstring read in base 2)
        # with its own scalar loop and dedup; order and content must agree,
        # duplicates and overlapping flips included
        from diaginterp.oracle import _iterate_space

        rng = np.random.default_rng(3)
        for radius in range(4):
            for _ in range(5):
                bases = ["".join(map(str, rng.integers(0, 2, 9))) for _ in range(3)]
                bases.append(bases[0])
                spec = envelope(3, 3, *bases, radius=radius)
                images = enumerate_space(spec)
                assert [int(img, 2) for img in images] == list(_iterate_space(spec))
        assert enumerate_space(envelope(1, 1, "0", radius=2)) == ("0", "1")

    def test_matrix_matches_images(self):
        spec = full_spec(2, 2)
        matrix = space_matrix(spec)
        images = enumerate_space(spec)
        for row, img in zip(matrix, images, strict=True):
            assert "".join(map(str, row)) == img

    def test_full_guard(self):
        with pytest.raises(SpaceTooLargeError):
            enumerate_space(full_spec(5, 5))
        with pytest.raises(SpaceTooLargeError, match="4x6 full"):
            space_matrix(full_spec(4, 6))

    @pytest.mark.parametrize("width, log2_bytes", [
        (10**6, 1000019.9), (10**30, 1e30), (10**400, "inf"),
    ], ids=["1e6", "1e30", "1e400"])
    def test_full_guard_never_builds_2_to_the_pixels(self, width, log2_bytes):
        # the guard adds logs: 2^(10^30) cannot be built, and past float
        # range the log is inf
        with pytest.raises(SpaceTooLargeError) as err:
            space_matrix(full_spec(width, 1))
        assert f"full space needs 2^{float(log2_bytes):.1f} bytes" in str(err.value)

    def test_radius_past_pixels_is_the_whole_ball(self):
        huge = envelope(2, 2, "0110", radius=10**9)
        assert envelope_size_bound(huge) == 16
        assert sorted(enumerate_space(huge)) == list(enumerate_space(full_spec(2, 2)))

    def test_envelope_guard_names_limit(self, monkeypatch):
        spec = envelope(4, 4, "0" * 16, radius=2)
        monkeypatch.setattr(imagespace, "MATERIALIZE_BYTE_LIMIT", 1000)
        with pytest.raises(SpaceTooLargeError, match="limit"):
            enumerate_space(spec)

    def test_envelope_cardinality_exact(self):
        spec = envelope(4, 4, MAIN, ANTI, radius=1)
        assert space_matrix(spec).shape[0] == 34


# every full grid of at most 20 pixels; 1x1 through 1x5 have fewer than 64
# images, so their one word has padding bits
SMALL_GRIDS = [(w, h) for w in range(1, 21) for h in range(1, 21) if w * h <= 20]


def check_reads_as_the_matrix(spec) -> SpaceRows:
    """SpaceRows(spec) reads as space_matrix(spec): its shape, int and slice
    indices, and columns, which are the matrix's pack_columns."""
    matrix, rows = space_matrix(spec), SpaceRows(spec)
    assert rows.shape == matrix.shape
    n = len(matrix)
    for index in (0, 1, n // 2, n - 1, -1):
        assert np.array_equal(rows[index], matrix[index])
    for index in (slice(None), slice(1, n - 1), slice(3, 3), slice(n // 3, None, 2)):
        assert np.array_equal(rows[index], matrix[index])
    with pytest.raises(IndexError):
        rows[n]
    expected = pack_columns(matrix)
    assert rows.columns.dtype == expected.dtype
    assert np.array_equal(rows.columns, expected)
    return rows


class TestFullSpaceWithoutMatrix:
    """A full space's columns and rows come from its image codes alone, and
    an envelope's from its matrix; SpaceRows reads both as the matrix reads."""

    @pytest.mark.parametrize("width, height", SMALL_GRIDS, ids=[f"{w}x{h}" for w, h in SMALL_GRIDS])
    def test_full_columns_are_the_packed_matrix(self, width, height):
        columns = full_columns(width * height)
        expected = pack_columns(space_matrix(full_spec(width, height)))
        assert columns.dtype == expected.dtype
        assert np.array_equal(columns, expected)

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 5), (2, 3), (3, 4), (4, 4)])
    def test_rows_decode_as_the_matrix_reads(self, width, height):
        assert check_reads_as_the_matrix(full_spec(width, height)).matrix is None

    def test_envelope_rows_are_the_matrix(self):
        # 34 images in one partial word; 780 images of 64 pixels; two images
        for spec in (envelope(4, 4, MAIN, ANTI, radius=1),
                     envelope(8, 8, *rows_to_bitstrings(two_squares_bases()[0][:12]), radius=1),
                     envelope(2, 2, "0110", "1001", radius=0)):
            rows = check_reads_as_the_matrix(spec)
            assert np.array_equal(rows.matrix, space_matrix(spec))
            assert not rows.matrix.flags.writeable

    @pytest.mark.parametrize("spec", [full_spec(4, 6), full_spec(10**6, 1)], ids=["4x6", "1e6x1"])
    def test_full_rows_share_the_matrix_guard(self, spec):
        with pytest.raises(SpaceTooLargeError) as matrix_error:
            space_matrix(spec)
        with pytest.raises(SpaceTooLargeError) as rows_error:
            SpaceRows(spec)
        assert str(rows_error.value) == str(matrix_error.value)


def random_envelope(width, height, bases, radius, seed):
    rng = np.random.default_rng(seed)
    images = ("".join(map(str, rng.integers(0, 2, width * height))) for _ in range(bases))
    return envelope(width, height, *images, radius=radius)


def eval_squares_envelope():
    return envelope(8, 8, *rows_to_bitstrings(two_squares_bases()[0]), radius=1)


GUARDED_SPACES = {
    "full-2x2": lambda: full_spec(2, 2),
    "full-4x4": lambda: full_spec(4, 4),
    "full-3x6": lambda: full_spec(3, 6),
    "full-4x5": lambda: full_spec(4, 5),
    "eval-squares": eval_squares_envelope,
    "4x4-radius-3": lambda: random_envelope(4, 4, 1, 3, seed=1),
    "5x5-20-bases-radius-3": lambda: random_envelope(5, 5, 20, 3, seed=2),
    # 72 pixels: unique_rows keys these rows by two packed words, not one uint64
    "9x8-200-bases-radius-1": lambda: random_envelope(9, 8, 200, 1, seed=3),
}


class TestMaterializeGuard:
    @pytest.mark.parametrize("name", GUARDED_SPACES)
    def test_estimate_is_the_peak(self, name):
        # the guard's estimate bounds what materializing really allocates,
        # and is not a loose overestimate of it either
        spec = GUARDED_SPACES[name]()
        estimate = 2 ** imagespace._materialize_log2_bytes(spec)
        tracemalloc.start()
        try:
            space_matrix(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert estimate / 2 <= peak <= estimate + (1 << 20)


class TestSpecValidation:
    def test_envelope_requires_bases(self):
        with pytest.raises(InvalidSpecError):
            ImageSpaceSpec(2, 2, "envelope", (), flip_radius=1)

    def test_one_bitstring_is_not_the_base_images(self):
        # a str would split into its characters, each then "not a 4-bit string"
        message = "^base_images must be bitstrings, got one: '0100'$"
        with pytest.raises(InvalidSpecError, match=message):
            ImageSpaceSpec(2, 2, "envelope", "0100", 1)

    def test_base_dimensions_must_match(self):
        with pytest.raises(InvalidSpecError):
            envelope(3, 3, "0000", radius=1)

    def test_unknown_mode(self):
        with pytest.raises(InvalidSpecError):
            ImageSpaceSpec(2, 2, "everything")

    def test_json_round_trip(self):
        spec = envelope(4, 4, MAIN, radius=1)
        assert spec_from_json(spec_to_json(spec)) == spec
        listed = ImageSpaceSpec(4, 4, "envelope", [MAIN], flip_radius=1)
        assert listed == spec and hash(listed) == hash(spec)
        full = full_spec(3, 3)
        assert spec_from_json(spec_to_json(full)) == full
