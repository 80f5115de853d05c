import tracemalloc

import numpy as np
import pytest

from diaginterp import imagespace
from diaginterp.errors import InvalidSpecError, SpaceTooLargeError
from diaginterp.fixtures import two_squares_bases
from diaginterp.imagespace import (
    BinaryImage,
    ImageSpaceSpec,
    enumerate_space,
    envelope_size_bound,
    space_matrix,
    spec_from_json,
    spec_to_json,
)
from diaginterp.metrics import confidence_epsilon


def full_spec(w, h):
    return ImageSpaceSpec(w, h, "full")


def flip(image, index):
    """``image`` with pixel ``index`` inverted."""
    bits = list(image.bits)
    bits[index] ^= 1
    return BinaryImage(image.width, image.height, tuple(bits))


class TestBinaryImage:
    def test_bit_count_enforced(self):
        with pytest.raises(InvalidSpecError):
            BinaryImage(2, 2, (0, 1, 0))

    def test_equality_needs_matching_dimensions(self):
        a = BinaryImage(2, 2, (0, 0, 0, 0))
        b = BinaryImage(4, 1, (0, 0, 0, 0))
        assert a != b
        assert a == BinaryImage(2, 2, (0, 0, 0, 0))

    def test_flip_and_string_round_trip(self):
        img = BinaryImage.from_string(2, 2, "0110")
        assert flip(img, 0).to_string() == "1110"
        assert BinaryImage.from_string(2, 2, img.to_string()) == img

    def test_rejects_non_bits(self):
        for bits in ((0, 2), (0, -1), (0, 256), (0, 0.5), (1.0, 0), (np.float64(1.0), 0),
                     (0, None), (0, [1]), (0, {1: 1})):
            with pytest.raises(InvalidSpecError):
                BinaryImage(1, 2, bits)

    def test_integer_bits_write_out(self):
        for bits in ((1, 0), (True, False), (np.int64(1), np.uint8(0))):
            assert BinaryImage(1, 2, bits).to_string() == "10"

    def test_from_string_rejects_non_bits(self):
        for text in ("02", "0 ", "1a"):
            with pytest.raises(InvalidSpecError):
                BinaryImage.from_string(1, 2, text)


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
        main = BinaryImage.from_pixels(4, 4, [0, 5, 10, 15])
        anti = BinaryImage.from_pixels(4, 4, [3, 6, 9, 12])
        spec = ImageSpaceSpec(4, 4, "envelope", (main, anti), flip_radius=1)
        images = enumerate_space(spec)
        assert len(images) == 34
        assert len(set(images)) == 34

    def test_single_base_one_flip_envelope(self):
        # brute force: the all-zero 2x2 base plus its 4 single-flip variants,
        # all distinct
        base = BinaryImage.from_string(2, 2, "0000")
        spec = ImageSpaceSpec(2, 2, "envelope", (base,), flip_radius=1)
        images = enumerate_space(spec)
        expected = {"0000", "1000", "0100", "0010", "0001"}
        assert {img.to_string() for img in images} == expected

    def test_flip_radius_zero_keeps_deduped_bases(self):
        base = BinaryImage.from_string(2, 2, "0110")
        spec = ImageSpaceSpec(2, 2, "envelope", (base, base, flip(base, 0)), flip_radius=0)
        images = enumerate_space(spec)
        assert images == (base, flip(base, 0))

    def test_size_never_exceeds_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            bases = tuple(
                BinaryImage(3, 3, tuple(int(b) for b in rng.integers(0, 2, 9)))
                for _ in range(3)
            )
            spec = ImageSpaceSpec(3, 3, "envelope", bases, flip_radius=2)
            assert len(enumerate_space(spec)) <= envelope_size_bound(spec)

    def test_full_order_is_lexicographic_golden(self):
        # pixel 0 is the most significant bit of the bitstring
        images = enumerate_space(full_spec(3, 3))
        assert len(images) == 512
        strings = [img.to_string() for img in images]
        assert strings[:4] == ["000000000", "000000001", "000000010", "000000011"]
        assert strings[5] == "000000101"
        assert strings[-1] == "111111111"
        assert strings == sorted(strings)

    def test_envelope_order_is_stable(self):
        main = BinaryImage.from_pixels(4, 4, [0, 5, 10, 15])
        anti = BinaryImage.from_pixels(4, 4, [3, 6, 9, 12])
        spec = ImageSpaceSpec(4, 4, "envelope", (main, anti), flip_radius=1)
        images = enumerate_space(spec)
        assert images[0] == main
        assert images[1] == anti
        assert images[2] == flip(main, 0)
        assert images == enumerate_space(spec)

    def test_envelope_matches_oracle_enumeration(self):
        # the oracle enumerates image codes (the bitstring read in base 2)
        # with its own scalar loop and dedup; order and content must agree,
        # duplicates and overlapping flips included
        from diaginterp.oracle import _iterate_space

        rng = np.random.default_rng(3)
        for radius in range(4):
            for _ in range(5):
                bases = [tuple(int(b) for b in rng.integers(0, 2, 9)) for _ in range(3)]
                bases.append(bases[0])
                spec = ImageSpaceSpec(
                    3, 3, "envelope", tuple(BinaryImage(3, 3, b) for b in bases), radius
                )
                images = enumerate_space(spec)
                assert [int(img.to_string(), 2) for img in images] == list(_iterate_space(spec))
        tiny = ImageSpaceSpec(1, 1, "envelope", (BinaryImage(1, 1, (0,)),), flip_radius=2)
        assert [img.bits for img in enumerate_space(tiny)] == [(0,), (1,)]

    def test_matrix_matches_images(self):
        spec = full_spec(2, 2)
        matrix = space_matrix(spec)
        images = enumerate_space(spec)
        for row, img in zip(matrix, images):
            assert tuple(int(b) for b in row) == img.bits

    def test_full_guard(self):
        with pytest.raises(SpaceTooLargeError):
            enumerate_space(full_spec(5, 5))
        with pytest.raises(SpaceTooLargeError, match="4x6 full"):
            space_matrix(full_spec(4, 6))

    def test_radius_past_pixels_is_the_whole_ball(self):
        base = BinaryImage.from_string(2, 2, "0110")
        huge = ImageSpaceSpec(2, 2, "envelope", (base,), flip_radius=10**9)
        assert envelope_size_bound(huge) == 16
        assert sorted(img.to_string() for img in enumerate_space(huge)) == [
            img.to_string() for img in enumerate_space(full_spec(2, 2))
        ]

    def test_envelope_guard_names_limit(self, monkeypatch):
        base = BinaryImage.from_string(4, 4, "0" * 16)
        spec = ImageSpaceSpec(4, 4, "envelope", (base,), flip_radius=2)
        monkeypatch.setattr(imagespace, "MATERIALIZE_BYTE_LIMIT", 1000)
        with pytest.raises(SpaceTooLargeError, match="limit"):
            enumerate_space(spec)

    def test_envelope_cardinality_exact(self):
        main = BinaryImage.from_pixels(4, 4, [0, 5, 10, 15])
        anti = BinaryImage.from_pixels(4, 4, [3, 6, 9, 12])
        spec = ImageSpaceSpec(4, 4, "envelope", (main, anti), flip_radius=1)
        assert space_matrix(spec).shape[0] == 34


def random_envelope(width, height, bases, radius, seed):
    rng = np.random.default_rng(seed)
    images = tuple(
        BinaryImage(width, height, tuple(int(b) for b in rng.integers(0, 2, width * height)))
        for _ in range(bases)
    )
    return ImageSpaceSpec(width, height, "envelope", images, flip_radius=radius)


def eval_squares_envelope():
    bases = tuple(BinaryImage(8, 8, tuple(row)) for row in two_squares_bases()[0].tolist())
    return ImageSpaceSpec(8, 8, "envelope", bases, flip_radius=1)


GUARDED_SPACES = {
    "full-2x2": lambda: full_spec(2, 2),
    "full-4x4": lambda: full_spec(4, 4),
    "full-3x6": lambda: full_spec(3, 6),
    "full-4x5": lambda: full_spec(4, 5),
    "eval-squares": eval_squares_envelope,
    "4x4-radius-3": lambda: random_envelope(4, 4, 1, 3, seed=1),
    "5x5-20-bases-radius-3": lambda: random_envelope(5, 5, 20, 3, seed=2),
}


class TestMaterializeGuard:
    @pytest.mark.parametrize("name", GUARDED_SPACES)
    def test_estimate_is_the_peak(self, name):
        # the guard's estimate bounds what materializing really allocates,
        # and is not a loose overestimate of it either
        spec = GUARDED_SPACES[name]()
        estimate = imagespace._materialize_bytes(spec)
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

    def test_base_dimensions_must_match(self):
        base = BinaryImage.from_string(2, 2, "0000")
        with pytest.raises(InvalidSpecError):
            ImageSpaceSpec(3, 3, "envelope", (base,), flip_radius=1)

    def test_unknown_mode(self):
        with pytest.raises(InvalidSpecError):
            ImageSpaceSpec(2, 2, "everything")

    def test_json_round_trip(self):
        main = BinaryImage.from_pixels(4, 4, [0, 5, 10, 15])
        spec = ImageSpaceSpec(4, 4, "envelope", (main,), flip_radius=1)
        assert spec_from_json(spec_to_json(spec)) == spec
        full = full_spec(3, 3)
        assert spec_from_json(spec_to_json(full)) == full
