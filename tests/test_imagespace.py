import numpy as np
import pytest

from diaginterp.errors import InvalidSpecError, SpaceTooLargeError
from diaginterp.imagespace import (
    BinaryImage,
    ImageSpaceSpec,
    SpaceCardinality,
    cardinality_full,
    enumerate_space,
    envelope_size_bound,
    space_cardinality,
    space_matrix,
    spec_from_json,
    spec_to_json,
)


def full_spec(w, h):
    return ImageSpaceSpec(w, h, "full")


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
        assert img.flip(0).to_string() == "1110"
        assert BinaryImage.from_string(2, 2, img.to_string()) == img

    def test_rejects_non_bits(self):
        with pytest.raises(InvalidSpecError):
            BinaryImage(1, 2, (0, 2))


class TestCardinality:
    def test_4x4_space_size(self):
        card = cardinality_full(4, 4)
        assert card.exact_value == 65536
        assert card.log2_value == 16.0

    def test_16x16_space_size(self):
        card = cardinality_full(16, 16)
        assert card.exact_value == 2**256
        assert card.log2_value == 256.0

    def test_single_pixel(self):
        assert cardinality_full(1, 1).exact_value == 2

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidSpecError):
            cardinality_full(0, 4)

    def test_digit_budget_drops_exact_value(self):
        card = cardinality_full(16, 16, digit_budget=10)
        assert card.exact_value is None
        assert card.log2_value == 256.0

    def test_log2_consistency_enforced(self):
        with pytest.raises(InvalidSpecError):
            SpaceCardinality(log2_value=3.0, exact_value=9)


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
        spec = ImageSpaceSpec(2, 2, "envelope", (base, base, base.flip(0)), flip_radius=0)
        images = enumerate_space(spec)
        assert images == (base, base.flip(0))

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
        assert images[2] == main.flip(0)
        assert images == enumerate_space(spec)

    def test_envelope_matches_oracle_enumeration(self):
        # the oracle enumerates with its own scalar loop and dedup; order and
        # content must agree, duplicates and overlapping flips included
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
                assert [img.bits for img in images] == list(_iterate_space(spec))
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

    def test_envelope_guard_names_limit(self):
        base = BinaryImage.from_string(4, 4, "0" * 16)
        spec = ImageSpaceSpec(4, 4, "envelope", (base,), flip_radius=2)
        with pytest.raises(SpaceTooLargeError, match="limit"):
            enumerate_space(spec, max_images=10)

    def test_envelope_cardinality_exact(self):
        main = BinaryImage.from_pixels(4, 4, [0, 5, 10, 15])
        anti = BinaryImage.from_pixels(4, 4, [3, 6, 9, 12])
        spec = ImageSpaceSpec(4, 4, "envelope", (main, anti), flip_radius=1)
        assert space_cardinality(spec).exact_value == 34


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
