"""Binary-image spaces: specification, enumeration, cardinality.

Every evaluation set in this package is either the full space of
``width x height`` binary images or a flip envelope: a set of base images
together with every image within a fixed Hamming radius of one of them.

In memory a materialized set is a single read-only ``(n_images, n_pixels)``
uint8 matrix, one row per image (space_matrix). Per-image BinaryImage objects
are built from its rows only at the API edge (enumerate_space) and for the
images a run actually queries.

Enumeration order is part of the contract:

* full mode -- lexicographic on the row-major bit string. Pixel 0 is the most
  significant bit, so the all-zeros image comes first and the all-ones image
  last.
* envelope mode -- base images in the order given (duplicates dropped, first
  occurrence kept), then flipped variants ordered by flip count (1..radius),
  then base index, then the ascending tuple of flipped pixel indices;
  duplicates are dropped the same way.

Both orders are stable across runs and platforms, which is what makes the
golden-sequence tests and seeded sampling reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidSpecError, SpaceTooLargeError

# Full-space enumeration refuses grids with more pixels than this.
FULL_ENUMERATION_PIXEL_LIMIT = 24

# Envelope enumeration refuses to materialize more images than this.
DEFAULT_ENVELOPE_IMAGE_LIMIT = 10_000_000

# exact_value is dropped from a SpaceCardinality past this many decimal digits.
DEFAULT_EXACT_DIGIT_BUDGET = 10_000


@dataclass(frozen=True)
class BinaryImage:
    """A fixed-size 2D bit grid, stored row-major.

    Immutable and hashable; two images are equal iff their dimensions and all
    bits are equal.
    """

    width: int
    height: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise InvalidSpecError(
                f"image dimensions must be positive, got {self.width}x{self.height}"
            )
        if len(self.bits) != self.width * self.height:
            raise InvalidSpecError(
                f"expected {self.width * self.height} bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidSpecError("image bits must all be 0 or 1")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    @classmethod
    def from_string(cls, width: int, height: int, text: str) -> "BinaryImage":
        """Build an image from a row-major '0'/'1' string."""
        if any(c not in "01" for c in text):
            raise InvalidSpecError(f"bitstring may only contain 0/1, got {text!r}")
        return cls(width, height, tuple(int(c) for c in text))

    @classmethod
    def from_pixels(cls, width: int, height: int, on_pixels) -> "BinaryImage":
        """Build an image with the given pixel indices set to 1."""
        bits = [0] * (width * height)
        for i in on_pixels:
            bits[i] = 1
        return cls(width, height, tuple(bits))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def flip(self, index: int) -> "BinaryImage":
        """Return a copy with one pixel inverted."""
        if not 0 <= index < self.num_pixels:
            raise InvalidSpecError(f"pixel index {index} out of range")
        bits = list(self.bits)
        bits[index] ^= 1
        return BinaryImage(self.width, self.height, tuple(bits))

    def to_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)


@dataclass(frozen=True)
class ImageSpaceSpec:
    """Declarative description of an evaluation set of binary images.

    ``mode='full'`` denotes all 2^(width*height) images; ``mode='envelope'``
    denotes the given base images plus every image within Hamming distance
    ``flip_radius`` of one of them, deduplicated.
    """

    width: int
    height: int
    mode: str
    base_images: tuple[BinaryImage, ...] = field(default=())
    flip_radius: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise InvalidSpecError(
                f"space dimensions must be positive, got {self.width}x{self.height}"
            )
        if self.mode not in ("full", "envelope"):
            raise InvalidSpecError(f"mode must be 'full' or 'envelope', got {self.mode!r}")
        if self.flip_radius < 0:
            raise InvalidSpecError(f"flip_radius must be nonnegative, got {self.flip_radius}")
        if self.mode == "full":
            if self.base_images or self.flip_radius:
                raise InvalidSpecError("full mode takes no base images or flip radius")
        else:
            if not self.base_images:
                raise InvalidSpecError("envelope mode requires at least one base image")
            for img in self.base_images:
                if (img.width, img.height) != (self.width, self.height):
                    raise InvalidSpecError(
                        f"base image is {img.width}x{img.height}, "
                        f"space is {self.width}x{self.height}"
                    )

    @property
    def num_pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class SpaceCardinality:
    """Set size carried in log2 form, with the exact integer when it is small
    enough to keep around.

    The log2 form is what downstream confidence ratios are computed from, so
    spaces like 2^256 never have to pass through a float division.
    """

    log2_value: float
    exact_value: int | None = None

    def __post_init__(self) -> None:
        if self.exact_value is not None:
            if self.exact_value < 0:
                raise InvalidSpecError("cardinality cannot be negative")
            agreement = abs(_log2_of_int(self.exact_value) - self.log2_value)
            if agreement > 1e-9:
                raise InvalidSpecError(
                    f"log2_value {self.log2_value} disagrees with exact value "
                    f"(log2 = {_log2_of_int(self.exact_value)})"
                )

    @classmethod
    def from_int(
        cls, value: int, digit_budget: int = DEFAULT_EXACT_DIGIT_BUDGET
    ) -> "SpaceCardinality":
        if value <= 0:
            raise InvalidSpecError(f"cardinality must be positive, got {value}")
        log2_value = _log2_of_int(value)
        if _decimal_digits(value) > digit_budget:
            return cls(log2_value=log2_value, exact_value=None)
        return cls(log2_value=log2_value, exact_value=value)


def _log2_of_int(value: int) -> float:
    """log2 of a nonnegative int, safe for values far beyond float range."""
    if value == 0:
        return float("-inf")
    nbits = value.bit_length()
    if nbits <= 53:
        return math.log2(value)
    shift = nbits - 53
    return math.log2(value >> shift) + shift


def _decimal_digits(value: int) -> int:
    # bit_length * log10(2) is within 1 of the digit count; exact enough
    # for a budget check with slack.
    return int(value.bit_length() * 0.30103) + 1


def cardinality_full(
    width: int, height: int, digit_budget: int = DEFAULT_EXACT_DIGIT_BUDGET
) -> SpaceCardinality:
    """Cardinality of the full space of width x height binary images."""
    if width < 1 or height < 1:
        raise InvalidSpecError(f"dimensions must be positive, got {width}x{height}")
    pixels = width * height
    exact = 1 << pixels
    if _decimal_digits(exact) > digit_budget:
        return SpaceCardinality(log2_value=float(pixels), exact_value=None)
    return SpaceCardinality(log2_value=float(pixels), exact_value=exact)


def envelope_size_bound(spec: ImageSpaceSpec) -> int:
    """Upper bound |base| * (1 + sum_j C(pixels, j)) on an envelope's size."""
    if spec.mode != "envelope":
        raise InvalidSpecError("size bound is defined for envelope mode only")
    per_base = 1 + sum(math.comb(spec.num_pixels, j) for j in range(1, spec.flip_radius + 1))
    return len(spec.base_images) * per_base


def enumerate_space(
    spec: ImageSpaceSpec, max_images: int = DEFAULT_ENVELOPE_IMAGE_LIMIT
) -> tuple[BinaryImage, ...]:
    """Materialize the set described by ``spec`` in its canonical order.

    Yields each image exactly once. Raises SpaceTooLargeError when the full
    space exceeds 2^24 images or an envelope would exceed ``max_images``.
    """
    matrix = space_matrix(spec, max_images)
    return tuple(
        BinaryImage(spec.width, spec.height, tuple(row)) for row in matrix.tolist()
    )


def space_matrix(
    spec: ImageSpaceSpec, max_images: int = DEFAULT_ENVELOPE_IMAGE_LIMIT
) -> np.ndarray:
    """The enumerated space as a read-only (n_images, n_pixels) uint8 matrix.

    Row order matches enumerate_space.
    """
    if spec.mode == "full":
        return _materialize_full(spec)
    return _materialize_envelope(spec, max_images)


def _materialize_full(spec: ImageSpaceSpec) -> np.ndarray:
    pixels = spec.num_pixels
    if pixels > FULL_ENUMERATION_PIXEL_LIMIT:
        raise SpaceTooLargeError(
            f"full enumeration guard: {spec.width}x{spec.height} has {pixels} pixels, "
            f"limit is {FULL_ENUMERATION_PIXEL_LIMIT}"
        )
    count = 1 << pixels
    codes = np.arange(count, dtype=np.uint32)
    shifts = np.arange(pixels - 1, -1, -1, dtype=np.uint32)
    matrix = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    matrix.setflags(write=False)
    return matrix


def _materialize_envelope(spec: ImageSpaceSpec, max_images: int) -> np.ndarray:
    pixels = spec.num_pixels
    # One base alone yields exactly 1 + sum_j C(pixels, j) distinct images,
    # so that is a guaranteed lower bound on the envelope's size.
    single_base = 1 + sum(math.comb(pixels, j) for j in range(1, spec.flip_radius + 1))
    if single_base > max_images:
        raise SpaceTooLargeError(
            f"envelope guard: at least {single_base} images per base, "
            f"materialization limit is {max_images}"
        )
    # Rows are deduplicated by their raw bytes; dict insertion order keeps the
    # first occurrence of each, which is the canonical order.
    row_bytes = np.dtype((np.void, pixels))
    seen: dict[bytes, None] = {}

    def _add(rows: np.ndarray) -> None:
        seen.update(dict.fromkeys(np.ascontiguousarray(rows).view(row_bytes).ravel().tolist()))
        if len(seen) > max_images:
            raise SpaceTooLargeError(
                f"envelope guard: materialization limit {max_images} exceeded"
            )

    bases = np.array([img.bits for img in spec.base_images], dtype=np.uint8)
    _add(bases)
    for radius in range(1, spec.flip_radius + 1):
        flips = np.array(list(combinations(range(pixels), radius)), dtype=np.intp)
        flips = flips.reshape(-1, radius)
        masks = np.zeros((len(flips), pixels), dtype=np.uint8)
        masks[np.arange(len(flips))[:, None], flips] = 1
        for base in bases:
            _add(base ^ masks)

    matrix = np.frombuffer(b"".join(seen), dtype=np.uint8).reshape(len(seen), pixels)
    matrix.setflags(write=False)
    return matrix


def space_cardinality(spec: ImageSpaceSpec) -> SpaceCardinality:
    """Exact cardinality of the set described by ``spec``."""
    if spec.mode == "full":
        return cardinality_full(spec.width, spec.height)
    return SpaceCardinality.from_int(space_matrix(spec).shape[0])


def spec_to_json(spec: ImageSpaceSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "mode": spec.mode,
        "base_images": [img.to_string() for img in spec.base_images],
        "flip_radius": spec.flip_radius,
    }


def spec_from_json(doc: dict) -> ImageSpaceSpec:
    try:
        width = int(doc["width"])
        height = int(doc["height"])
        mode = doc["mode"]
    except KeyError as missing:
        raise InvalidSpecError(f"space document missing key {missing}") from None
    bases = tuple(
        BinaryImage.from_string(width, height, text) for text in doc.get("base_images", [])
    )
    return ImageSpaceSpec(
        width=width,
        height=height,
        mode=mode,
        base_images=bases,
        flip_radius=int(doc.get("flip_radius", 0)),
    )
