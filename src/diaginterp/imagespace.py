"""Binary-image spaces: specification, enumeration, cardinality.

Every evaluation set in this package is either the full space of
``width x height`` binary images or a flip envelope: a set of base images
together with every image within a fixed Hamming radius of one of them.

In memory a materialized set is a single read-only ``(n_images, n_pixels)``
uint8 matrix, one row per image (space_matrix). Per-image BinaryImage objects
are built from its rows only at the API edge (enumerate_space) and for the
images a run actually queries.

space_matrix refuses, before allocating, a set whose materialization would
peak above MATERIALIZE_BYTE_LIMIT bytes: 2^pixels rows for a full space, or
envelope_size_bound candidate rows (repeats included) for an envelope, times
the materializer's working bytes per row.

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
from itertools import chain, combinations

import numpy as np

from .errors import InvalidSpecError, SpaceTooLargeError

# space_matrix refuses a set whose materialization needs more working memory
# than this. A full 4x6 space needs 448 MiB and is refused; 4x5 needs 24 MiB.
MATERIALIZE_BYTE_LIMIT = 256 << 20

# exact_value is dropped from a SpaceCardinality past this many decimal
# digits, Python's default limit for converting an int to a string.
EXACT_DIGIT_BUDGET = 4_300


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
            exact_log2 = math.log2(self.exact_value) if self.exact_value else -math.inf
            if abs(exact_log2 - self.log2_value) > 1e-9:
                raise InvalidSpecError(
                    f"log2_value {self.log2_value} disagrees with exact value "
                    f"(log2 = {exact_log2})"
                )

    @classmethod
    def from_int(cls, value: int) -> "SpaceCardinality":
        if value <= 0:
            raise InvalidSpecError(f"cardinality must be positive, got {value}")
        # at least the decimal digit count, and at most one more
        digits = int(value.bit_length() * 0.30103) + 1
        exact = value if digits <= EXACT_DIGIT_BUDGET else None
        return cls(log2_value=math.log2(value), exact_value=exact)


def cardinality_full(width: int, height: int) -> SpaceCardinality:
    """Cardinality of the full space of width x height binary images."""
    if width < 1 or height < 1:
        raise InvalidSpecError(f"dimensions must be positive, got {width}x{height}")
    return SpaceCardinality.from_int(1 << (width * height))


def envelope_size_bound(spec: ImageSpaceSpec) -> int:
    """Upper bound |base| * sum_{j <= radius} C(pixels, j) on an envelope's
    size: its candidate rows, repeats included."""
    if spec.mode != "envelope":
        raise InvalidSpecError("size bound is defined for envelope mode only")
    pixels = spec.num_pixels
    ball = sum(math.comb(pixels, j) for j in range(min(spec.flip_radius, pixels) + 1))
    return len(spec.base_images) * ball


def enumerate_space(spec: ImageSpaceSpec) -> tuple[BinaryImage, ...]:
    """Materialize the set described by ``spec`` in its canonical order.

    Yields each image exactly once. Raises SpaceTooLargeError when
    space_matrix's materialization guard trips.
    """
    return tuple(
        BinaryImage(spec.width, spec.height, tuple(row)) for row in space_matrix(spec).tolist()
    )


def space_matrix(spec: ImageSpaceSpec) -> np.ndarray:
    """The enumerated space as a read-only (n_images, n_pixels) uint8 matrix.

    Row order matches enumerate_space. Raises SpaceTooLargeError, before
    allocating anything, when materializing the space would need more than
    MATERIALIZE_BYTE_LIMIT bytes.
    """
    needed = _materialize_bytes(spec)
    if needed > MATERIALIZE_BYTE_LIMIT:
        raise SpaceTooLargeError(
            f"materialization guard: the {spec.width}x{spec.height} {spec.mode} space needs "
            f"2^{math.log2(needed):.1f} bytes, limit is 2^{math.log2(MATERIALIZE_BYTE_LIMIT):.1f}"
        )
    matrix = _materialize_full(spec) if spec.mode == "full" else _materialize_envelope(spec)
    matrix.setflags(write=False)
    return matrix


def _materialize_bytes(spec: ImageSpaceSpec) -> int:
    """Peak working memory of materializing ``spec``, in bytes."""
    pixels = spec.num_pixels
    if spec.mode == "full":
        # per image: its uint32 code and its row
        return (1 << pixels) * (4 + pixels)
    # Per candidate: its row, and in np.unique a flat copy, a sorted copy and
    # the unique value of it, its sort index, its first index and its mask
    # byte. One flip count's masks, freed before the dedup, take less.
    return envelope_size_bound(spec) * (4 * pixels + 17)


def _materialize_full(spec: ImageSpaceSpec) -> np.ndarray:
    pixels = spec.num_pixels
    # Image k is code k, shifted so pixel 0 is the top bit of a big-endian
    # uint32 (the guard keeps pixels far below 32) that unpacks into the row.
    codes = np.arange(1 << pixels, dtype=">u4")
    codes <<= 32 - pixels
    return np.unpackbits(codes.view(np.uint8).reshape(-1, 4), axis=1, count=pixels)


def _materialize_envelope(spec: ImageSpaceSpec) -> np.ndarray:
    pixels = spec.num_pixels
    # Candidates in canonical order: the bases, then for each flip count each
    # base XOR every flip mask of that count. unique_rows drops the repeats.
    candidates = np.empty((envelope_size_bound(spec), pixels), dtype=np.uint8)
    bases = candidates[: len(spec.base_images)]
    bases[:] = [img.bits for img in spec.base_images]
    start = len(bases)
    for radius in range(1, min(spec.flip_radius, pixels) + 1):
        stop = start + len(bases) * math.comb(pixels, radius)
        block = candidates[start:stop].reshape(len(bases), -1, pixels)
        np.bitwise_xor(bases[:, None, :], _flip_masks(pixels, radius), out=block)
        start = stop
    return unique_rows(candidates)


def _flip_masks(pixels: int, radius: int) -> np.ndarray:
    """One row per ascending tuple of ``radius`` pixels, those pixels set."""
    count = math.comb(pixels, radius)
    flat = chain.from_iterable(combinations(range(pixels), radius))
    flips = np.fromiter(flat, dtype=np.intp, count=count * radius).reshape(count, radius)
    masks = np.zeros((count, pixels), dtype=np.uint8)
    np.put_along_axis(masks, flips, 1, axis=1)
    return masks


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The first occurrence of each distinct row of a 2-D array, in order."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    # return_index sorts stably, so each index is a value's first occurrence.
    first = np.unique(keys, return_index=True)[1]
    first.sort()
    return rows[first]


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
