"""Binary-image spaces: specification and enumeration.

Every evaluation set in this package is either the full space of
``width x height`` binary images or a flip envelope: a set of base images
together with every image within a fixed Hamming radius of one of them.

In memory a materialized set is a single read-only ``(n_images, n_pixels)``
uint8 matrix, one row per image (space_matrix). At the JSON edge -- a spec's
base images, a run's queries and base dataset -- an image is its row-major
bitstring of '0'/'1' characters; bitstrings_to_rows and rows_to_bitstrings
convert between the two forms. A set's size is a plain int, the matrix's row
count; a full space's 2^pixels is never built as a number.

Every reader of a space takes it as one SpaceRows: its rows and its pixel
columns packed into 64-bit words (pack_columns, the bits rule labels and rule
edits read). An envelope's are its matrix and the matrix packed. A full space
needs no matrix: image k is image code k, so code_rows decodes any range of
rows when they are indexed, and its packed columns are fixed bit patterns,
which full_columns builds directly.

check_materialize refuses, before anything is allocated, a set whose
materialization would peak above MATERIALIZE_BYTE_LIMIT bytes: 2^pixels rows
for a full space, or envelope_size_bound candidate rows (repeats included) for
an envelope, times the materializer's working bytes per row. space_matrix and
SpaceRows both call it, so a full space that is never materialized is refused
as if it were.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import InvalidSpecError, SpaceTooLargeError

# check_materialize refuses a set whose materialization needs more working
# memory than this. A full 4x6 space needs 448 MiB and is refused; 4x5 needs 24 MiB.
MATERIALIZE_BYTE_LIMIT = 256 << 20

@dataclass(frozen=True)
class ImageSpaceSpec:
    """Declarative description of an evaluation set of binary images.

    ``mode='full'`` denotes all 2^(width*height) images; ``mode='envelope'``
    denotes the given base images, row-major bitstrings, plus every image
    within Hamming distance ``flip_radius`` of one of them, deduplicated.
    """

    width: int
    height: int
    mode: str
    base_images: tuple[str, ...] = ()
    flip_radius: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.base_images, str):
            raise InvalidSpecError(f"base_images must be bitstrings, got one: {self.base_images!r}")
        # a tuple, so the spec stays hashable and equal to its JSON round trip
        object.__setattr__(self, "base_images", tuple(self.base_images))
        if self.width < 1 or self.height < 1:
            raise InvalidSpecError(
                f"space dimensions must be positive, got {self.width}x{self.height}"
            )
        if self.mode not in ("full", "envelope"):
            raise InvalidSpecError(f"mode must be 'full' or 'envelope', got {self.mode!r}")
        if self.flip_radius < 0:
            raise InvalidSpecError(f"flip_radius must be nonnegative, got {self.flip_radius}")
        if self.mode == "full" and (self.base_images or self.flip_radius):
            raise InvalidSpecError("full mode takes no base images or flip radius")
        if self.mode == "envelope" and not self.base_images:
            raise InvalidSpecError("envelope mode requires at least one base image")
        for text in self.base_images:
            if not is_bitstring(text, self.num_pixels):
                raise InvalidSpecError(f"base image {text!r} is not a {self.num_pixels}-bit string")

    @property
    def num_pixels(self) -> int:
        return self.width * self.height


def envelope_size_bound(spec: ImageSpaceSpec) -> int:
    """Upper bound |base| * sum_{j <= radius} C(pixels, j) on an envelope's
    size: its candidate rows, repeats included."""
    if spec.mode != "envelope":
        raise InvalidSpecError("size bound is defined for envelope mode only")
    pixels = spec.num_pixels
    ball = sum(math.comb(pixels, j) for j in range(min(spec.flip_radius, pixels) + 1))
    return len(spec.base_images) * ball


def is_bitstring(text, pixels: int) -> bool:
    """Whether ``text`` is a row-major string of ``pixels`` '0'/'1' characters."""
    return isinstance(text, str) and len(text) == pixels and set(text) <= {"0", "1"}


def bitstrings_to_rows(texts, pixels: int) -> np.ndarray:
    """Bitstrings of ``pixels`` characters, checked by is_bitstring, as uint8 rows."""
    digits = "".join(texts).encode()
    return np.frombuffer(digits, dtype=np.uint8).reshape(len(texts), pixels) - ord("0")


def rows_to_bitstrings(rows) -> tuple[str, ...]:
    """Each row of a 2-D 0/1 array as its row-major bitstring."""
    chars = np.asarray(rows, dtype=np.uint8) + ord("0")
    return tuple(row.tobytes().decode() for row in chars)


def enumerate_space(spec: ImageSpaceSpec) -> tuple[str, ...]:
    """The bitstrings of ``spec``'s images, each once, in canonical order.
    Raises SpaceTooLargeError as space_matrix does."""
    return rows_to_bitstrings(space_matrix(spec))


def space_matrix(spec: ImageSpaceSpec) -> np.ndarray:
    """The enumerated space as a read-only (n_images, n_pixels) uint8 matrix.

    Row order matches enumerate_space. Raises SpaceTooLargeError, before
    allocating anything, as check_materialize does.
    """
    check_materialize(spec)
    matrix = _materialize_full(spec) if spec.mode == "full" else _materialize_envelope(spec)
    matrix.setflags(write=False)
    return matrix


def check_materialize(spec: ImageSpaceSpec) -> None:
    """Raise SpaceTooLargeError when materializing ``spec`` would need more
    than MATERIALIZE_BYTE_LIMIT bytes of working memory."""
    log2_needed = _materialize_log2_bytes(spec)
    if log2_needed > math.log2(MATERIALIZE_BYTE_LIMIT):
        raise SpaceTooLargeError(
            f"materialization guard: the {spec.width}x{spec.height} {spec.mode} space needs "
            f"2^{log2_needed:.1f} bytes, limit is 2^{math.log2(MATERIALIZE_BYTE_LIMIT):.1f}"
        )


def _materialize_log2_bytes(spec: ImageSpaceSpec) -> float:
    """log2 of the peak working memory of materializing ``spec``, in bytes.
    A full space's is a sum of logs, so its 2^pixels is never built; past
    float range it is inf."""
    pixels = spec.num_pixels
    if spec.mode == "full":
        # per image: its uint32 code and its row
        return pixels + math.log2(4 + pixels) if pixels < 2**1000 else math.inf
    # Per candidate: its row, its packed bytes and its key, and then the larger
    # of np.unique's working set (a flat copy, a sorted copy and the unique
    # value of the key, its sort index, first index and mask byte) and the
    # result's first index and row. One flip count's masks take less.
    key = 8 * -(-pixels // 64)
    return math.log2(envelope_size_bound(spec) * (pixels + 2 * key + max(3 * key + 17, pixels + 8)))


def code_rows(codes: range, pixels: int) -> np.ndarray:
    """The full space's rows of a range of image codes: code k's row is its
    ``pixels`` binary digits, pixel 0 the top bit, as uint8."""
    # Each code is shifted so pixel 0 is the top bit of a big-endian uint32
    # (the guard keeps pixels far below 32) that unpacks into the row.
    shift = 32 - pixels
    shifted = np.arange(codes.start << shift, codes.stop << shift, codes.step << shift, dtype=">u4")
    return np.unpackbits(shifted.view(np.uint8).reshape(-1, 4), axis=1, count=pixels)


def _materialize_full(spec: ImageSpaceSpec) -> np.ndarray:
    return code_rows(range(1 << spec.num_pixels), spec.num_pixels)


class SpaceRows:
    """A space's rows and its packed pixel columns, ``columns``, built on first
    read. Int and slice indices and ``shape`` are space_matrix's. An envelope
    holds its space_matrix and packs it (pack_columns). A full space passes
    check_materialize but holds no matrix: code_rows decodes its rows when
    indexed, and full_columns builds its columns."""

    def __init__(self, spec: ImageSpaceSpec) -> None:
        self.matrix = None
        if spec.mode == "full":
            check_materialize(spec)
            self.shape = (1 << spec.num_pixels, spec.num_pixels)
        else:
            self.matrix = space_matrix(spec)
            self.shape = self.matrix.shape

    def __getitem__(self, index):
        if self.matrix is not None:
            return self.matrix[index]
        codes = range(self.shape[0])[index]
        if isinstance(codes, range):
            return code_rows(codes, self.shape[1])
        return code_rows(range(codes, codes + 1), self.shape[1])[0]

    @cached_property
    def columns(self) -> np.ndarray:
        if self.matrix is None:
            return full_columns(self.shape[1])
        return pack_columns(self.matrix)


# Rows per block when pack_columns packs a matrix: a contiguous copy of a
# block's transpose packs 3x faster than the transposed view, and a block,
# unlike the whole transpose, adds little to a run's peak memory.
_PACK_BLOCK = 1 << 14


def pack_columns(matrix: np.ndarray) -> np.ndarray:
    """A 0/1 space matrix's columns packed by pack_bits, one row of words per
    pixel, then one for a column of ones: the bits of the space's rows, which
    cut a complement down to the space."""
    blocks = [
        pack_bits(np.ascontiguousarray(matrix[start : start + _PACK_BLOCK].T, dtype=np.uint8))
        for start in range(0, len(matrix), _PACK_BLOCK)
    ]
    return np.vstack([np.hstack(blocks), pack_bits(np.ones((1, len(matrix)), dtype=np.uint8))])


def full_columns(pixels: int) -> np.ndarray:
    """pack_columns of the full space of ``pixels`` pixels, built from bit
    patterns alone: pixel j's column, over image codes, is 2^s zeros then 2^s
    ones, repeated, for s = pixels - 1 - j; the last row is all ones. Bits past
    the 2^pixels images are 0."""
    size = 1 << pixels
    columns = np.empty((pixels + 1, -(-size // 64)), dtype=np.uint64)
    for j in range(pixels):
        shift = pixels - 1 - j
        if shift >= 6:
            # a half period is 2^(s-6) whole words: all zeros, then all ones
            halves = columns[j].reshape(-1, 2, 1 << (shift - 6))
            halves[:, 0], halves[:, 1] = 0, ~np.uint64(0)
        else:
            # every word repeats the same 64-bit pattern
            columns[j] = sum(1 << b for b in range(64) if b >> shift & 1)
    columns[-1] = ~np.uint64(0)
    if size < 64:
        columns &= np.uint64((1 << size) - 1)
    return columns


def _materialize_envelope(spec: ImageSpaceSpec) -> np.ndarray:
    pixels = spec.num_pixels
    # Candidates in canonical order: the bases, then for each flip count each
    # base XOR every flip mask of that count. unique_rows drops the repeats.
    candidates = np.empty((envelope_size_bound(spec), pixels), dtype=np.uint8)
    bases = candidates[: len(spec.base_images)]
    bases[:] = bitstrings_to_rows(spec.base_images, pixels)
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


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D 0/1 array as little-endian uint64 words: bit b of
    word w is column 64 w + b, and the padding bits are 0."""
    packed = np.zeros((len(rows), -(-rows.shape[1] // 64) * 8), dtype=np.uint8)
    packed[:, : -(-rows.shape[1] // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8")


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The first occurrence of each distinct row of a 2-D 0/1 array, in order.
    A row's key is its pack_bits words: one uint64 up to 64 pixels, a void
    key of all of them beyond that."""
    keys = pack_bits(rows)
    if keys.shape[1] > 1:
        keys = keys.view(np.dtype((np.void, 8 * keys.shape[1])))
    # return_index sorts stably, so each index is a value's first occurrence.
    first = np.unique(keys.ravel(), return_index=True)[1]
    first.sort()
    return rows[first]


def spec_to_json(spec: ImageSpaceSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "mode": spec.mode,
        "base_images": list(spec.base_images),
        "flip_radius": spec.flip_radius,
    }


# Where a missing key is reported, when not in "<what> document".
_HOLDERS = {"rule level": "model document", "neural layer": "model document",
            "models file": "models file", "run spec": "run spec"}
_KIND_NAMES = {int: "an integer", list: "a list"}


def json_field(doc: dict, key: str, what: str, kind: type = object, default=None):
    """``doc[key]``, or ``default`` when given and the key is absent; a ``kind``
    from _KIND_NAMES is checked, and a bool is never one. ``what`` names ``doc``,
    a JSON object. Every refusal, a missing key too, is an InvalidSpecError."""
    if not isinstance(doc, dict):
        raise InvalidSpecError(f"{what} document must be a JSON object, got {type(doc).__name__}")
    if default is None and key not in doc:
        raise InvalidSpecError(f"{_HOLDERS.get(what, what + ' document')} missing key {key!r}")
    value = doc.get(key, default)
    if kind is not object and (isinstance(value, bool) or not isinstance(value, kind)):
        raise InvalidSpecError(f"{what} {key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def json_keys(doc: dict, what: str, allowed) -> None:
    """Refuse a JSON object ``doc``, named ``what`` as in json_field, holding a
    key that is not in ``allowed``, the keys its writer writes. A reader calls
    it once it has read ``doc``'s fields, so a missing key is reported first."""
    for key in doc:
        if key not in allowed:
            raise InvalidSpecError(f"{what} has unknown key {key!r}")


def spec_from_json(doc: dict) -> ImageSpaceSpec:
    width, height = (json_field(doc, key, "space", int) for key in ("width", "height"))
    mode = json_field(doc, "mode", "space")
    bases = json_field(doc, "base_images", "space", list, [])
    radius = json_field(doc, "flip_radius", "space", int, 0)
    json_keys(doc, "space", ("width", "height", "mode", "base_images", "flip_radius"))
    return ImageSpaceSpec(width, height, mode, bases, radius)
