"""Brute-force ground truth for disagreement counts, entropies, and
complete-interpretation fixed points.

Everything here recounts from scratch with straight-line scalar loops and
its own per-model labellers. It deliberately shares no counting or
enumeration code with the vectorized paths it is used to validate; entropies
are always recomputed from integer counts. The one exception is the input of
the minimal-edit updater that the fixed-point search drives: like the engine,
it hands rule_update the space matrix and the reference model's label matrix.

An image here is a Python int, its code: its base-2 digits, padded to the
pixel count, are the row-major bits, so pixel 0 is the most significant bit
and a full space in canonical order is ``range(2**pixels)``. Each public call
enumerates the space once, through _iterate_space, and labels the black box
once; BinaryImages are built only for the disagreement images a result keeps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations, compress, count, islice

import numpy as np

from .errors import AbstractionMismatchError, InvalidConfigError, SpaceTooLargeError
from .imagespace import BinaryImage, ImageSpaceSpec, space_matrix
from .models import (
    LinearModel,
    Model,
    NeuralModel,
    RuleModel,
    level_label_matrix,
    num_levels,
    rule_update,
)

ORACLE_SPACE_LIMIT = 1 << 20

# Disagreement images kept in a result, at most.
DEFAULT_IMAGE_KEEP = 4096

# Maps each '0'/'1' character of a code's binary digits to its bit.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class OracleResult:
    disagreement_counts: tuple[int, ...]
    sample_size: int
    per_level_entropy: tuple[float, ...]
    total_entropy: float
    disagreement_images: tuple[BinaryImage, ...] | None = None

    def to_json(self) -> dict:
        doc = {
            "disagreement_counts": list(self.disagreement_counts),
            "sample_size": self.sample_size,
            "per_level_entropy": list(self.per_level_entropy),
            "total_entropy": self.total_entropy,
        }
        if self.disagreement_images is not None:
            doc["disagreement_images"] = [img.to_string() for img in self.disagreement_images]
        return doc


def _entropy_bits(count: int, total: int) -> float:
    if count == 0 or count == total:
        return 0.0
    p = count / total
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _pixel_bits(pixels: int) -> list[int]:
    """Each pixel's bit in an image code, pixel 0 first."""
    return [1 << (pixels - 1 - j) for j in range(pixels)]


def _image(spec: ImageSpaceSpec, code: int) -> BinaryImage:
    digits = format(code, f"0{spec.num_pixels}b").encode("ascii")
    return BinaryImage(spec.width, spec.height, tuple(digits.translate(_DIGIT_BITS)))


def _rule_level(ones: int, zeros: int, codes):
    """One rule level's labels of ``codes``, lazily, from its bit masks."""
    return (code & ones == ones and not code & zeros for code in codes)


def _rule_levels(model: RuleModel, pixels: int, codes: list[int]) -> list:
    """One lazy label iterator per level of a rule model."""
    bit = _pixel_bits(pixels)
    return [
        _rule_level(
            sum(bit[i] for i in level.ones_required),
            sum(bit[i] for i in level.zeros_required),
            codes,
        )
        for level in model.levels
    ]


def _scalar_levels(model: Model, spec: ImageSpaceSpec, codes: list[int]) -> list[list[bool]]:
    """Per-level labels of every image in ``codes``, one list per level,
    computed without the vectorized path. ``codes`` is the space's
    enumeration as _iterate_space yields it."""
    if not isinstance(model, (RuleModel, LinearModel, NeuralModel)):
        raise InvalidConfigError(f"unknown model type {type(model).__name__}")
    if (model.width, model.height) != (spec.width, spec.height):
        raise InvalidConfigError(
            f"oracle: a {model.width}x{model.height} model cannot label "
            f"the {spec.width}x{spec.height} space"
        )
    pixels = spec.num_pixels
    if isinstance(model, RuleModel):
        return [list(labels) for labels in _rule_levels(model, pixels, codes)]
    if isinstance(model, LinearModel):
        # Each score adds the weights of the set pixels in pixel order, and
        # then the bias; the w * 0 terms of a full dot product cannot change
        # the sign test. The additions are spelled out, never sum(), so the
        # float order is fixed.
        weights = model.weights.tolist()
        if spec.mode == "full":
            # codes is range(2**pixels). From the empty prefix's 0.0, each
            # pixel in turn doubles the sums: every prefix with the pixel
            # clear, then set. So a code's sum is the sum of the code without
            # its last set pixel, plus that pixel's weight: the in-order
            # additions, at O(1) per image.
            scores = [0.0]
            for w in weights:
                scores = [score for prefix in scores for score in (prefix, prefix + w)]
        else:
            pairs = list(zip(_pixel_bits(pixels), weights))
            scores = []
            for code in codes:
                score = 0.0
                for bit, w in pairs:
                    if code & bit:
                        score += w
                scores.append(score)
        bias = model.bias
        return [[score + bias > 0.0 for score in scores]]
    # a NeuralModel: one forward pass per image
    shifts = range(pixels - 1, -1, -1)
    labels = []
    for code in codes:
        a = np.array([(code >> shift) & 1 for shift in shifts], dtype=np.float64)
        for layer in model.layers:
            z = a @ layer.weights + layer.bias
            if layer.activation == "relu":
                a = np.maximum(z, 0.0)
            else:
                a = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                             np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        labels.append(bool(a[0] > 0.5))
    return [labels]


def _iterate_space(spec: ImageSpaceSpec):
    """Yield the space's image codes in canonical order; own dedup, own loop."""
    pixels = spec.num_pixels
    if spec.mode == "full":
        size = 1 << pixels
        if size > ORACLE_SPACE_LIMIT:
            raise SpaceTooLargeError(
                f"oracle guard: full {spec.width}x{spec.height} space has {size} images, "
                f"limit is {ORACLE_SPACE_LIMIT}"
            )
        yield from range(size)
        return
    bases = [int(base.to_string(), 2) for base in spec.base_images]
    bit = _pixel_bits(pixels)
    # flipping more pixels than the grid has yields nothing new
    flipped = (
        base ^ sum(flips)
        for radius in range(1, min(spec.flip_radius, pixels) + 1)
        for base in bases
        for flips in combinations(bit, radius)
    )
    seen: set[int] = set()
    for code in chain(bases, flipped):
        if code in seen:
            continue
        if len(seen) == ORACLE_SPACE_LIMIT:
            raise SpaceTooLargeError(
                f"oracle guard: envelope exceeds {ORACLE_SPACE_LIMIT} images"
            )
        seen.add(code)
        yield code


def _misses(labels_a: list, labels_b: list):
    """Per image, lazily: whether the two labellings differ at any level."""
    flags = [map(operator.ne, la, lb) for la, lb in zip(labels_a, labels_b)]
    return flags[0] if len(flags) == 1 else map(any, zip(*flags))


def _breakdown(
    spec: ImageSpaceSpec,
    codes: list[int],
    labels_a: list[list[bool]],
    labels_b: list[list[bool]],
    keep_images: int,
) -> OracleResult:
    """Count per-level disagreements between two labellings of ``codes``."""
    if len(labels_a) != len(labels_b):
        # mixed-level pairs are compared on diagnosis labels only
        labels_a, labels_b = labels_a[-1:], labels_b[-1:]
    counts = tuple(sum(map(operator.ne, la, lb)) for la, lb in zip(labels_a, labels_b))
    total = len(codes)
    kept = None
    if keep_images:
        hits = compress(codes, _misses(labels_a, labels_b))
        kept = tuple(_image(spec, code) for code in islice(hits, keep_images))
    per_level = tuple(_entropy_bits(c, total) for c in counts)
    return OracleResult(
        disagreement_counts=counts,
        sample_size=total,
        per_level_entropy=per_level,
        total_entropy=float(sum(per_level)),
        disagreement_images=kept,
    )


def brute_force_breakdown(
    model_a: Model,
    model_b: Model,
    spec: ImageSpaceSpec,
    keep_images: int = DEFAULT_IMAGE_KEEP,
) -> OracleResult:
    """Exhaustively count per-level disagreements and derive entropies.

    Mixed-level pairs are compared on diagnosis labels only. At most
    ``keep_images`` disagreement images are retained (first in enumeration
    order); pass 0 to keep none.
    """
    codes = list(_iterate_space(spec))
    return _breakdown(
        spec, codes, _scalar_levels(model_a, spec, codes), _scalar_levels(model_b, spec, codes),
        keep_images,
    )


def exhaustive_fixed_point(
    model_a: RuleModel, model_b: Model, spec: ImageSpaceSpec
) -> tuple[RuleModel, OracleResult, OracleResult]:
    """Drive the minimal-edit updater over enumeration-ordered disagreements
    until a full pass leaves the total entropy unchanged or ends on a model
    that started or ended an earlier pass (a cycle).

    Returns the resulting model, its breakdown (no images kept) and the
    starting pair's breakdown, which is brute_force_breakdown(model_a,
    model_b, spec) with its default images kept. The space is enumerated and
    the black box labelled once, for the whole search.

    This is the reference answer for the engine's complete-interpretation run.
    """
    if not isinstance(model_a, RuleModel):
        raise InvalidConfigError("exhaustive interpretation requires a rule model to update")
    if spec.mode != "full":
        raise InvalidConfigError("exhaustive interpretation is defined over full spaces")
    if num_levels(model_a) != num_levels(model_b):
        raise AbstractionMismatchError(
            "exhaustive interpretation updates every level and needs matched level counts"
        )
    codes = list(_iterate_space(spec))
    labels_b = _scalar_levels(model_b, spec, codes)
    matrix = space_matrix(spec)
    reference = level_label_matrix(model_b, matrix)
    current = model_a
    initial = _breakdown(
        spec, codes, _scalar_levels(current, spec, codes), labels_b, DEFAULT_IMAGE_KEEP
    )
    if initial.total_entropy == 0.0:
        # nothing left to interpret: the start is the fixed point
        return current, initial, initial
    result = initial
    # The model at the start and at the end of each pass so far.
    seen = {current}
    while True:
        changed = False
        miss = -1
        while True:
            # The next image, in enumeration order, that the current model
            # mislabels. The labels are lazy, so the scan stops there.
            start = miss + 1
            mine = _rule_levels(current, spec.num_pixels, codes[start:])
            rest = [islice(labels, start, None) for labels in labels_b]
            miss = next(compress(count(start), _misses(mine, rest)), None)
            if miss is None:
                break
            target = [labels[miss] for labels in labels_b]
            current = rule_update(current, _image(spec, codes[miss]), target, matrix, reference)
            changed = True
        if not changed:
            # a pass with no update ends on the model the last one ended on
            return current, result, initial
        entropy_before = result.total_entropy
        result = _breakdown(spec, codes, _scalar_levels(current, spec, codes), labels_b, 0)
        if result.total_entropy == entropy_before or current in seen:
            return current, result, initial
        seen.add(current)
