"""Brute-force ground truth for disagreement counts, entropies, and
complete-interpretation fixed points.

Everything here recounts from scratch with straight-line scalar loops and
its own per-model labellers. It deliberately shares no counting or
enumeration code with the vectorized paths it is used to validate; entropies
are always recomputed from integer counts. The one exception is the
minimal-edit updater that the fixed-point search drives, models.rule_update,
with its packed inputs: the full space's columns from imagespace.full_columns,
and the black box's labels from this module's labeller, packed with
imagespace.pack_bits.

An image here is a Python int, its code: its base-2 digits, padded to the
pixel count, are the row-major bits, so pixel 0 is the most significant bit
and a full space in canonical order is ``range(2**pixels)``. Each public call
enumerates the space once, through _iterate_space, and labels the black box
once. A kept disagreement image is its code's digits, a bitstring; the
minimal-edit updater takes the code itself, the image's index in the space.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, combinations, compress, count, islice
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AbstractionMismatchError, InvalidConfigError, SpaceTooLargeError
from .imagespace import ImageSpaceSpec, full_columns, pack_bits
from .models import LinearModel, Model, NeuralModel, RuleModel, num_levels, rule_update

ORACLE_SPACE_LIMIT = 1 << 20

# Images the fixed-point search may scan in all: each update scans the whole
# space, so a full 4x4 space gets 32,768 updates and 4x5 2,048.
ORACLE_SCAN_LIMIT = 1 << 31

# Disagreement images kept in a result, at most.
DEFAULT_IMAGE_KEEP = 4096


class OracleResult(NamedTuple):
    """A pair's disagreement breakdown. The fixed-point search's final result
    also says how the search stopped: its termination, in the engine's terms,
    its update count and the images mislabelled at each pass start."""

    disagreement_counts: tuple[int, ...]
    sample_size: int
    per_level_entropy: tuple[float, ...]
    total_entropy: float
    disagreement_images: tuple[str, ...] | None = None
    termination: str | None = None
    updates: int | None = None
    pass_misses: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        doc = {
            "disagreement_counts": list(self.disagreement_counts),
            "sample_size": self.sample_size,
            "per_level_entropy": list(self.per_level_entropy),
            "total_entropy": self.total_entropy,
        }
        if self.disagreement_images is not None:
            doc["disagreement_images"] = list(self.disagreement_images)
        return doc


def _entropy_bits(count: int, total: int) -> float:
    if count == 0 or count == total:
        return 0.0
    p = count / total
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _pixel_bits(pixels: int) -> list[int]:
    """Each pixel's bit in an image code, pixel 0 first."""
    return [1 << (pixels - 1 - j) for j in range(pixels)]


def _rule_level(ones: int, zeros: int, codes):
    """One rule level's labels of ``codes``, lazily, from its bit masks."""
    return (code & ones == ones and not code & zeros for code in codes)


def _rule_levels(model: RuleModel, pixels: int, codes: Sequence[int]) -> list:
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


def _codes(spec: ImageSpaceSpec, *models: Model) -> list[int]:
    """The space's image codes from _iterate_space, enumerated only once
    each of the models is known to label the space's grid."""
    for model in models:
        if not isinstance(model, (RuleModel, LinearModel, NeuralModel)):
            raise InvalidConfigError(f"unknown model type {type(model).__name__}")
        if (model.width, model.height) != (spec.width, spec.height):
            raise InvalidConfigError(
                f"oracle: a {model.width}x{model.height} model cannot label "
                f"the {spec.width}x{spec.height} space"
            )
    return list(_iterate_space(spec))


def _scalar_levels(model: Model, spec: ImageSpaceSpec, codes: list[int]) -> list[list[bool]]:
    """Per-level labels of every image in ``codes``, one list per level,
    computed without the vectorized path. ``codes`` is the space's
    enumeration as _codes returns it."""
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
        # 2^pixels > the limit, decided on the exponent before 2^pixels is built
        if pixels >= ORACLE_SPACE_LIMIT.bit_length():
            raise SpaceTooLargeError(
                f"oracle guard: full {spec.width}x{spec.height} space has 2^{pixels} images, "
                f"limit is {ORACLE_SPACE_LIMIT}"
            )
        yield from range(1 << pixels)
        return
    bases = [int(base, 2) for base in spec.base_images]
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
        kept = tuple(format(code, f"0{spec.num_pixels}b") for code in islice(hits, keep_images))
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
    codes = _codes(spec, model_a, model_b)
    return _breakdown(
        spec, codes, _scalar_levels(model_a, spec, codes), _scalar_levels(model_b, spec, codes),
        keep_images,
    )


def exhaustive_fixed_point(
    model_a: RuleModel, model_b: Model, spec: ImageSpaceSpec
) -> tuple[RuleModel, OracleResult, OracleResult]:
    """Drive the minimal-edit updater over enumeration-ordered disagreements,
    pass after pass, until a pass leaves no image mislabelled
    (``entropy_zero``), leaves the total entropy unchanged (``stalled``), or
    ends on a model that started or ended an earlier pass (``cycle``). A
    starting pair at zero entropy is its own fixed point: ``entropy_zero``,
    or ``no_disagreement`` when no image is mislabelled.

    Returns the resulting model, its breakdown (no images kept, and the
    termination, update count and pass-start misses filled in) and the
    starting pair's breakdown, which is brute_force_breakdown(model_a,
    model_b, spec) with its default images kept. The space is enumerated and
    the black box labelled once, for a search that ORACLE_SCAN_LIMIT bounds.

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
    codes = _codes(spec, model_a, model_b)
    labels_b = _scalar_levels(model_b, spec, codes)
    # rule_update's inputs: the space's packed columns, and the black box's
    # labels packed level by level, one row of words each
    columns = full_columns(spec.num_pixels)
    reference = np.vstack(
        [pack_bits(np.frombuffer(bytes(labels), np.uint8)[None]) for labels in labels_b]
    )
    current = model_a
    labels_a = _scalar_levels(current, spec, codes)
    initial = _breakdown(spec, codes, labels_a, labels_b, DEFAULT_IMAGE_KEEP)
    misses = sum(_misses(labels_a, labels_b))
    if initial.total_entropy == 0.0:
        # nothing left to interpret: the start is the fixed point
        end = "entropy_zero" if misses else "no_disagreement"
        return current, initial._replace(termination=end, updates=0, pass_misses=()), initial
    result = initial
    budget = ORACLE_SCAN_LIMIT // len(codes)
    updates = 0
    pass_misses = []
    # The model at the start and at the end of each pass so far.
    seen = {current}
    while True:
        pass_misses.append(misses)
        miss = -1
        while True:
            # The next image, in enumeration order, that the current model
            # mislabels. The labels are lazy, so the scan stops there. On a
            # full space codes[i] == i, so the rest of the codes is a range.
            start = miss + 1
            mine = _rule_levels(current, spec.num_pixels, range(start, len(codes)))
            rest = [map(labels.__getitem__, range(start, len(codes))) for labels in labels_b]
            miss = next(compress(count(start), _misses(mine, rest)), None)
            if miss is None:
                break
            if updates == budget:
                raise SpaceTooLargeError(
                    f"oracle guard: the fixed-point search needs over {budget} updates of "
                    f"2^{spec.num_pixels} images; the limit is {ORACLE_SCAN_LIMIT} image scans"
                )
            current = rule_update(current, miss, columns, reference)
            updates += 1
        entropy_before = result.total_entropy
        labels_a = _scalar_levels(current, spec, codes)
        result = _breakdown(spec, codes, labels_a, labels_b, 0)
        misses = sum(_misses(labels_a, labels_b))
        if not misses:
            end = "entropy_zero"
        elif result.total_entropy == entropy_before:
            end = "stalled"
        elif current in seen:
            end = "cycle"
        else:
            seen.add(current)
            continue
        stop = {"termination": end, "updates": updates, "pass_misses": tuple(pass_misses)}
        return current, result._replace(**stop), initial
