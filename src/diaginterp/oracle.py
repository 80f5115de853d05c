"""Brute-force ground truth for disagreement counts, entropies, and
complete-interpretation fixed points.

Everything here recounts from scratch with straight-line per-image loops and
its own scalar predictors. It deliberately shares no counting or enumeration
code with the vectorized paths it is used to validate; entropies are always
recomputed from integer counts. The one exception is the input of the
minimal-edit updater that the fixed-point search drives: like the engine, it
hands rule_update the space matrix and the reference model's label matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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


def _scalar_levels(model: Model, bits: tuple[int, ...]) -> list[int]:
    """Per-level labels of one image, computed without the vectorized path."""
    if isinstance(model, RuleModel):
        labels = []
        for level in model.levels:
            ok = all(bits[i] == 1 for i in level.ones_required) and all(
                bits[i] == 0 for i in level.zeros_required
            )
            labels.append(1 if ok else 0)
        return labels
    if isinstance(model, LinearModel):
        score = sum(w * b for w, b in zip(model.weights, bits)) + model.bias
        return [1 if score > 0.0 else 0]
    if isinstance(model, NeuralModel):
        a = np.array(bits, dtype=np.float64)
        for layer in model.layers:
            z = a @ layer.weights + layer.bias
            if layer.activation == "relu":
                a = np.maximum(z, 0.0)
            else:
                a = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                             np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        return [1 if a[0] > 0.5 else 0]
    raise InvalidConfigError(f"unknown model type {type(model).__name__}")


def _iterate_space(spec: ImageSpaceSpec):
    """Yield the space's bit tuples in canonical order; own dedup, own loop."""
    pixels = spec.num_pixels
    if spec.mode == "full":
        count = 1 << pixels
        if count > ORACLE_SPACE_LIMIT:
            raise SpaceTooLargeError(
                f"oracle guard: full {spec.width}x{spec.height} space has {count} images, "
                f"limit is {ORACLE_SPACE_LIMIT}"
            )
        for code in range(count):
            yield tuple((code >> (pixels - 1 - j)) & 1 for j in range(pixels))
        return
    seen: set[tuple[int, ...]] = set()
    emitted = 0

    def _emit(bits: tuple[int, ...]):
        nonlocal emitted
        if bits in seen:
            return None
        emitted += 1
        if emitted > ORACLE_SPACE_LIMIT:
            raise SpaceTooLargeError(
                f"oracle guard: envelope exceeds {ORACLE_SPACE_LIMIT} images"
            )
        seen.add(bits)
        return bits

    for base in spec.base_images:
        got = _emit(base.bits)
        if got is not None:
            yield got
    # flipping more pixels than the grid has yields nothing new
    for radius in range(1, min(spec.flip_radius, pixels) + 1):
        for base in spec.base_images:
            for flips in combinations(range(pixels), radius):
                bits = list(base.bits)
                for i in flips:
                    bits[i] ^= 1
                got = _emit(tuple(bits))
                if got is not None:
                    yield got


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
    matched = num_levels(model_a) == num_levels(model_b)
    counts = [0] * (num_levels(model_a) if matched else 1)
    total = 0
    kept: list[BinaryImage] = []
    for bits in _iterate_space(spec):
        total += 1
        la = _scalar_levels(model_a, bits)
        lb = _scalar_levels(model_b, bits)
        if not matched:
            la, lb = la[-1:], lb[-1:]
        hit = False
        for lvl in range(len(counts)):
            if la[lvl] != lb[lvl]:
                counts[lvl] += 1
                hit = True
        if hit and len(kept) < keep_images:
            kept.append(BinaryImage(spec.width, spec.height, bits))
    per_level = tuple(_entropy_bits(c, total) for c in counts)
    return OracleResult(
        disagreement_counts=tuple(counts),
        sample_size=total,
        per_level_entropy=per_level,
        total_entropy=float(sum(per_level)),
        disagreement_images=tuple(kept) if keep_images else None,
    )


def exhaustive_fixed_point(
    model_a: RuleModel, model_b: Model, spec: ImageSpaceSpec
) -> tuple[RuleModel, OracleResult]:
    """Drive the minimal-edit updater over enumeration-ordered disagreements
    until a full pass leaves the total entropy unchanged or ends on a model
    that started or ended an earlier pass (a cycle); return the resulting
    model and its brute-force breakdown.

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
    matrix = space_matrix(spec)
    reference = level_label_matrix(model_b, matrix)
    current = model_a
    result = brute_force_breakdown(current, model_b, spec)
    if result.total_entropy == 0.0:
        # nothing left to interpret: the start is the fixed point
        return current, result
    entropy_before = result.total_entropy
    # The model at the start and at the end of each pass so far.
    seen = {current}
    while True:
        changed = False
        for bits in _iterate_space(spec):
            la = _scalar_levels(current, bits)
            lb = _scalar_levels(model_b, bits)
            if la != lb:
                image = BinaryImage(spec.width, spec.height, bits)
                current = rule_update(current, image, lb, matrix, reference)
                changed = True
        result = brute_force_breakdown(current, model_b, spec)
        if not changed or result.total_entropy == entropy_before or current in seen:
            return current, result
        seen.add(current)
        entropy_before = result.total_entropy
