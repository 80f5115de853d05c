"""Information measures over the disagreement channel between two models.

Viewing one model's attempt to emulate another as a noisy binary channel, the
per-level disagreement rate is the channel's crossover probability, its binary
entropy is the remaining uncertainty at that level, and levels add up under
the independence convention. Interpretability is the fractional reduction of
that entropy achieved by querying; confidence is the coverage of the queried
set relative to the whole image space, carried in log2 so enormous spaces
never underflow.

Entropy is measured in bits throughout. Disagreement rates are formed from
exact integer counts before any float arithmetic happens.

This module owns the comparison policy: which levels two models are compared
on, every level or (``top_only``) the diagnosis level alone, and the one
measure of where they disagree, ``disagreement``, which every count uses.
disagreement_breakdown reads its space as one imagespace.SpaceRows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import AbstractionMismatchError, DomainError, InvalidConfigError
from .imagespace import ImageSpaceSpec, SpaceRows
from .models import Model, level_label_matrix, num_levels


def binary_entropy(f: float) -> float:
    """h(f) = f*log2(1/f) + (1-f)*log2(1/(1-f)), with h(0) = h(1) = 0."""
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"disagreement rate must lie in [0, 1], got {f}")
    if f == 0.0 or f == 1.0:
        return 0.0
    return -f * math.log2(f) - (1.0 - f) * math.log2(1.0 - f)


class EntropyBreakdown(NamedTuple):
    """Per-level disagreement entropies and their sum.

    ``disagreement_counts`` and ``sample_size`` keep the exact integers the
    rates came from, so anything downstream can re-derive them without float
    accumulation.
    """

    per_level: tuple[float, ...]
    total: float
    disagreement_rates: tuple[float, ...]
    disagreement_counts: tuple[int, ...]
    sample_size: int

    @classmethod
    def from_counts(cls, counts, sample_size: int) -> "EntropyBreakdown":
        if sample_size <= 0:
            raise DomainError("sample size must be positive")
        counts = tuple(int(c) for c in counts)
        if any(c < 0 or c > sample_size for c in counts):
            raise DomainError(f"counts {counts} incompatible with sample size {sample_size}")
        rates = tuple(c / sample_size for c in counts)
        per_level = tuple(binary_entropy(r) for r in rates)
        return cls(
            per_level=per_level,
            total=float(sum(per_level)),
            disagreement_rates=rates,
            disagreement_counts=counts,
            sample_size=int(sample_size),
        )

    def to_json(self) -> dict:
        return {
            "per_level": list(self.per_level),
            "total": self.total,
            "disagreement_rates": list(self.disagreement_rates),
            "disagreement_counts": list(self.disagreement_counts),
            "sample_size": self.sample_size,
        }


def check_comparable(
    model_a: Model, model_b: Model, width: int, height: int, top_only: bool
) -> None:
    """Raise unless both models label ``width x height`` images and, unless
    ``top_only``, have the same number of levels."""
    for name, model in (("model_a", model_a), ("model_b", model_b)):
        if (model.width, model.height) != (width, height):
            raise InvalidConfigError(
                f"{name} expects grid {model.width}x{model.height}, "
                f"space is {width}x{height}"
            )
    if not top_only and num_levels(model_a) != num_levels(model_b):
        raise AbstractionMismatchError(
            f"models have {num_levels(model_a)} and {num_levels(model_b)} levels; "
            "per-level comparison requires a one-to-one level match"
        )


def disagreement(
    labels_a: np.ndarray, labels_b: np.ndarray, top_only: bool, sample_size: int
) -> tuple[EntropyBreakdown, np.ndarray]:
    """Two labellings' disagreement over ``sample_size`` images, on the
    diagnosis level alone when ``top_only``, else on every level: its breakdown
    and the query region, the OR of the compared levels' XORs. Labels are one
    row per level, packed words (level_label_matrix) or one 0/1 byte per image."""
    rows = labels_a[-1:] ^ labels_b[-1:] if top_only else labels_a ^ labels_b
    counts = np.bitwise_count(rows).sum(axis=1)
    return EntropyBreakdown.from_counts(counts, sample_size), np.bitwise_or.reduce(rows, axis=0)


def disagreement_breakdown(
    model_a: Model,
    model_b: Model,
    spec: ImageSpaceSpec,
    top_only: bool = False,
) -> EntropyBreakdown:
    """Exact per-level disagreement entropies of two models over a space.

    Both models must share the space's grid. In the default per-level form
    they must also share the number of abstraction levels; ``top_only=True``
    compares diagnosis labels only, which is how single-level evaluation of
    mismatched families is done.
    """
    check_comparable(model_a, model_b, spec.width, spec.height, top_only)
    rows = SpaceRows(spec)
    labels_a, labels_b = level_label_matrix(model_a, rows), level_label_matrix(model_b, rows)
    return disagreement(labels_a, labels_b, top_only, rows.shape[0])[0]


def raw_interpretability(h_initial: float, h_final: float) -> float:
    """Fractional entropy reduction (h_initial - h_final) / h_initial, unclamped;
    1.0 when h_initial is 0 (the models were informationally identical)."""
    h_initial = float(h_initial)
    h_final = float(h_final)
    if h_initial < 0.0 or h_final < 0.0:
        raise DomainError("entropies cannot be negative")
    if h_initial == 0.0:
        return 1.0
    return (h_initial - h_final) / h_initial


def interpretability(h_initial: float, h_final: float) -> float:
    """raw_interpretability, clamped to 0 when the entropy rose (a rule edit
    or a retrain can raise it); callers that care keep the raw ratio."""
    return max(raw_interpretability(h_initial, h_final), 0.0)


class Confidence(NamedTuple):
    """Coverage of the evaluation subset relative to the full image space,
    as log2(|S|) - log2(|full|), plus a scientific-notation rendering."""

    log2_epsilon: float
    display: str


def _scientific_from_log2(log2_value: float) -> str:
    log10_value = log2_value * math.log10(2.0)
    exponent = math.floor(log10_value)
    mantissa = 10.0 ** (log10_value - exponent)
    if mantissa >= 9.9995:  # rounding at 3 decimals carried over
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.3f}e{exponent:+03d}"


def confidence_epsilon(sample_size: int, pixels: int) -> Confidence:
    """Confidence ratio |S| / 2^pixels of a sample of ``sample_size`` images
    from the space of ``pixels``-pixel images, computed in log2 form."""
    if not 1 <= sample_size <= 2**pixels:
        raise DomainError(
            f"sample size {sample_size} outside [1, 2^{pixels}], the {pixels}-pixel space"
        )
    log2_eps = min(math.log2(sample_size) - pixels, 0.0)
    return Confidence(log2_epsilon=log2_eps, display=_scientific_from_log2(log2_eps))


def objective(per_step_interpretability, lam: float) -> float:
    """Query-penalized objective: -sum of per-step interpretability plus
    lam * T, where T, the number of sampled queries, is one per step."""
    lam = float(lam)
    if lam < 0.0:
        raise DomainError(f"penalty weight must be nonnegative, got {lam}")
    values = [float(v) for v in per_step_interpretability]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"per-step interpretability must lie in [0, 1], got {v}")
    if math.isinf(j := -sum(values) + lam * len(values)):
        raise DomainError(f"objective J overflows: lambda {lam} times {len(values)} queries")
    return j
