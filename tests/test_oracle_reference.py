"""The scalar oracle against a verbatim copy of its earlier per-image form.

The copy below (``_scalar_levels``, ``_iterate_space``,
``brute_force_breakdown`` and ``exhaustive_fixed_point``) walks every image as
a bit tuple, labels both models image by image, enumerates the space again
for every breakdown and builds a ``BinaryImage`` for every disagreement it
keeps. ``diaginterp.oracle`` now enumerates integer image codes once per call
and labels the black box once; it must give equal results on generated
inputs: the same counts, sample size, entropies and kept images, and the same
fixed-point model and counts.

The properties are derandomized and keep no example database, so every run
checks the same examples.
"""

import hashlib
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

import diaginterp.oracle as oracle
from diaginterp.cli import main
from diaginterp.errors import AbstractionMismatchError, InvalidConfigError, SpaceTooLargeError
from diaginterp.imagespace import BinaryImage, ImageSpaceSpec, space_matrix
from diaginterp.models import (
    LinearModel,
    Model,
    NeuralModel,
    RuleModel,
    level_label_matrix,
    num_levels,
    rule_update,
)
from diaginterp.oracle import (
    DEFAULT_IMAGE_KEEP,
    ORACLE_SPACE_LIMIT,
    OracleResult,
    _entropy_bits,
)
from test_properties import random_grid, random_image, random_model, random_rule

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

# sha256 of oracle.json from ``oracle --fixture fig1c``, taken from the
# per-image oracle.
FIG1C_ORACLE_SHA256 = "74ad61b8d3220292f9436839a74147ce1b6c4755264c35fd8b06552194dde369"


# ---------------------------------------------------------------------------
# The per-image oracle, copied verbatim
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def random_space(rng, width, height):
    """A full space, or an envelope of radius 0-2 whose bases may repeat."""
    if rng.integers(0, 3) == 0:
        return ImageSpaceSpec(width, height, "full")
    pool = [random_image(rng, width, height) for _ in range(int(rng.integers(1, 4)))]
    bases = tuple(pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(1, 5))))
    return ImageSpaceSpec(width, height, "envelope", bases, int(rng.integers(0, 3)))


def assert_same_breakdown(new, old):
    assert new.disagreement_counts == old.disagreement_counts
    assert new.sample_size == old.sample_size
    assert new.per_level_entropy == old.per_level_entropy
    assert new.total_entropy == old.total_entropy


@PROPERTY_SETTINGS
@given(SEEDS, st.integers(0, 5))
def test_breakdown_equals_the_per_image_oracle(seed, keep_images):
    # rule models of 1-3 levels, linear models and ReLU nets, so level counts
    # both match and differ
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    model_a = random_model(rng, width, height)
    model_b = random_model(rng, width, height)
    space = random_space(rng, width, height)
    new = oracle.brute_force_breakdown(model_a, model_b, space, keep_images)
    old = brute_force_breakdown(model_a, model_b, space, keep_images)
    assert_same_breakdown(new, old)
    assert new.disagreement_images == old.disagreement_images


@PROPERTY_SETTINGS
@given(SEEDS)
def test_fixed_point_equals_the_per_image_oracle(seed):
    # a rule model against a rule, linear or neural model with as many levels
    rng = np.random.default_rng(seed)
    width, height = random_grid(rng)
    model_b = random_model(rng, width, height)
    model_a = random_rule(rng, width, height, num_levels(model_b))
    space = ImageSpaceSpec(width, height, "full")
    fixed, result, initial = oracle.exhaustive_fixed_point(model_a, model_b, space)
    old_fixed, old_result = exhaustive_fixed_point(model_a, model_b, space)
    assert fixed == old_fixed
    assert_same_breakdown(result, old_result)
    start = brute_force_breakdown(model_a, model_b, space)
    assert_same_breakdown(initial, start)
    assert initial.disagreement_images == start.disagreement_images


def test_fig1c_oracle_json_is_unchanged(tmp_path):
    assert main(["oracle", "--fixture", "fig1c", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "oracle.json").read_bytes()).hexdigest()
    assert digest == FIG1C_ORACLE_SHA256
