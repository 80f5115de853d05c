"""The interpretation engine: query a disagreement, update the known model,
re-measure the disagreement entropy, repeat.

A run reads the evaluation space as one imagespace.SpaceRows: an envelope is
materialized once as a matrix, a full space's rows are decoded from their
image codes only where the run needs them (a queried image, and the row
blocks a linear or neural model labels), and its packed pixel columns are
built once, at the first rule labelling or rule edit. The run labels the
space with the black box once, and after every update with the known model,
once, both through level_label_matrix: packed 64-bit words, image i is bit i.
The levels it compares are every level in diagnostic mode and the diagnosis
level in epsilon mode; metrics.disagreement measures them, giving the step's
entropy breakdown (popcounts of their XOR) and the query region (the OR of
the compared levels). Queries are picked by bit position, so each costs
words, not rows. rule_update reads a queried image from the packed space by
its index; a retrain adds its 0/1 row, and a step record its bitstring.

When the level counts differ (epsilon mode), the black box's labels are
aligned once per run: the known model's initial labels stand in below the
diagnosis level, so those targets always equal the current labels and an
update edits the diagnosis level only.

The initial disagreement entropy stays fixed as the denominator of every
per-step interpretability value. Runs terminate when the entropy hits zero,
the trajectory stalls or cycles, or the query budget runs out;
``no_disagreement`` means the models agree on every image. Every stop
decision reads the measured entropy; I_t and delta_I_t, clamped at 0, are
report output only. Reports capture the whole trajectory and are
deterministic functions of the configuration, seed included.

Two entry points share that setup, the step and the report. Every step is
``_Run.update``: rule_update on the space's columns for a rule known model, or a
retrain on the base dataset plus every image queried so far, seeded from the
run's rng after the query's draw. Each has its own query selection and
termination rules:

* run_interpretation -- the budgeted, seeded loop: a uniform draw from the
  query region (diagnostic or single-level epsilon mode, rule-edit or
  retraining updater), stopping at zero entropy, when ``stall_patience``
  steps in a row each leave the entropy unchanged, or when the budget is
  spent;
* run_complete_interpretation -- exhaustive, unbudgeted querying of a full
  space in enumeration order with the rule updater, stopping at zero entropy,
  at a fixed point where a whole pass leaves the entropy unchanged, or at a
  cycle, when a pass ends on a model an earlier pass started or ended with;
  admits_complete_run says which diagnostic runs it takes; it refuses the rest.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError
from .imagespace import (
    ImageSpaceSpec,
    SpaceRows,
    bitstrings_to_rows,
    is_bitstring,
    json_field,
    json_keys,
    rows_to_bitstrings,
    spec_from_json,
    spec_to_json,
)
from .metrics import (
    Confidence,
    EntropyBreakdown,
    check_comparable,
    confidence_epsilon,
    disagreement,
    interpretability,
    objective,
    raw_interpretability,
)
from .models import (
    LinearModel,
    Model,
    RuleModel,
    check_training,
    level_label_matrix,
    linear_update,
    model_from_json,
    model_to_json,
    num_levels,
    rule_update,
)

RULE_UPDATER = "rule_minimal_edit"
RETRAIN_UPDATER = "retrain_with_queries"

TERM_ENTROPY_ZERO = "entropy_zero"
TERM_NO_DISAGREEMENT = "no_disagreement"
TERM_STALLED = "stalled"
TERM_CYCLE = "cycle"
TERM_BUDGET = "budget_exhausted"


def _check_integer(name: str, value) -> None:
    """Reject a run setting that is not an int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """One run's settings. The field defaults are the only run-setting
    defaults; ``lam`` and ``retrain_learning_rate`` are stored as floats. The
    updater is not a setting: the known model's family fixes it. A linear
    known model's ``base_dataset`` is a pair of 0/1 arrays, (rows, labels).
    ``retrain_learning_rate`` is checked and echoed, but a perceptron's
    retrain takes no rate (train_linear), so it changes no label."""

    space: ImageSpaceSpec
    model_a: Model
    model_b: Model
    max_queries: int = 10
    lam: float = 0.0
    rng_seed: int = 0
    mode: str = "diagnostic"
    base_dataset: tuple[np.ndarray, np.ndarray] | None = None
    stall_patience: int = 3
    retrain_epochs: int = 50
    retrain_learning_rate: float = 1.0

    @property
    def updater(self) -> str:
        """How model_a takes in an answered query: rules are edited, a linear model retrained."""
        return RULE_UPDATER if isinstance(self.model_a, RuleModel) else RETRAIN_UPDATER

    def __post_init__(self) -> None:
        if self.mode not in ("diagnostic", "epsilon"):
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        for name in ("max_queries", "rng_seed", "stall_patience", "retrain_epochs"):
            _check_integer(name, getattr(self, name))
        for name, key in (("lam", "lambda"), ("retrain_learning_rate", "retrain_learning_rate")):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and abs(value) <= sys.float_info.max):  # finite, even as a float
                raise InvalidConfigError(f"{key} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("max_queries", "rng_seed"):
            if getattr(self, name) < 0:
                raise InvalidConfigError(f"{name} cannot be negative, got {getattr(self, name)}")
        if self.lam < 0:
            raise InvalidConfigError(f"lambda cannot be negative, got {self.lam}")
        if self.stall_patience < 1:
            raise InvalidConfigError("stall patience must be at least 1")
        # checked here, whatever the known model, so a run never stops at its first retrain
        check_training(self.retrain_epochs, self.retrain_learning_rate)
        if self.base_dataset is not None:
            rows, labels = self.base_dataset
            if np.shape(rows) != (len(labels), self.space.num_pixels):
                raise InvalidConfigError("base_dataset needs one space-sized row per label")
        top_only = self.mode == "epsilon"
        check_comparable(self.model_a, self.model_b, self.space.width, self.space.height, top_only)
        if isinstance(self.model_a, LinearModel):
            if self.base_dataset is None:
                raise InvalidConfigError("retraining a linear known model requires base_dataset")
        elif not isinstance(self.model_a, RuleModel):
            raise InvalidConfigError(
                f"the known model must be a rule or linear model, not {type(self.model_a).__name__}"
            )


class StepRecord(NamedTuple):
    t: int
    query: str  # the queried image's bitstring
    entropy_after: EntropyBreakdown
    i_t: float
    delta_i_t: float

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "query": self.query,
            "entropy_after": self.entropy_after.to_json(),
            "I_t": self.i_t,
            "delta_I_t": self.delta_i_t,
        }


class Report(NamedTuple):
    initial_entropy: EntropyBreakdown
    steps: tuple[StepRecord, ...]
    final_interpretability: float
    objective_j: float
    termination: str
    raw_unclamped_final: float
    config: EngineConfig
    epsilon: Confidence | None = None
    pass_disagreements: tuple[int, ...] | None = None
    final_model: Model | None = None

    def to_json(self) -> dict:
        doc = {
            "seed": self.config.rng_seed,
            "mode": self.config.mode,
            "termination": self.termination,
            "initial_entropy": self.initial_entropy.to_json(),
            "steps": [step.to_json() for step in self.steps],
            "final_interpretability": self.final_interpretability,
            "raw_unclamped_final": self.raw_unclamped_final,
            "objective_J": self.objective_j,
            "epsilon": None
            if self.epsilon is None
            else {"log2_epsilon": self.epsilon.log2_epsilon, "display": self.epsilon.display},
            "config": config_to_json(self.config),
        }
        if self.pass_disagreements is not None:
            doc["pass_disagreements"] = list(self.pass_disagreements)
        return doc


def trajectory_rows(report: Report) -> list[str]:
    """CSV lines (header first): t, I_t, delta_I_t, H_total per step."""
    rows = ["t,I_t,delta_I_t,H_total"]
    for step in report.steps:
        rows.append(
            f"{step.t},{step.i_t!r},{step.delta_i_t!r},{step.entropy_after.total!r}"
        )
    return rows


def _nth_bit(words: np.ndarray, k: int) -> int:
    """The k-th set bit, from 0, of a packed bit vector: its word from the
    cumulative popcounts, then its place among that word's set bits."""
    counts = np.cumsum(np.bitwise_count(words))
    w = int(np.searchsorted(counts, k, side="right"))
    ones = np.flatnonzero(np.unpackbits(words[w : w + 1].view(np.uint8), bitorder="little"))
    return 64 * w + int(ones[k - int(counts[w]) + ones.size])


def _rank(words: np.ndarray, position: int) -> int:
    """How many set bits of a packed bit vector lie below ``position``."""
    w, b = divmod(position, 64)
    head = int(words[w]) & (1 << b) - 1 if b else 0
    return int(np.bitwise_count(words[:w]).sum()) + head.bit_count()


class _Run:
    """What both entry points share: the space (SpaceRows) and the black
    box's packed labels, computed once; the rng and a retrain's training set;
    the known model with its packed labels, the disagreement they leave, and
    the step records so far."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.rows = SpaceRows(config.space)
        self.training = config.base_dataset  # (rows, labels), a row more per retrain
        self.b_bits = level_label_matrix(config.model_b, self.rows)
        self.steps: list[StepRecord] = []
        self._set_model(config.model_a)
        self.initial = self.breakdown
        # Level counts differ only in epsilon mode, which compares the
        # diagnosis rows alone, so aligning after the first measure is safe.
        if self.b_bits.shape[0] != self.a_bits.shape[0]:
            self.b_bits = np.concatenate([self.a_bits[:-1], self.b_bits[-1:]])

    def _set_model(self, model: Model) -> None:
        self.model = model
        self.a_bits = level_label_matrix(model, self.rows)
        self.breakdown, self.region = disagreement(
            self.a_bits, self.b_bits, self.config.mode == "epsilon", self.rows.shape[0]
        )
        self.region_size = int(np.bitwise_count(self.region).sum())

    @cached_property
    def rng(self) -> np.random.Generator:
        """The run's rng, made at its first draw: a complete run draws
        nothing, so it never loads numpy.random."""
        return np.random.default_rng(self.config.rng_seed)

    def zero_entropy_termination(self) -> str:
        """How a run at zero initial entropy ends: ``entropy_zero`` when some
        level disagrees on every image, ``no_disagreement`` when none does."""
        return TERM_NO_DISAGREEMENT if self.region_size == 0 else TERM_ENTROPY_ZERO

    def update(self, idx: int) -> StepRecord:
        """Update the known model toward the black box's (aligned) labels of
        image ``idx`` (a rule edit, or a retrain with the image added to the
        training set), re-measure, and append the step."""
        row = self.rows[idx]
        if self.config.updater == RULE_UPDATER:
            model = rule_update(self.model, idx, self.rows.columns, self.b_bits)
        else:
            rows, labels = self.training
            label = self.b_bits[-1, idx >> 6] >> (idx & 63) & 1
            self.training = np.vstack([rows, row]), np.append(labels, label)
            seed = int(self.rng.integers(0, 2**31))
            model = linear_update(self.model, *self.training, self.config.retrain_epochs, seed)
        self._set_model(model)
        h0 = self.initial.total
        i_t = interpretability(h0, self.breakdown.total)
        prev = self.steps[-1].i_t if self.steps else 0.0
        query = rows_to_bitstrings(row[None])[0]
        step = StepRecord(len(self.steps) + 1, query, self.breakdown, float(i_t), float(i_t - prev))
        self.steps.append(step)
        return step

    def report(self, termination: str, pass_counts: list[int] | None = None) -> Report:
        config = self.config
        raw_final = raw_interpretability(self.initial.total, self.breakdown.total)
        final = self.steps[-1].i_t if self.steps else raw_final
        epsilon = None
        if config.mode == "epsilon":
            epsilon = confidence_epsilon(self.rows.shape[0], config.space.num_pixels)
        return Report(
            initial_entropy=self.initial,
            steps=tuple(self.steps),
            final_interpretability=float(final),
            objective_j=objective([s.i_t for s in self.steps], config.lam),
            termination=termination,
            raw_unclamped_final=float(raw_final),
            config=config,
            epsilon=epsilon,
            pass_disagreements=None if pass_counts is None else tuple(pass_counts),
            final_model=self.model,
        )


def run_interpretation(config: EngineConfig) -> Report:
    """Budgeted random-query interpretation (the seeded loop).

    Each query is a uniform draw from the query region, which is never empty
    while the entropy is positive. It stops at a step that measures zero
    entropy (``entropy_zero``), after ``stall_patience`` steps in a row that
    each leave the total entropy where it was, H0 before the first step
    (``stalled``), or after ``max_queries`` steps (``budget_exhausted``).
    """
    run = _Run(config)
    if run.initial.total == 0.0:
        return run.report(run.zero_entropy_termination())

    flat_steps = 0
    for _ in range(config.max_queries):
        entropy_before = run.breakdown.total
        step = run.update(_nth_bit(run.region, int(run.rng.integers(0, run.region_size))))
        if step.entropy_after.total == 0.0:
            return run.report(TERM_ENTROPY_ZERO)
        flat_steps = flat_steps + 1 if step.entropy_after.total == entropy_before else 0
        if flat_steps >= config.stall_patience:
            return run.report(TERM_STALLED)
    return run.report(TERM_BUDGET)


def admits_complete_run(model_a: Model, model_b: Model, space: ImageSpaceSpec, mode: str) -> bool:
    """Whether a run gets complete interpretation: a rule known model with as
    many levels as the black box, over a full space, in diagnostic mode, which
    compares every level, as its reference exhaustive_fixed_point does."""
    return (
        isinstance(model_a, RuleModel)
        and num_levels(model_a) == num_levels(model_b)
        and space.mode == "full"
        and mode == "diagnostic"
    )


def run_complete_interpretation(config: EngineConfig) -> Report:
    """Exhaustive interpretation of a full space in enumeration order.

    The query budget is ignored: every image in the query region is visited,
    pass after pass, until none remain (``entropy_zero``), a full pass leaves
    the total entropy unchanged (``stalled``, a fixed point of the updater),
    or a pass ends on a model that started or ended an earlier pass
    (``cycle``). The updater is deterministic and a grid has finitely many
    rule models, so one of the three always happens.
    """
    if not admits_complete_run(config.model_a, config.model_b, config.space, config.mode):
        raise InvalidConfigError(
            "complete interpretation needs a rule known model with as many levels "
            "as the black box, over a full space, in diagnostic mode"
        )

    run = _Run(config)
    pass_counts: list[int] = []
    if run.initial.total == 0.0:
        return run.report(run.zero_entropy_termination(), pass_counts)

    entropy_before_pass = run.initial.total
    # The model at the start and at the end of each pass so far.
    seen = {run.model}
    while True:
        pass_counts.append(run.region_size)
        position = 0
        # k indexes the next region image at or after ``position``
        while (k := _rank(run.region, position)) < run.region_size:
            idx = _nth_bit(run.region, k)
            if run.update(idx).entropy_after.total == 0.0:
                return run.report(TERM_ENTROPY_ZERO, pass_counts)
            position = idx + 1
        entropy_now = run.steps[-1].entropy_after.total
        if entropy_now == entropy_before_pass:
            return run.report(TERM_STALLED, pass_counts)
        if run.model in seen:
            return run.report(TERM_CYCLE, pass_counts)
        seen.add(run.model)
        entropy_before_pass = entropy_now


# The run-spec key of each EngineConfig setting, in echo order.
_SETTING_KEYS = {
    "max_queries": "max_queries",
    "lambda": "lam",
    "rng_seed": "rng_seed",
    "mode": "mode",
    "stall_patience": "stall_patience",
    "retrain_epochs": "retrain_epochs",
    "retrain_learning_rate": "retrain_learning_rate",
}


def config_to_json(config: EngineConfig) -> dict:
    doc = {
        "space": spec_to_json(config.space),
        "model_a": model_to_json(config.model_a),
        "model_b": model_to_json(config.model_b),
        "updater": config.updater,
    }
    doc.update({key: getattr(config, name) for key, name in _SETTING_KEYS.items()})
    doc["base_dataset"] = None
    if config.base_dataset is not None:
        rows, labels = config.base_dataset
        doc["base_dataset"] = [[text, int(y)] for text, y in zip(rows_to_bitstrings(rows), labels)]
    return doc


def _dataset_from_json(entries, pixels: int) -> tuple[np.ndarray, np.ndarray]:
    """A run spec's base_dataset, [[bitstring, label], ...], as uint8 rows and
    labels. Each label is checked as written, so a JSON true is not read as 1."""
    if not (isinstance(entries, list) and all(isinstance(e, list) and len(e) == 2 for e in entries)):
        raise InvalidConfigError("base_dataset must be a list of [bitstring, label] pairs")
    for text, label in entries:
        if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
            raise InvalidConfigError(f"base_dataset labels must be 0 or 1, got {label!r}")
        if not is_bitstring(text, pixels):
            raise InvalidConfigError(f"base_dataset image {text!r} is not a {pixels}-bit string")
    rows = bitstrings_to_rows([text for text, _ in entries], pixels)
    return rows, np.array([label for _, label in entries], dtype=np.uint8)


def config_from_json(doc: dict) -> EngineConfig:
    """Parse a run spec. Settings it leaves out take EngineConfig's defaults;
    its required ``updater`` must name the known model's update, and it holds
    no key that config_to_json does not write."""
    space = spec_from_json(json_field(doc, "space", "run spec"))
    model_a = model_from_json(json_field(doc, "model_a", "run spec"))
    model_b = model_from_json(json_field(doc, "model_b", "run spec"))
    updater = json_field(doc, "updater", "run spec")
    keys = ("space", "model_a", "model_b", "updater", *_SETTING_KEYS, "base_dataset")
    json_keys(doc, "run spec", keys)
    settings = {name: doc[key] for key, name in _SETTING_KEYS.items() if key in doc}
    if doc.get("base_dataset") is not None:
        settings["base_dataset"] = _dataset_from_json(doc["base_dataset"], space.num_pixels)
    config = EngineConfig(space=space, model_a=model_a, model_b=model_b, **settings)
    if updater != config.updater:
        raise InvalidConfigError(f"updater {updater!r} does not drive a {type(model_a).__name__}")
    return config
