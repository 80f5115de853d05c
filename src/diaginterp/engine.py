"""The interpretation engine: query a disagreement, update the known model,
re-measure the disagreement entropy, repeat.

A run materializes the evaluation space once as a matrix and labels it with
the black box once. After every update it relabels the space with the known
model, once, and compares the two label matrices. The levels it compares are
every level in diagnostic mode and the diagnosis level in epsilon mode. The
resulting disagreement rows give both the step's entropy breakdown and the
query region: the images that disagree at any compared level.

When the level counts differ (epsilon mode), the black box's labels are
aligned once per run: the known model's initial labels stand in below the
diagnosis level, so those targets always equal the current labels and an
update edits the diagnosis level only.

The initial disagreement entropy stays fixed as the denominator of every
per-step interpretability value. Runs terminate when the entropy hits zero,
the trajectory stalls or cycles, or the query budget runs out;
``no_disagreement`` means the models agree on every image. Reports capture
the whole trajectory and are deterministic functions of the configuration,
seed included.

Two entry points share that setup, the step record and the report; each has
its own query selection and termination rules:

* run_interpretation -- the budgeted, seeded loop: a uniform draw from the
  query region (diagnostic or single-level epsilon mode, rule-edit or
  retraining updater);
* run_complete_interpretation -- exhaustive, unbudgeted querying of a full
  space in enumeration order with the rule updater, stopping at zero entropy,
  at a fixed point where a whole pass leaves the entropy unchanged, or at a
  cycle, when a pass ends on a model an earlier pass started or ended with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AbstractionMismatchError, InvalidConfigError
from .imagespace import (
    BinaryImage,
    ImageSpaceSpec,
    space_matrix,
    spec_from_json,
    spec_to_json,
)
from .metrics import (
    Confidence,
    EntropyBreakdown,
    check_comparable,
    confidence_epsilon,
    disagreement_rows,
    interpretability,
    objective,
    raw_interpretability,
)
from .models import (
    Dataset,
    LinearModel,
    Model,
    RuleModel,
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


def check_integer(name: str, value) -> None:
    """Reject a run setting that is not an int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """One run's settings. The field defaults are the only run-setting
    defaults; ``lam`` and ``retrain_learning_rate`` are stored as floats. The
    updater is not a setting: the known model's family fixes it."""

    space: ImageSpaceSpec
    model_a: Model
    model_b: Model
    max_queries: int = 10
    lam: float = 0.0
    rng_seed: int = 0
    mode: str = "diagnostic"
    base_dataset: Dataset | None = None
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
            check_integer(name, getattr(self, name))
        for name, key in (("lam", "lambda"), ("retrain_learning_rate", "retrain_learning_rate")):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise InvalidConfigError(f"{key} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.max_queries < 0:
            raise InvalidConfigError("max_queries cannot be negative")
        if self.lam < 0:
            raise InvalidConfigError(f"lambda cannot be negative, got {self.lam}")
        if self.stall_patience < 1:
            raise InvalidConfigError("stall patience must be at least 1")
        for _, label in self.base_dataset or ():
            if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
                raise InvalidConfigError(f"base_dataset labels must be 0 or 1, got {label!r}")
        top_only = self.mode == "epsilon"
        check_comparable(self.model_a, self.model_b, self.space.width, self.space.height, top_only)
        if isinstance(self.model_a, LinearModel):
            if self.base_dataset is None:
                raise InvalidConfigError("retraining a linear known model requires base_dataset")
        elif not isinstance(self.model_a, RuleModel):
            raise InvalidConfigError(
                f"the known model must be a rule or linear model, not {type(self.model_a).__name__}"
            )


@dataclass(frozen=True)
class StepRecord:
    t: int
    query: BinaryImage
    entropy_after: EntropyBreakdown
    i_t: float
    delta_i_t: float

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "query": self.query.to_string(),
            "entropy_after": self.entropy_after.to_json(),
            "I_t": self.i_t,
            "delta_I_t": self.delta_i_t,
        }


@dataclass(frozen=True)
class Report:
    initial_entropy: EntropyBreakdown
    steps: tuple[StepRecord, ...]
    final_interpretability: float
    objective_j: float
    termination: str
    raw_unclamped_final: float
    config: EngineConfig
    epsilon: Confidence | None = None
    pass_disagreements: tuple[int, ...] | None = None
    final_model: Model | None = field(repr=False, default=None)

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


class _Run:
    """What both entry points share: the space matrix and the black box's
    labels (computed once), the known model with its current labels, the
    disagreement they leave, and the step records so far."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.matrix = space_matrix(config.space)
        self.b_levels = level_label_matrix(config.model_b, self.matrix)
        self.steps: list[StepRecord] = []
        self._set_model(config.model_a)
        self.initial = self.breakdown
        # Level counts differ only in epsilon mode, which compares the
        # diagnosis rows alone, so aligning after the first measure is safe.
        if self.b_levels.shape[0] != self.a_levels.shape[0]:
            self.b_levels = np.concatenate([self.a_levels[:-1], self.b_levels[-1:]])

    def _set_model(self, model: Model) -> None:
        self.model = model
        self.a_levels = level_label_matrix(model, self.matrix)
        rows = disagreement_rows(self.a_levels, self.b_levels, self.config.mode == "epsilon")
        self.breakdown = EntropyBreakdown.from_counts(rows.sum(axis=1), self.matrix.shape[0])
        # The query region, ascending in enumeration order.
        self.region = np.flatnonzero(rows.any(axis=0))

    def zero_entropy_termination(self) -> str:
        """How a run at zero initial entropy ends: ``entropy_zero`` when some
        level disagrees on every image, ``no_disagreement`` when none does."""
        return TERM_NO_DISAGREEMENT if self.region.size == 0 else TERM_ENTROPY_ZERO

    def image(self, idx: int) -> BinaryImage:
        space = self.config.space
        return BinaryImage(space.width, space.height, tuple(self.matrix[idx].tolist()))

    def rule_step(self, idx: int) -> StepRecord:
        """Update the rule model toward the black box on image ``idx``."""
        target = self.b_levels[:, idx]
        image = self.image(idx)
        model = rule_update(self.model, image, target, self.matrix, self.b_levels)
        return self.record(image, model)

    def record(self, image: BinaryImage, model: Model) -> StepRecord:
        """Adopt the updated model, re-measure, and append the step."""
        self._set_model(model)
        h0 = self.initial.total
        i_t = interpretability(h0, self.breakdown.total)
        prev = self.steps[-1].i_t if self.steps else 0.0
        step = StepRecord(len(self.steps) + 1, image, self.breakdown, float(i_t), float(i_t - prev))
        self.steps.append(step)
        return step

    def report(self, termination: str, pass_counts: list[int] | None = None) -> Report:
        config = self.config
        raw_final = raw_interpretability(self.initial.total, self.breakdown.total)
        final = self.steps[-1].i_t if self.steps else raw_final
        epsilon = None
        if config.mode == "epsilon":
            epsilon = confidence_epsilon(self.matrix.shape[0], config.space.num_pixels)
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
    while the entropy is positive.
    """
    run = _Run(config)
    if run.initial.total == 0.0:
        return run.report(run.zero_entropy_termination())

    rng = np.random.default_rng(config.rng_seed)
    queries: list[tuple[BinaryImage, int]] = []
    zero_delta_run = 0
    for _ in range(config.max_queries):
        idx = int(run.region[int(rng.integers(0, run.region.size))])
        if config.updater == RULE_UPDATER:
            step = run.rule_step(idx)
        else:
            image = run.image(idx)
            queries.append((image, int(run.b_levels[-1, idx])))
            retrain_seed = int(rng.integers(0, 2**31))
            model = linear_update(
                config.model_a,
                config.base_dataset,
                queries,
                config.retrain_epochs,
                config.retrain_learning_rate,
                retrain_seed,
            )
            step = run.record(image, model)
        if step.entropy_after.total == 0.0:
            return run.report(TERM_ENTROPY_ZERO)
        zero_delta_run = zero_delta_run + 1 if step.delta_i_t == 0.0 else 0
        if zero_delta_run >= config.stall_patience:
            return run.report(TERM_STALLED)
    return run.report(TERM_BUDGET)


def run_complete_interpretation(config: EngineConfig) -> Report:
    """Exhaustive interpretation of a full space in enumeration order.

    The query budget is ignored: every image in the query region is visited,
    pass after pass, until none remain (``entropy_zero``), a full pass leaves
    the total entropy unchanged (``stalled``, a fixed point of the updater),
    or a pass ends on a model that started or ended an earlier pass
    (``cycle``). The updater is deterministic and a grid has finitely many
    rule models, so one of the three always happens.
    """
    if config.space.mode != "full":
        raise InvalidConfigError("complete interpretation runs over a full space")
    if config.updater != RULE_UPDATER:
        raise InvalidConfigError("complete interpretation edits a rule model")
    if num_levels(config.model_a) != num_levels(config.model_b):
        raise AbstractionMismatchError(
            "complete interpretation updates every level and needs matched level counts"
        )

    run = _Run(config)
    pass_counts: list[int] = []
    if run.initial.total == 0.0:
        return run.report(run.zero_entropy_termination(), pass_counts)

    entropy_before_pass = run.initial.total
    # The model at the start and at the end of each pass so far.
    seen = {run.model}
    while True:
        pass_counts.append(int(run.region.size))
        position = 0
        while True:
            # the next region image at or after ``position``
            k = int(np.searchsorted(run.region, position))
            if k == run.region.size:
                break
            idx = int(run.region[k])
            if run.rule_step(idx).entropy_after.total == 0.0:
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
SETTING_KEYS = {
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
    doc.update({key: getattr(config, name) for key, name in SETTING_KEYS.items()})
    doc["base_dataset"] = (
        None
        if config.base_dataset is None
        else [[img.to_string(), int(label)] for img, label in config.base_dataset]
    )
    return doc


def config_from_json(doc: dict) -> EngineConfig:
    """Parse a run spec. Settings it leaves out take EngineConfig's defaults;
    its required ``updater`` must name the known model's update."""
    try:
        space = spec_from_json(doc["space"])
        model_a = model_from_json(doc["model_a"])
        model_b = model_from_json(doc["model_b"])
        updater = doc["updater"]
    except KeyError as missing:
        raise InvalidConfigError(f"run spec missing key {missing}") from None
    settings = {name: doc[key] for key, name in SETTING_KEYS.items() if key in doc}
    if doc.get("base_dataset") is not None:
        settings["base_dataset"] = [
            (BinaryImage.from_string(space.width, space.height, text), label)
            for text, label in doc["base_dataset"]
        ]
    config = EngineConfig(space=space, model_a=model_a, model_b=model_b, **settings)
    if updater != config.updater:
        raise InvalidConfigError(f"updater {updater!r} does not drive a {type(model_a).__name__}")
    return config
