"""The interpretation engine: query a disagreement, update the known model,
re-measure the disagreement entropy, repeat.

A run materializes the evaluation space once as a matrix and labels it with
the black box once. After every update it relabels the space with the known
model, once, and compares the two label matrices. The levels it compares are
every level in diagnostic mode and the diagnosis level in epsilon mode. The
resulting disagreement rows give both the step's entropy breakdown and the
query region: the images that disagree at any compared level.

The initial disagreement entropy stays fixed as the denominator of every
per-step interpretability value. Runs terminate when the entropy hits zero,
no queryable disagreement remains, the trajectory stalls, or the query budget
runs out. Reports capture the whole trajectory and are deterministic
functions of the configuration, seed included.

Two entry points share that setup, the step record and the report; each has
its own query selection and termination rules:

* run_interpretation -- the budgeted, seeded loop: a uniform draw from the
  query region (diagnostic or single-level epsilon mode, rule-edit or
  retraining updater);
* run_complete_interpretation -- exhaustive, unbudgeted querying of a full
  space in enumeration order with the rule updater, stopping at zero entropy
  or at a fixed point where a whole pass leaves the entropy unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AbstractionMismatchError, InvalidConfigError
from .imagespace import (
    BinaryImage,
    ImageSpaceSpec,
    SpaceCardinality,
    cardinality_full,
    space_matrix,
    spec_from_json,
    spec_to_json,
)
from .metrics import (
    Confidence,
    EntropyBreakdown,
    confidence_epsilon,
    interpretability,
    objective,
)
from .models import (
    Dataset,
    LinearModel,
    Model,
    RuleModel,
    level_label_matrix,
    linear_update,
    model_from_json,
    model_grid,
    model_to_json,
    num_levels,
    rule_update,
)

RULE_UPDATER = "rule_minimal_edit"
RETRAIN_UPDATER = "retrain_with_queries"

TERM_ENTROPY_ZERO = "entropy_zero"
TERM_NO_DISAGREEMENT = "no_disagreement"
TERM_STALLED = "stalled"
TERM_BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class EngineConfig:
    space: ImageSpaceSpec
    model_a: Model
    model_b: Model
    updater: str
    max_queries: int
    lam: float = 0.0
    rng_seed: int = 0
    mode: str = "diagnostic"
    base_dataset: Dataset | None = None
    stall_patience: int = 3
    retrain_epochs: int = 50
    retrain_learning_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.updater not in (RULE_UPDATER, RETRAIN_UPDATER):
            raise InvalidConfigError(f"unknown updater {self.updater!r}")
        if self.mode not in ("diagnostic", "epsilon"):
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        if self.max_queries < 0:
            raise InvalidConfigError("max_queries cannot be negative")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise InvalidConfigError(f"lambda must be a finite nonnegative real, got {self.lam}")
        if not math.isfinite(self.retrain_learning_rate):
            raise InvalidConfigError(
                f"retrain learning rate must be finite, got {self.retrain_learning_rate}"
            )
        if self.stall_patience < 1:
            raise InvalidConfigError("stall patience must be at least 1")
        grid = (self.space.width, self.space.height)
        for name, model in (("model_a", self.model_a), ("model_b", self.model_b)):
            if model_grid(model) != grid:
                raise InvalidConfigError(
                    f"{name} expects grid {model.width}x{model.height}, "
                    f"space is {grid[0]}x{grid[1]}"
                )
        if self.mode == "diagnostic" and num_levels(self.model_a) != num_levels(self.model_b):
            raise AbstractionMismatchError(
                f"diagnostic mode requires matched level counts, got "
                f"{num_levels(self.model_a)} vs {num_levels(self.model_b)}"
            )
        if self.updater == RETRAIN_UPDATER:
            if self.base_dataset is None:
                raise InvalidConfigError("the retraining updater requires base_dataset")
            if not isinstance(self.model_a, LinearModel):
                raise InvalidConfigError("the retraining updater drives a linear model")
        if self.updater == RULE_UPDATER and not isinstance(self.model_a, RuleModel):
            raise InvalidConfigError("the rule updater drives a rule model")


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
    seed: int
    config: EngineConfig
    epsilon: Confidence | None = None
    pass_disagreements: tuple[int, ...] | None = None
    final_model: Model | None = field(repr=False, default=None)

    def to_json(self) -> dict:
        doc = {
            "seed": self.seed,
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

    def _set_model(self, model: Model) -> None:
        self.model = model
        self.a_levels = level_label_matrix(model, self.matrix)
        rows = _disagreement_rows(self.config.mode, self.a_levels, self.b_levels)
        self.breakdown = EntropyBreakdown.from_counts(rows.sum(axis=1), self.matrix.shape[0])
        # The query region, ascending in enumeration order.
        self.region = np.flatnonzero(rows.any(axis=0))

    def image(self, idx: int) -> BinaryImage:
        space = self.config.space
        return BinaryImage(space.width, space.height, tuple(self.matrix[idx].tolist()))

    def rule_step(self, idx: int) -> StepRecord:
        """Update the rule model toward the black box on image ``idx``."""
        target = self.b_levels[:, idx].tolist()
        if len(target) != self.a_levels.shape[0]:
            # Epsilon mode across level counts: only the diagnosis level is forced.
            target = self.a_levels[:-1, idx].tolist() + target[-1:]
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
        h0 = self.initial.total
        if self.steps:
            final = self.steps[-1].i_t
            raw_final = (h0 - self.steps[-1].entropy_after.total) / h0
        else:
            final = raw_final = 1.0 if h0 == 0.0 else 0.0
        epsilon = None
        if config.mode == "epsilon":
            epsilon = confidence_epsilon(
                SpaceCardinality.from_int(self.matrix.shape[0]),
                cardinality_full(config.space.width, config.space.height),
            )
        return Report(
            initial_entropy=self.initial,
            steps=tuple(self.steps),
            final_interpretability=float(final),
            objective_j=objective([s.i_t for s in self.steps], config.lam, len(self.steps)),
            termination=termination,
            raw_unclamped_final=float(raw_final),
            seed=config.rng_seed,
            config=config,
            epsilon=epsilon,
            pass_disagreements=None if pass_counts is None else tuple(pass_counts),
            final_model=self.model,
        )


def _disagreement_rows(mode: str, a_levels: np.ndarray, b_levels: np.ndarray) -> np.ndarray:
    """Where the two label matrices disagree, one boolean row per compared
    level: every level in diagnostic mode, the diagnosis level in epsilon
    mode."""
    if mode == "epsilon":
        return a_levels[-1:] != b_levels[-1:]
    return a_levels != b_levels


def run_interpretation(config: EngineConfig) -> Report:
    """Budgeted random-query interpretation (the seeded loop).

    Each query is a uniform draw from the query region.
    """
    run = _Run(config)
    if run.initial.total == 0.0:
        return run.report(TERM_NO_DISAGREEMENT)

    rng = np.random.default_rng(config.rng_seed)
    queries: list[tuple[BinaryImage, int]] = []
    zero_delta_run = 0
    for _ in range(config.max_queries):
        if run.region.size == 0:
            return run.report(TERM_NO_DISAGREEMENT)
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
    pass after pass, until none remain or a full pass leaves the total
    entropy unchanged (a fixed point of the updater).
    """
    if config.space.mode != "full":
        raise InvalidConfigError("complete interpretation runs over a full space")
    if config.updater != RULE_UPDATER:
        raise InvalidConfigError("complete interpretation uses the rule updater")
    if num_levels(config.model_a) != num_levels(config.model_b):
        raise AbstractionMismatchError(
            "complete interpretation updates every level and needs matched level counts"
        )

    run = _Run(config)
    pass_counts: list[int] = []
    if run.initial.total == 0.0:
        return run.report(TERM_NO_DISAGREEMENT, pass_counts)

    entropy_before_pass = run.initial.total
    for _ in range(1000):
        pass_counts.append(int(run.region.size))
        if run.region.size == 0:
            return run.report(TERM_ENTROPY_ZERO, pass_counts)
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
        entropy_before_pass = entropy_now
    raise InvalidConfigError("complete interpretation failed to settle within 1000 passes")


def config_to_json(config: EngineConfig) -> dict:
    doc = {
        "space": spec_to_json(config.space),
        "model_a": model_to_json(config.model_a),
        "model_b": model_to_json(config.model_b),
        "updater": config.updater,
        "max_queries": config.max_queries,
        "lambda": config.lam,
        "rng_seed": config.rng_seed,
        "mode": config.mode,
        "stall_patience": config.stall_patience,
        "retrain_epochs": config.retrain_epochs,
        "retrain_learning_rate": config.retrain_learning_rate,
        "base_dataset": None
        if config.base_dataset is None
        else [[img.to_string(), int(label)] for img, label in config.base_dataset],
    }
    return doc


def config_from_json(doc: dict) -> EngineConfig:
    try:
        space = spec_from_json(doc["space"])
        model_a = model_from_json(doc["model_a"])
        model_b = model_from_json(doc["model_b"])
        updater = doc["updater"]
    except KeyError as missing:
        raise InvalidConfigError(f"run spec missing key {missing}") from None
    base = doc.get("base_dataset")
    dataset = None
    if base is not None:
        dataset = [
            (BinaryImage.from_string(space.width, space.height, text), int(label))
            for text, label in base
        ]
    return EngineConfig(
        space=space,
        model_a=model_a,
        model_b=model_b,
        updater=updater,
        max_queries=int(doc.get("max_queries", 10)),
        lam=float(doc.get("lambda", 0.0)),
        rng_seed=int(doc.get("rng_seed", 0)),
        mode=doc.get("mode", "diagnostic"),
        base_dataset=dataset,
        stall_patience=int(doc.get("stall_patience", 3)),
        retrain_epochs=int(doc.get("retrain_epochs", 50)),
        retrain_learning_rate=float(doc.get("retrain_learning_rate", 1.0)),
    )
