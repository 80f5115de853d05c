"""diaginterp: information-theoretic interpretability of one classifier by
another over binary-image spaces.

A known, editable model queries the images where it disagrees with a black
box, updates itself toward the black box's answers, and the library tracks
how much of the initial disagreement entropy those queries remove -- together
with how representative the queried space was of all possible inputs. A
brute-force oracle validates every count and entropy on small spaces.
"""

from .engine import (
    EngineConfig,
    Report,
    StepRecord,
    config_from_json,
    config_to_json,
    run_complete_interpretation,
    run_interpretation,
    trajectory_rows,
)
from .errors import (
    AbstractionMismatchError,
    DiagInterpError,
    DomainError,
    InvalidConfigError,
    InvalidInputError,
    InvalidSpecError,
    SpaceTooLargeError,
    UnreachableTargetError,
)
from .fixtures import Fixture, build_fixture, fixture_names
from .imagespace import (
    BinaryImage,
    ImageSpaceSpec,
    enumerate_space,
    envelope_size_bound,
    space_matrix,
    spec_from_json,
    spec_to_json,
)
from .metrics import (
    Confidence,
    EntropyBreakdown,
    binary_entropy,
    confidence_epsilon,
    disagreement_breakdown,
    interpretability,
    objective,
)
from .models import (
    LinearModel,
    NeuralLayer,
    NeuralModel,
    RuleLevel,
    RuleModel,
    bce_gradients,
    bce_loss,
    init_neural,
    linear_update,
    model_from_json,
    model_to_json,
    neural_forward,
    num_levels,
    predict,
    rule_update,
    train_linear,
    train_neural,
    training_accuracy,
)
from .oracle import OracleResult, brute_force_breakdown, exhaustive_fixed_point

__version__ = "0.1.0"

__all__ = [
    "AbstractionMismatchError",
    "BinaryImage",
    "Confidence",
    "DiagInterpError",
    "DomainError",
    "EngineConfig",
    "EntropyBreakdown",
    "Fixture",
    "ImageSpaceSpec",
    "InvalidConfigError",
    "InvalidInputError",
    "InvalidSpecError",
    "LinearModel",
    "NeuralLayer",
    "NeuralModel",
    "OracleResult",
    "Report",
    "RuleLevel",
    "RuleModel",
    "SpaceTooLargeError",
    "StepRecord",
    "UnreachableTargetError",
    "bce_gradients",
    "bce_loss",
    "binary_entropy",
    "brute_force_breakdown",
    "build_fixture",
    "confidence_epsilon",
    "config_from_json",
    "config_to_json",
    "disagreement_breakdown",
    "enumerate_space",
    "envelope_size_bound",
    "exhaustive_fixed_point",
    "fixture_names",
    "init_neural",
    "interpretability",
    "linear_update",
    "model_from_json",
    "model_to_json",
    "neural_forward",
    "num_levels",
    "objective",
    "predict",
    "rule_update",
    "run_complete_interpretation",
    "run_interpretation",
    "space_matrix",
    "spec_from_json",
    "spec_to_json",
    "train_linear",
    "train_neural",
    "training_accuracy",
    "trajectory_rows",
]
