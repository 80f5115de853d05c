"""Exception types shared across the package."""


class DiagInterpError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpecError(DiagInterpError):
    """An image-space description is malformed (bad dimensions, bits, radius)."""


class SpaceTooLargeError(DiagInterpError):
    """Enumerating a space would exceed a materialization guard."""


class InvalidInputError(DiagInterpError):
    """An input (usually an image) does not fit the model it was given to."""


class InvalidConfigError(DiagInterpError):
    """A run or training configuration is inconsistent or incomplete."""


class DomainError(DiagInterpError):
    """A numeric argument lies outside the mathematical domain of an operation."""


class AbstractionMismatchError(DiagInterpError):
    """Two models that must share prediction levels do not."""
