"""Exception hierarchy shared across the package."""


class QnlsError(Exception):
    """Base class for all package errors."""


class InputError(QnlsError, ValueError):
    """Invalid argument values or malformed domain objects."""


class DimensionMismatchError(InputError):
    """Operands with incompatible dimensions."""


class DeskScaleError(QnlsError):
    """A dense construction would exceed the desk-scale dimension cap."""


class RescaleRequiredError(InputError):
    """Coefficients violate the canonical-rescaling preconditions."""


class NumericalFailure(QnlsError):
    """A failure that ends a run early (CLI exit 3); carries whatever
    partial trace the caller accumulated in ``partial``."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class CompositionError(NumericalFailure):
    """Block encodings cannot be composed as requested."""


class AmplificationOverflowError(CompositionError):
    """Requested amplification factor would push the block past unit norm."""


class ConditioningError(NumericalFailure):
    """Spectrum incompatible with the configured inversion threshold."""


class ConfigError(QnlsError):
    """Unattainable or inconsistent configuration."""


class DegenerateReferenceError(NumericalFailure):
    """Reference state nearly orthogonal to the iterate (overlap ~ 0)."""


class SingularJacobianError(NumericalFailure):
    """Jacobian (or its scaled encoding) is singular below the floor."""


class InvariantViolationError(QnlsError):
    """A debug-mode invariant check failed."""


class ParseError(QnlsError):
    """Problem file could not be parsed."""
