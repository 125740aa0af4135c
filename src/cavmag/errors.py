"""Exception types shared across the package."""


class CavmagError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CavmagError):
    """Matrix or vector dimensions are incompatible with the operation."""


class DomainError(CavmagError):
    """An input value lies outside the operation's domain."""


class SingularMatrixError(CavmagError):
    """A linear solve hit a pivot too small to trust, or LAPACK an exactly singular factor."""


class NumericalError(CavmagError):
    """An iterative kernel failed to converge or violated its residual bound."""


class StabilityError(CavmagError):
    """The drift matrix is not Hurwitz stable, so no steady state exists."""


class PhysicalityError(CavmagError):
    """A covariance matrix violates the Heisenberg bound."""


class ValidationError(CavmagError):
    """A sweep or preset specification failed validation."""


class ConfigError(CavmagError):
    """A CLI configuration file or flag could not be resolved."""
