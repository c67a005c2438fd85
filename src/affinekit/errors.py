"""Exception types shared across the toolkit."""


class AffineKitError(Exception):
    """Base class for all affinekit errors."""


class SingularInput(AffineKitError):
    """A matrix argument is singular (|det| at or below the floor)."""


class NegativeOrientation(AffineKitError):
    """A configuration matrix has negative determinant (outside GL+)."""


class DegenerateSpectrum(AffineKitError):
    """Coincident singular values make a decomposition chart degenerate."""


class DegenerateMetric(AffineKitError):
    """The kinetic-energy quadratic form is not invertible at these inertia constants."""


class MissingParams(AffineKitError):
    """The selected kinetic model needs an inertia parameter that was not supplied."""


class NonDifferentiable(AffineKitError):
    """A potential term is evaluated where its derivative does not exist."""


class IterationDiverged(AffineKitError):
    """An implicit solve failed to converge: a run's abort kind, not raised."""


class StateInvalid(AffineKitError):
    """A phase-space state left the admissible region (det phi at the floor)."""


class RunTooLong(AffineKitError, MemoryError):
    """A run's samples, stored up front, do not fit in memory."""


class ConvergenceFailure(AffineKitError):
    """An eigensolver did not converge."""


class InvalidInertia(AffineKitError):
    """A quantum grid was built with a non-positive effective inertia."""


class DomainOverflow(AffineKitError):
    """A shifted wave function would leave the grid support."""


class ParseError(AffineKitError):
    """A scenario file is not well-formed."""


class ValidationError(AffineKitError):
    """A scenario file is well-formed but violates the schema."""
