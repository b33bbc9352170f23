"""Exception types raised on invalid inputs across the package."""


class SopGateError(ValueError):
    """Base class for all validation errors raised by sopgate."""


class ZeroVectorError(SopGateError):
    """All components of a would-be structural vector are numerically zero."""


class DimensionMismatchError(SopGateError):
    """Vector or state dimensions are inconsistent with the register."""


class NotNormalizedError(SopGateError):
    """A quantity that must be unit-normalized is not."""


class UnsupportedPulseCountError(SopGateError):
    """No closed-form expression is available for this pulse count."""


class NoDarkSubspaceError(SopGateError):
    """A dark subspace exists only for couplings of dimension >= 2."""


class LengthMismatchError(SopGateError):
    """A per-pulse argument does not have one entry per pulse."""


class SignatureMismatchError(SopGateError):
    """Gate signature length does not match the register's basis size."""


class EmptyGridError(SopGateError):
    """A sweep grid contains no points."""


class NoMaximaFoundError(SopGateError):
    """No local maxima above threshold in a fidelity map."""


class InfeasibleStartError(SopGateError):
    """The feasible set of an optimization problem is empty."""


class StepTooLargeError(SopGateError):
    """Numerical integration step too coarse: unitarity drift exceeded."""
