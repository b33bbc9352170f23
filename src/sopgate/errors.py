"""Exception types raised on invalid inputs across the package."""


class SopGateError(ValueError):
    """Base class for all validation errors raised by sopgate."""


class DimensionMismatchError(SopGateError):
    """Vector or state dimensions are inconsistent with the register."""


class NotNormalizedError(SopGateError):
    """A quantity that must be unit-normalized is not."""


class SignatureMismatchError(SopGateError):
    """An amplitude count is not the basis size 2^n of a register of n >= 2 qubits."""


class EmptyGridError(SopGateError):
    """A sweep grid contains no points."""


class GridTooLargeError(SopGateError):
    """A sweep grid holds more points than the package allows."""


class NoMaximaFoundError(SopGateError):
    """No local maxima above threshold in a fidelity map."""


class InfeasibleStartError(SopGateError):
    """The feasible set of an optimization problem is empty."""


class StepTooLargeError(SopGateError):
    """Numerical integration step too coarse: unitarity drift exceeded."""
