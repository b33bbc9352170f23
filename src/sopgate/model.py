"""Data model for spatio-temporally structured pulse protocols on atom registers.

A protocol is an ordered sequence of resonant pulses. Each pulse carries a
signed area (radians) and a unit *structural vector* whose components are the
local field-amplitude factors at the individual qubits. Negative components
encode a pi phase flip of the field at a site; a negative area encodes a phase
flip of the whole pulse. All types are immutable values.

Areas are stored in radians throughout the library; presentation layers (CLI,
CSV, JSON reports) convert to units of pi. The one exception is
:class:`~sopgate.fidelity.GridSpec`, a map's sweep range, which is given in
units of pi as on the command line; its users take its points in radians,
from ``GridSpec.values_radians``.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotNormalizedError

UNIT_NORM_TOL = 1e-12

# Basis ordering is part of the interface: the C-PHASE phases and
# diagonal-amplitude arrays are order-sensitive. The three-qubit order groups
# the states acted on by the two gate qubits (a, b) first, with the spectator
# qubit c last.
_BASIS_2Q = ("00", "01", "10", "11")
_BASIS_3Q = ("000", "010", "100", "001", "101", "011", "110", "111")


def basis_labels(n_qubits: int) -> tuple[str, ...]:
    """Canonical computational-basis ordering for an n-qubit register.

    Bit k of a label is the state of qubit k; the first two qubits are the
    gate qubits a and b, any further qubits are spectators.
    """
    if n_qubits < 1:
        raise DimensionMismatchError("register needs at least one qubit")
    if n_qubits == 2:
        return _BASIS_2Q
    if n_qubits == 3:
        return _BASIS_3Q
    return tuple("".join(bits) for bits in itertools.product("01", repeat=n_qubits))


@dataclass(frozen=True)
class StructuralVector:
    """Unit vector of per-qubit field-amplitude factors of a single pulse.

    The Euclidean norm must be 1 within ``UNIT_NORM_TOL``. Components may be
    negative.
    """

    components: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise DimensionMismatchError("structural vector needs >= 1 component")
        norm = math.sqrt(math.fsum(c * c for c in self.components))
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise NotNormalizedError(
                f"structural vector norm {norm!r} differs from 1 by more than {UNIT_NORM_TOL}"
            )

    @property
    def dimension(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Pulse:
    """One resonant pulse: signed area (radians) and its structural vector."""

    area: float
    vector: StructuralVector

    @property
    def theta(self) -> float:
        """Mixing angle: half the pulse area."""
        return 0.5 * self.area


@dataclass(frozen=True)
class Protocol:
    """Ordered pulse sequence acting on an n-qubit register."""

    pulses: tuple[Pulse, ...]
    n_qubits: int

    def __post_init__(self):
        for k, pulse in enumerate(self.pulses):
            if pulse.vector.dimension != self.n_qubits:
                raise DimensionMismatchError(
                    f"pulse {k} has a {pulse.vector.dimension}-component vector "
                    f"on a {self.n_qubits}-qubit register"
                )

    @property
    def n_pulses(self) -> int:
        return len(self.pulses)


@functools.cache
def cphase_signature(n_qubits: int) -> np.ndarray:
    """Target phases of the C-PHASE gate on the first two qubits: -1 unless a = b = 1.

    A read-only float array in :func:`basis_labels` order, one entry per
    computational basis state: diag(-1, -1, -1, 1) for two qubits; with
    spectators present the pattern is independent of the spectator states.
    """
    if n_qubits < 2:
        raise DimensionMismatchError("a controlled-phase gate needs >= 2 qubits")
    phases = np.array([1.0 if label[:2] == "11" else -1.0 for label in basis_labels(n_qubits)])
    phases.flags.writeable = False
    return phases


def spectator_orthogonal_pair(
    b: float, c_odd: float, c_even: float
) -> tuple[StructuralVector, StructuralVector]:
    """Unit 3-component vectors, fully orthogonal, with fixed spectator factors.

    The odd vector is (sqrt(1 - b^2 - c_odd^2), b, c_odd). The even vector
    keeps its own spectator factor and tilts the gate-qubit sub-vector beyond
    the plain 90-degree rotation just enough to cancel the c_odd*c_even
    overlap, so the full dot product vanishes and the ground-state passage of
    the all-zeros block stays exactly dark-state protected. Reduces to the
    two-qubit construction ((a, b), (-b, a)) as the spectator factors go to 0.
    Requires b^2 + c_odd^2 <= 1 and c_odd^2 + c_even^2 <= 1, each up to
    ``UNIT_NORM_TOL`` of round-off: the roots of squares summing to exactly
    1, such as b = c_odd = c_even = sqrt(0.5), square back to a sum just
    above 1, and then a = 0.
    """
    if b * b + c_odd * c_odd > 1.0 + UNIT_NORM_TOL:
        raise NotNormalizedError(f"b^2 + c^2 = {b * b + c_odd * c_odd} exceeds 1")
    if c_odd * c_odd + c_even * c_even > 1.0 + UNIT_NORM_TOL:
        raise NotNormalizedError(
            "no orthogonal partner exists: c_odd^2 + c_even^2 exceeds 1"
        )
    if min(math.sqrt(1.0 - c_odd * c_odd), math.sqrt(1.0 - c_even * c_even)) < 1e-12:
        raise NotNormalizedError("spectator factor of magnitude 1 leaves no gate-qubit coupling")
    e_odd, e_even = spectator_orthogonal_rows(b, c_odd, c_even)
    return StructuralVector(tuple(e_odd.tolist())), StructuralVector(tuple(e_even.tolist()))


def spectator_orthogonal_rows(b, c_odd, c_even) -> tuple[np.ndarray, np.ndarray]:
    """The two vectors of :func:`spectator_orthogonal_pair` as arrays of shape (..., 3).

    Broadcasts over its arguments and checks none of them; where the pair
    exists, each row holds its components bit for bit. The radicand of a is
    clamped at 0, so round-off at b^2 + c_odd^2 = 1 gives a = 0, not NaN.
    """
    b, c_odd, c_even = (np.asarray(x, dtype=float) for x in (b, c_odd, c_even))
    rows = np.empty((2,) + np.broadcast(b, c_odd, c_even).shape + (3,))
    odd_squared = c_odd * c_odd
    r_odd = np.sqrt(1.0 - odd_squared)
    r_even = np.sqrt(1.0 - c_even * c_even)
    a = np.maximum(1.0 - b * b - odd_squared, 0.0, out=rows[0, ..., 0])
    np.sqrt(a, out=a)
    a_hat, b_hat = a / r_odd, b / r_odd
    beta = -c_odd * c_even / (r_odd * r_even)
    alpha = np.sqrt(np.maximum(0.0, 1.0 - beta * beta))
    rows[0, ..., 1], rows[0, ..., 2], rows[1, ..., 2] = b, c_odd, c_even
    # beta a_hat - alpha b_hat has the bits of alpha (-b_hat) + beta a_hat.
    np.multiply(r_even, beta * a_hat - alpha * b_hat, out=rows[1, ..., 0])
    np.multiply(r_even, alpha * a_hat + beta * b_hat, out=rows[1, ..., 1])
    return rows[0], rows[1]
