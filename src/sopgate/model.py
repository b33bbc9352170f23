"""Data model for spatio-temporally structured pulse protocols on atom registers.

A protocol is an ordered sequence of resonant pulses. Each pulse carries a
signed area (radians) and a unit *structural vector* whose components are the
local field-amplitude factors at the individual qubits. Negative components
encode a pi phase flip of the field at a site; a negative area encodes a phase
flip of the whole pulse. All types are immutable values and safe to share
between workers.

Areas are stored in radians throughout the library; presentation layers (CLI,
CSV, JSON reports) convert to units of pi.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    SignatureMismatchError,
    ZeroVectorError,
)

UNIT_NORM_TOL = 1e-12

# Basis ordering is part of the interface: signatures and diagonal-amplitude
# arrays are order-sensitive. The three-qubit order groups the states acted on
# by the two gate qubits (a, b) first, with the spectator qubit c last.
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

    The Euclidean norm must be 1 within ``UNIT_NORM_TOL``; use
    :func:`make_structural_vector` to normalize arbitrary input. Components
    may be negative.
    """

    components: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise DimensionMismatchError("structural vector needs >= 1 component")
        norm = math.sqrt(math.fsum(c * c for c in self.components))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise NotNormalizedError(
                f"structural vector norm {norm!r} differs from 1 by more than {UNIT_NORM_TOL}"
            )

    @property
    def dimension(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


def make_structural_vector(components) -> StructuralVector:
    """Scale ``components`` to unit Euclidean norm, preserving signs.

    Idempotent: input that is already normalized within ``UNIT_NORM_TOL`` is
    passed through unchanged, so normalizing twice equals normalizing once
    exactly.

    Raises
    ------
    ZeroVectorError
        If every component is below 1e-15 in magnitude.
    """
    arr = np.atleast_1d(np.asarray(components, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError("components must be a non-empty 1-D sequence")
    if np.all(np.abs(arr) < 1e-15):
        raise ZeroVectorError("cannot normalize a zero vector")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        arr = arr / norm
    return StructuralVector(tuple(float(c) for c in arr))


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

    @property
    def areas(self) -> tuple[float, ...]:
        return tuple(p.area for p in self.pulses)


@dataclass(frozen=True)
class GateSignature:
    """Target diagonal phases (+1/-1) of a C-PHASE-type gate.

    Entries follow :func:`basis_labels` ordering and there is one entry per
    computational basis state.
    """

    phases: tuple[int, ...]

    def __post_init__(self):
        n = len(self.phases)
        if n < 2 or n & (n - 1):
            raise SignatureMismatchError(f"signature length {n} is not a power of two >= 2")
        if any(p not in (-1, 1) for p in self.phases):
            raise SignatureMismatchError("signature entries must be +1 or -1")


def cphase_signature(n_qubits: int) -> GateSignature:
    """Controlled-phase signature on the first two qubits: -1 unless a = b = 1.

    For two qubits this is diag(-1, -1, -1, 1); with spectators present the
    pattern is independent of the spectator states.
    """
    if n_qubits < 2:
        raise DimensionMismatchError("a controlled-phase gate needs >= 2 qubits")
    phases = tuple(1 if label[:2] == "11" else -1 for label in basis_labels(n_qubits))
    return GateSignature(phases)


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
    Requires c_odd^2 + c_even^2 <= 1, up to ``UNIT_NORM_TOL`` of round-off
    (c_odd = c_even = sqrt(0.5) squares to a sum just above 1).
    """
    if b * b + c_odd * c_odd > 1.0:
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
    exists, each row holds its components bit for bit.
    """
    b, c_odd, c_even = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (b, c_odd, c_even))
    )
    r_odd = np.sqrt(1.0 - c_odd * c_odd)
    r_even = np.sqrt(1.0 - c_even * c_even)
    a = np.sqrt(1.0 - b * b - c_odd * c_odd)
    a_hat, b_hat = a / r_odd, b / r_odd
    beta = -c_odd * c_even / (r_odd * r_even)
    alpha = np.sqrt(np.maximum(0.0, 1.0 - beta * beta))
    e_even = (
        r_even * (alpha * (-b_hat) + beta * a_hat),
        r_even * (alpha * a_hat + beta * b_hat),
        c_even,
    )
    return np.stack([a, b, c_odd], axis=-1), np.stack(e_even, axis=-1)
