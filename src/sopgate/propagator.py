"""Exact end-of-pulse propagators for blockade-restricted subsystems.

Under perfect blockade, at most one atom can hold a Rydberg excitation, so a
resonant pulse couples each computational basis state only to the states where
one of its |0> qubits is promoted to |r>. Within such a block the dynamics is
a Rabi rotation between the ground state and a single bright superposition of
the Rydberg levels; everything orthogonal to the bright state is dark and
frozen. Propagators are returned as plain complex ndarrays over the block
basis {ground, r_1, ..., r_n}.

One formula, :func:`star_propagator`, gives a pulse's propagator and
broadcasts over arrays of mixing angles. One kernel, :func:`block_amplitudes`,
multiplies a block's propagators in pulse order and returns the ground-state
return amplitude; single protocols, fidelity maps, robustness scans and
:func:`u11v_esop_exact` all go through it. The closed forms
(``u11v_threepulse``, ``u11v_sop``, ``u11v_esop``, ``u11alpha``,
``rotate_areas``, ``dark_state``) serve as test oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NoDarkSubspaceError,
    NotNormalizedError,
    UnsupportedPulseCountError,
    ZeroVectorError,
)
from .model import Protocol, StructuralVector, basis_labels


def _coupling_array(coupling) -> np.ndarray:
    if isinstance(coupling, StructuralVector):
        return coupling.as_array()
    return np.atleast_1d(np.asarray(coupling, dtype=float))


def star_propagator(coupling, theta) -> np.ndarray:
    """Propagator of one ground state coupled to n Rydberg levels by one pulse.

    With coupling vector v (norm s) and mixing angle ``theta`` (half the pulse
    area), the ground state Rabi-rotates with the bright state
    |B> = sum_i (v_i / s)|r_i> through an effective angle s*theta:

    * U[0, 0]         = cos(s*theta)
    * U[0, 1 + i]     = i (v_i / s) sin(s*theta)   (symmetric)
    * U[1 + i, 1 + j] = delta_ij + (v_i v_j / s^2)(cos(s*theta) - 1)

    A zero or empty coupling returns the identity (fully decoupled block).

    Parameters
    ----------
    coupling : array_like or StructuralVector
        Real coupling factors of the |0> qubits in the block; need not be
        normalized.
    theta : float or array_like
        Mixing angle(s) in radians; the propagator broadcasts over them.

    Returns
    -------
    numpy.ndarray
        Unitary complex matrices of shape ``theta.shape + (1 + n, 1 + n)``;
        a scalar ``theta`` gives one (1 + n, 1 + n) matrix.
    """
    v = _coupling_array(coupling)
    theta = np.asarray(theta, dtype=float)
    dim = v.size + 1
    # What np.linalg.norm computes for a 1-D real vector, without its overhead.
    s = math.sqrt(float(v @ v))
    if s == 0.0:
        return np.eye(dim, dtype=complex) + np.zeros(theta.shape + (1, 1))
    unit = v / s
    phase = (s * theta)[..., None, None]
    cos_p = np.cos(phase)
    out = np.empty(theta.shape + (dim, dim), dtype=complex)
    out[..., :1, :1] = cos_p
    out[..., :1, 1:] = 1j * unit * np.sin(phase)
    out[..., 1:, 0] = out[..., 0, 1:]
    out[..., 1:, 1:] = np.eye(dim - 1) + unit[:, None] * unit * (cos_p - 1.0)
    return out


# The batched form was once a separate formula; the name stays importable
# (here and in ``sopgate.fidelity``) for the span shims of bench/spans.py.
star_propagator_batch = star_propagator


def block_amplitudes(couplings, thetas) -> np.ndarray:
    """Ground-state return amplitude of one blockade block after a pulse sequence.

    ``couplings[k]`` is the block's coupling in pulse k and ``thetas[k]`` that
    pulse's mixing angle, a scalar or an array; the angles of all pulses must
    broadcast to one shape. The star propagators are multiplied in pulse
    order, U = U_M ... U_2 U_1, and U[0, 0] is returned with the broadcast
    shape of the angles (0-d for scalar angles).
    """
    u_tot = None
    for coupling, theta in zip(couplings, thetas, strict=True):
        u_k = star_propagator(coupling, theta)
        u_tot = u_k if u_tot is None else u_k @ u_tot
    if u_tot is None:  # no pulses: the identity
        return np.array(1.0 + 0.0j)
    return u_tot[..., 0, 0]


def dark_state(coupling) -> np.ndarray:
    """Orthonormal basis of the dark subspace of a coupling vector.

    The rows of the returned (n-1, n) array span, in Rydberg coordinates, the
    orthogonal complement of the coupling; every row d satisfies
    ``star_propagator(v, theta) @ (0, d) = (0, d)`` for all theta. For n = 2
    and v = (a, b) the basis is the single vector (-b, a)/|v|.
    """
    v = _coupling_array(coupling)
    if v.size < 2:
        raise NoDarkSubspaceError("dark subspace needs a coupling of dimension >= 2")
    s = float(np.linalg.norm(v))
    if s == 0.0:
        raise ZeroVectorError("dark subspace of a zero coupling is the whole space")
    if v.size == 2:
        return np.array([[-v[1], v[0]]]) / s
    # Null space of v as a 1 x n matrix; fix the sign of each basis vector so
    # its largest-magnitude component is positive (deterministic output).
    from scipy.linalg import null_space

    basis = null_space(v[None, :]).T
    for row in basis:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    return basis


@dataclass(frozen=True, eq=False)
class SubsystemBlock:
    """Blockade-restricted block reached from one computational basis state.

    ``zero_qubits`` are the positions holding |0>; the block basis is the
    initial state followed by the states with one of those qubits promoted to
    |r>. ``couplings`` holds, per pulse, the structural-vector components
    restricted to the zero qubits (shape ``(n_pulses, len(zero_qubits))``).
    """

    initial_state: str
    zero_qubits: tuple[int, ...]
    couplings: np.ndarray

    @property
    def dimension(self) -> int:
        return 1 + len(self.zero_qubits)


def _zero_positions(label: str, n_qubits: int) -> tuple[int, ...]:
    if len(label) != n_qubits or any(ch not in "01" for ch in label):
        raise DimensionMismatchError(f"basis label {label!r} is not a {n_qubits}-bit string")
    return tuple(i for i, ch in enumerate(label) if ch == "0")


def _pulse_couplings(protocol: Protocol) -> np.ndarray:
    vectors = np.array([p.vector.components for p in protocol.pulses], dtype=float)
    return vectors.reshape(protocol.n_pulses, protocol.n_qubits)


def block_decompose(protocol: Protocol) -> list[SubsystemBlock]:
    """Split a protocol's register into independent blocks, one per basis state.

    Perfect blockade is assumed: each block contains the initial state plus
    the singly-excited states reachable by one |0> -> |r> flip. States with
    every qubit in |1> give trivial one-dimensional blocks.
    """
    vectors = _pulse_couplings(protocol)
    blocks = []
    for label in basis_labels(protocol.n_qubits):
        zq = _zero_positions(label, protocol.n_qubits)
        blocks.append(
            SubsystemBlock(initial_state=label, zero_qubits=zq, couplings=vectors[:, zq])
        )
    return blocks


def sequence_amplitude(protocol: Protocol, basis_state: str) -> complex:
    """Amplitude for ``basis_state`` to return to itself after the full sequence.

    Composes the per-pulse propagators inside the state's block and returns
    the ground-ground element of the product.
    """
    zq = _zero_positions(basis_state, protocol.n_qubits)
    thetas = [p.theta for p in protocol.pulses]
    return complex(block_amplitudes(_pulse_couplings(protocol)[:, zq], thetas))


def diagonal_amplitudes(protocol: Protocol) -> np.ndarray:
    """Return amplitudes of all computational states, in basis_labels order."""
    thetas = [p.theta for p in protocol.pulses]
    return np.array([block_amplitudes(b.couplings, thetas) for b in block_decompose(protocol)])


def u11v_threepulse(e1, e2, e3, th1: float, th2: float, th3: float) -> float:
    """Ground-state return amplitude of a three-pulse sequence, in closed form.

    Valid for unit structural vectors of any dimension (all-zeros state of an
    N-qubit register). With c_k = cos(th_k), s_k = sin(th_k) and dot products
    between the vectors:

        c3 c2 c1 - (e2.e1) c3 s2 s1 - (e3.e2) s3 s2 c1
        - (e3.e2)(e2.e1) s3 c2 s1 - [e3.e1 - (e3.e2)(e2.e1)] s3 s1

    Equals the (ground, ground) element of the composed star propagators.
    """
    v1, v2, v3 = (_coupling_array(e) for e in (e1, e2, e3))
    if not (v1.size == v2.size == v3.size):
        raise DimensionMismatchError("structural vectors must share one dimension")
    d21 = float(v2 @ v1)
    d32 = float(v3 @ v2)
    d31 = float(v3 @ v1)
    c1, c2, c3 = math.cos(th1), math.cos(th2), math.cos(th3)
    s1, s2, s3 = math.sin(th1), math.sin(th2), math.sin(th3)
    return (
        c3 * c2 * c1
        - d21 * c3 * s2 * s1
        - d32 * s3 * s2 * c1
        - d32 * d21 * s3 * c2 * s1
        - (d31 - d32 * d21) * s3 * s1
    )


def u11v_sop(theta1, theta2):
    """Ground-state return amplitude of the symmetric orthogonal protocol.

    cos^2(theta1) cos(theta2) - sin^2(theta1); independent of the field
    overlap b by construction. Accepts scalars or arrays.
    """
    c1 = np.cos(theta1)
    s1 = np.sin(theta1)
    result = c1 * c1 * np.cos(theta2) - s1 * s1
    if np.isscalar(theta1) and np.isscalar(theta2):
        return float(result)
    return result


def u11alpha(protocol: Protocol, alpha_components) -> float:
    """Return amplitude of a two-level (single active qubit) subsystem.

    ``alpha_components`` holds, per pulse, the geometrical factor of the one
    qubit still in |0>; the x-rotations commute, so the amplitude is
    cos(sum_k alpha_k * theta_k).
    """
    alphas = np.atleast_1d(np.asarray(alpha_components, dtype=float))
    if alphas.size != protocol.n_pulses:
        raise LengthMismatchError(
            f"{alphas.size} components for a {protocol.n_pulses}-pulse protocol"
        )
    total = math.fsum(a * p.theta for a, p in zip(alphas, protocol.pulses))
    return math.cos(total)


def rotate_areas(a: float, b: float, area_odd: float, area_even: float) -> tuple[float, float]:
    """Mix odd/even pulse areas by the rotation set by geometrical factors (a, b).

    Returns (a*A_odd - b*A_even, b*A_odd + a*A_even); the inverse rotation is
    the transpose (b -> -b). Maps the displaced optima of an orthogonal
    protocol back onto the axis-aligned lattice of the independent-qubit case.
    """
    if abs(a * a + b * b - 1.0) > 1e-9:
        raise NotNormalizedError(f"(a, b) must be unit length, got norm^2 = {a * a + b * b}")
    return (a * area_odd - b * area_even, b * area_odd + a * area_even)


def u11v_esop(m_pulses: int, theta_odd, theta_even):
    """Closed-form return amplitude of alternating M-pulse sequences (M = 2..5).

    These are the published compact expressions; for M = 4 and M = 5 they
    deviate from the exact composition away from the optima (they can even
    leave [-1, 1]). Use :func:`u11v_esop_exact` as ground truth; see
    tests for the documented discrepancy.
    """
    c_o, s_o = np.cos(theta_odd), np.sin(theta_odd)
    c_e, s_e = np.cos(theta_even), np.sin(theta_even)
    if m_pulses == 2:
        result = c_e * c_o
    elif m_pulses == 3:
        result = c_o**2 * c_e - s_o**2
    elif m_pulses == 4:
        result = c_o**2 * c_e**2 - s_o**2 - s_e**2
    elif m_pulses == 5:
        result = c_o**3 * c_e**2 - 3.0 * s_o**2 - s_e**2
    else:
        raise UnsupportedPulseCountError(f"no closed form for {m_pulses} pulses")
    if np.isscalar(theta_odd) and np.isscalar(theta_even):
        return float(result)
    return result


def u11v_esop_exact(m_pulses: int, theta_odd, theta_even):
    """Exact return amplitude of alternating orthogonal M-pulse sequences.

    Because the amplitude depends on the structural vectors only through
    their orthonormality, it equals the composition of star propagators with
    couplings (1, 0) and (0, 1); works for any M >= 1 and broadcasts over
    angle arrays.
    """
    if m_pulses < 1:
        raise UnsupportedPulseCountError("need at least one pulse")
    thetas = np.broadcast_arrays(theta_odd, theta_even)
    couplings = ((1.0, 0.0), (0.0, 1.0))
    order = [k % 2 for k in range(m_pulses)]
    result = block_amplitudes([couplings[i] for i in order], [thetas[i] for i in order]).real
    if result.ndim == 0:
        return float(result)
    return result
