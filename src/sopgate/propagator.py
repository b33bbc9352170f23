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
return amplitude; single protocols, fidelity maps and robustness scans all go
through it. The closed-form amplitudes it is checked against live with the
tests, in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
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

    ``coupling`` (array_like or StructuralVector) holds the real, not
    necessarily normalized, factors of the block's |0> qubits; a zero or
    empty coupling gives the identity. The result broadcasts over ``theta``:
    its shape is ``theta.shape + (1 + n, 1 + n)``.
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
