"""Exact end-of-pulse propagators for blockade-restricted subsystems.

Under perfect blockade, at most one atom can hold a Rydberg excitation, so a
resonant pulse couples each computational basis state only to the states where
one of its |0> qubits is promoted to |r>. Within such a block the dynamics is
a Rabi rotation between the ground state and a single bright superposition of
the Rydberg levels; everything orthogonal to the bright state is dark and
frozen. Propagators are returned as plain complex ndarrays over the block
basis {ground, r_1, ..., r_n}.

One formula, :func:`star_propagator`, gives a pulse's propagator and
broadcasts over arrays of couplings and mixing angles. A block's propagators
are multiplied in pulse order and its ground-state return amplitude read off
in one place, ``_ground_return``. :func:`block_amplitudes` does this for one
block, with each pulse's propagators built on its own axes (fidelity maps,
robustness scans, the time-domain check); :func:`register_amplitudes` does it
for every block of a register at once, stacking the blocks of one dimension
(single protocols, b scans, optimizer candidates). The closed-form
amplitudes they are checked against live with the tests, in
``tests/oracles.py``.
"""

import functools
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

    ``coupling`` (array_like of shape (..., n), or a StructuralVector) holds
    the real, not necessarily normalized, factors of the block's |0> qubits,
    one coupling per row; a zero or empty coupling gives the identity. The
    result broadcasts over the coupling rows and ``theta``: its shape is
    ``broadcast(coupling.shape[:-1], theta.shape) + (1 + n, 1 + n)``, and
    each matrix equals the one of its row and angle alone bit for bit.
    """
    v = _coupling_array(coupling)
    theta = np.asarray(theta, dtype=float)
    dim = v.shape[-1] + 1
    # Per row, np.vecdot computes what ``v @ v`` does for a 1-D vector.
    s = np.sqrt(np.vecdot(v, v))
    zero = s == 0.0
    unit = v / np.where(zero, 1.0, s)[..., None]
    phase = (s * theta)[..., None, None]
    cos_p = np.cos(phase)
    out = np.empty(phase.shape[:-2] + (dim, dim), dtype=complex)
    out[..., :1, :1] = cos_p
    out[..., :1, 1:] = 1j * unit[..., None, :] * np.sin(phase)
    out[..., 1:, 0] = out[..., 0, 1:]
    rydberg = unit[..., :, None] * unit[..., None, :] * (cos_p - 1.0)
    rydberg += np.eye(dim - 1)
    out[..., 1:, 1:] = rydberg
    if zero.any():
        out[np.broadcast_to(zero, out.shape[:-2])] = np.eye(dim)
    return out


# The batched form was once a separate formula; the name stays importable
# (here and in ``sopgate.fidelity``) for the span shims of bench/spans.py.
star_propagator_batch = star_propagator


def _ground_return(propagators) -> np.ndarray:
    """U[0, 0] of U = U_M ... U_2 U_1, the per-pulse propagators multiplied in pulse order."""
    if len(propagators) == 0:  # no pulses: the identity
        return np.array(1.0 + 0.0j)
    u_tot = propagators[0]
    for u_k in propagators[1:]:
        u_tot = u_k @ u_tot
    return u_tot[..., 0, 0]


def block_amplitudes(couplings, thetas) -> np.ndarray:
    """Ground-state return amplitude of one blockade block after a pulse sequence.

    ``couplings[k]`` is the block's coupling in pulse k, one vector or an
    array of them with shape (..., n), and ``thetas[k]`` that pulse's mixing
    angle, a scalar or an array; the coupling rows and angles of all pulses
    must broadcast to one shape. Each pulse's star propagators are built on
    its own shapes, so angles that vary along different axes, like the odd
    and even areas of a map, cost one propagator per axis value. The
    propagators are multiplied in pulse order, U = U_M ... U_2 U_1, and
    U[0, 0] is returned with the broadcast shape (0-d for one coupling and
    scalar angles).
    """
    pulses = zip(couplings, thetas, strict=True)
    return _ground_return([star_propagator(coupling, theta) for coupling, theta in pulses])


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


def register_amplitudes(vectors, thetas, order=None) -> np.ndarray:
    """Return amplitudes of every basis state of a register, basis axis last.

    ``vectors[k]`` holds the structural vectors of pulse k, shape
    (..., n_qubits), and ``thetas[k]`` its mixing angles; the vector rows and
    angles of all pulses broadcast to one batch shape. ``order`` lists the
    pulses in time order as indices into ``vectors`` and ``thetas``, which
    then hold each distinct pulse once; by default the pulses are
    ``vectors[0], vectors[1], ...``. The blocks of one dimension, the basis
    states with equally many |0> qubits, are stacked, and one
    :func:`star_propagator` call builds their propagators for every distinct
    pulse at once. The result has shape batch + (2^n,), in
    :func:`basis_labels` order, and every amplitude equals the one of its
    block and row alone (:func:`block_amplitudes`) bit for bit.
    """
    vectors = np.asarray(vectors, dtype=float)
    n_pulses, n_qubits = vectors.shape[0], vectors.shape[-1]
    batch = np.broadcast_shapes(vectors.shape[1:-1], *(np.shape(theta) for theta in thetas))
    out = np.ones(batch + (2**n_qubits,), dtype=complex)
    if n_pulses == 0:
        return out
    # Axes (pulse, *batch, block, qubit) and (pulse, *batch, block).
    vectors = np.stack([np.broadcast_to(v, batch + (n_qubits,)) for v in vectors])
    thetas = np.stack([np.broadcast_to(theta, batch) for theta in thetas])[..., None]
    order = range(n_pulses) if order is None else order
    for states, qubits in _blocks_by_dimension(n_qubits):
        propagators = star_propagator(vectors[..., qubits], thetas)
        out[..., states] = _ground_return([propagators[k] for k in order])
    return out


@functools.cache
def _blocks_by_dimension(n_qubits: int) -> tuple[tuple[list[int], np.ndarray], ...]:
    """Basis-state indices and |0> qubits, shape (states, n_zero), per block dimension.

    A block without |0> qubits is dark to every pulse, its amplitude 1; it is
    left out. The cached arrays are read-only.
    """
    zeros = [_zero_positions(label, n_qubits) for label in basis_labels(n_qubits)]
    groups = []
    for n_zero in sorted({len(zq) for zq in zeros} - {0}):
        states = [j for j, zq in enumerate(zeros) if len(zq) == n_zero]
        qubits = np.array([zeros[j] for j in states])
        qubits.flags.writeable = False
        groups.append((states, qubits))
    return tuple(groups)


def diagonal_amplitudes(protocol: Protocol) -> np.ndarray:
    """Return amplitudes of all computational states, in basis_labels order."""
    return register_amplitudes(_pulse_couplings(protocol), [p.theta for p in protocol.pulses])
