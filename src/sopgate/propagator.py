"""Exact end-of-pulse propagators for blockade-restricted subsystems.

Under perfect blockade, at most one atom can hold a Rydberg excitation, so a
resonant pulse couples each computational basis state only to the states where
one of its |0> qubits is promoted to |r>. Within such a block the dynamics is
a Rabi rotation between the ground state and a single bright superposition of
the Rydberg levels; everything orthogonal to the bright state is dark and
frozen. Propagators are returned as plain complex ndarrays over the block
basis {ground, r_1, ..., r_n}.

One formula, :func:`star_propagator`, gives a pulse's propagator and
broadcasts over arrays of couplings and mixing angles. One kernel,
:func:`register_amplitudes`, multiplies them in pulse order and reads off
each block's ground-state return amplitude, for every block of a register
at once. Fidelity maps, robustness scans, b scans, optimizer candidates and
single protocols (:func:`diagonal_amplitudes`, :func:`sequence_amplitude`)
all take their amplitudes from it; :func:`block_decompose` lists the blocks
that :func:`~sopgate.tdse.integrate_block` takes.

Only the ground-state return amplitude U[0, 0] is read, so the kernel
carries ground columns rather than d×d products. Star propagators are
exactly symmetric, so the ground column of the running product travels as
one row x per point and each pulse steps it as x <- x U_k. All rows that
share a propagator form one gemm: in a map, n_odd + n_even gemms per pulse
and block state instead of n_odd·n_even. A gemm that would hold a single
row gets a copy of it, because numpy sends a one-row product to gemv, which
changes bits. The kernel alone bounds its memory, for a batch of any
size; :func:`register_amplitudes` states how. For blocks of up to 4 levels
(registers of up to 3 qubits) every amplitude keeps the bits of its own
chain of d×d gemms. The closed-form amplitudes the kernel is checked
against live with the tests, in ``tests/oracles.py``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .model import Protocol, basis_labels


def star_propagator(coupling, theta) -> np.ndarray:
    """Propagator of one ground state coupled to n Rydberg levels by one pulse.

    With coupling vector v (norm s) and mixing angle ``theta`` (half the pulse
    area), the ground state Rabi-rotates with the bright state
    |B> = sum_i (v_i / s)|r_i> through an effective angle s*theta:

    * U[0, 0]         = cos(s*theta)
    * U[0, 1 + i]     = i (v_i / s) sin(s*theta)   (symmetric)
    * U[1 + i, 1 + j] = delta_ij + (v_i v_j / s^2)(cos(s*theta) - 1)

    ``coupling`` (array_like of shape (..., n)) holds the real, not
    necessarily normalized, factors of the block's |0> qubits, one coupling
    per row; a zero or empty coupling gives the identity. The result
    broadcasts over the coupling rows and ``theta``: its shape is
    ``broadcast(coupling.shape[:-1], theta.shape) + (1 + n, 1 + n)``, and
    each matrix equals the one of its row and angle alone bit for bit.
    Every matrix is exactly symmetric, U == U.T bit for bit;
    :func:`register_amplitudes` relies on this to carry columns as rows.
    Zero couplings appended to a row of up to 15 keep its (1 + n)×(1 + n)
    corner bit for bit, so :func:`register_amplitudes` can build all block dimensions at once.
    """
    # Per row, np.vecdot computes what ``v @ v`` does for a 1-D vector when
    # the rows are contiguous; over strided rows of 4 or more entries it sums
    # in another order.
    v = np.ascontiguousarray(coupling, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dim = v.shape[-1] + 1
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


#: Bytes of the largest ground-row array :func:`register_amplitudes` forms at
#: once; a 641×641 3-qubit map would otherwise carry 53 MB of rows for one
#: state. Chunks are sized for two rows per point, so the budget also bounds
#: the products where :func:`_row_product` copies a lone row.
_PRODUCT_BYTES = 2**22

#: Most rows of the first batch axis whose propagators :func:`register_amplitudes`
#: builds at once.
_BUILD_ROWS = 16384

#: Most matrices :func:`register_amplitudes` builds for every block dimension in one
#: call; past about 900, padding a 3-qubit build costs more than the calls it saves.
_ONE_BUILD = 1024


def register_amplitudes(vectors, thetas, order=None) -> np.ndarray:
    """Return amplitudes of every basis state of a register, basis axis last.

    ``vectors[k]`` holds the structural vectors of pulse k, shape
    (..., n_qubits), and ``thetas[k]`` its mixing angles; the vector rows and
    angles of all pulses broadcast to one batch shape. ``order`` lists the
    pulses in time order as indices into ``vectors`` and ``thetas``, which
    then hold each distinct pulse once; by default the pulses are
    ``vectors[0], vectors[1], ...``.

    Each distinct pulse's propagators are built on its own angle shape:
    angles on separate axes, like a map's odd and even areas, cost one
    propagator per axis value. Pulses with angles of one shape share one
    :func:`star_propagator` call, which covers every block dimension: each
    block's couplings are padded with zeros to n_qubits, and a block of
    dimension d reads the leading d×d corner of its propagators. A stack of
    more than ``_ONE_BUILD`` matrices takes one call per block dimension.

    Of U = U_M ... U_2 U_1 only U[0, 0] is read, so only U's ground column
    is carried. Every star propagator is exactly symmetric, so that column,
    carried as a row x per point starting from U_1[:1], steps as
    x <- x U_k. Rows that share a propagator, along the batch axes where it
    is broadcast, are stacked into one gemm (:func:`_row_product`): in a
    map, each odd pulse takes the rows of the n_even points of its odd row
    and each even pulse those of the n_odd points of its even column. A
    product whose gemms would hold one row carries a copy of that row from
    then on, since numpy sends a one-row product to gemv, which changes
    bits; so batches that share no propagator (the optimizer's candidates,
    b and robustness scans, single protocols) carry two rows after their
    first product. Memory is bounded here, for a batch of any size: a
    first batch axis longer than ``_BUILD_ROWS`` runs in chunks, each
    building only its own propagators (vectors and angles broadcast along
    it go whole), and rows are carried in chunks of block states of at most
    ``_PRODUCT_BYTES``; when one state's rows are larger, in chunks of rows
    of the first batch axis (a map's odd rows). The result has shape
    batch + (2^n,), in :func:`basis_labels` order; with pulses it is a view
    of a contiguous basis-first array.

    For blocks of dimension d ≤ 4 (registers of up to 3 qubits), each
    amplitude equals the [0, 0] entry of its own d×d product U_M ⋯ U_1 bit
    for bit (OpenBLAS 0.3.31). For d ≥ 5 the row order differs from it in
    the last bit for some amplitudes; every amplitude still equals the one
    of its block and batch row alone bit for bit.
    """
    vectors = np.asarray(vectors, dtype=float)
    n_pulses, n_qubits = vectors.shape[0], vectors.shape[-1]
    thetas = [np.asarray(theta, dtype=float) for theta in thetas]
    if len(thetas) != n_pulses:
        raise DimensionMismatchError(f"{n_pulses} pulse vectors but {len(thetas)} angles")
    batch = np.broadcast_shapes(vectors.shape[1:-1], *(theta.shape for theta in thetas))
    order = range(n_pulses) if order is None else order
    if len(order) == 0:  # no pulses: the identity
        return np.ones(batch + (2**n_qubits,), dtype=complex)
    # Rows are written largest blocks first, each taking memory only then.
    out = np.empty((2**n_qubits,) + batch, dtype=complex)
    if batch and batch[0] > _BUILD_ROWS:
        # Chunks of the first batch axis; vectors and angles broadcast along it go whole.
        whole = vectors.ndim < len(batch) + 2 or vectors.shape[1] == 1
        for lo in range(0, batch[0], _BUILD_ROWS):
            rows = slice(lo, lo + _BUILD_ROWS)
            angles = [t[rows] if t.ndim == len(batch) and len(t) > 1 else t for t in thetas]
            part = register_amplitudes(vectors if whole else vectors[:, rows], angles, order)
            out[:, rows] = np.moveaxis(part, -1, 0)
        return np.moveaxis(out, 0, -1)
    # Vectors (pulse, *batch, qubit) and angles (pulse, block, *batch), batch
    # axes padded to the batch's length; pulses with one angle shape are stacked.
    padding = (1,) * (len(batch) + 2 - vectors.ndim)
    vectors = vectors.reshape((n_pulses,) + padding + vectors.shape[1:])
    # A zero column after the qubits pads the couplings of smaller blocks, whose
    # propagators are then the leading corners of the register's largest ones.
    vectors = np.concatenate([vectors, np.zeros(vectors.shape[:-1] + (1,))], axis=-1)
    gather, groups = _blocks_by_dimension(n_qubits)
    # Couplings (pulse, *batch, block, qubit) -> (pulse, block, *batch, qubit).
    block_first = (0, len(batch) + 1, *range(1, len(batch) + 1), len(batch) + 2)
    by_shape = {}
    for k, theta in enumerate(thetas):
        by_shape.setdefault((1,) * (len(batch) - theta.ndim) + theta.shape, []).append(k)
    corners = {}  # (pulse, block dimension) -> propagators of those blocks
    for shape, pulses in by_shape.items():
        couplings = vectors[pulses][..., gather].transpose(block_first)
        angles = np.array([thetas[k].reshape((1,) + shape) for k in pulses])
        whole = math.prod(np.broadcast_shapes(couplings.shape[:-1], angles.shape)) <= _ONE_BUILD
        built = star_propagator(couplings, angles) if whole else None
        for _, blocks, dim in groups:
            part = built[:, blocks] if whole else star_propagator(couplings[:, blocks, ..., : dim - 1], angles)
            corners.update(((k, dim), p[..., :dim, :dim]) for k, p in zip(pulses, part))
    for states, blocks, dim in reversed(groups):
        # Chunks of states; when one state's rows are over the budget, one
        # state and chunks of rows of the first batch axis.
        n_rows = batch[0] if batch else 1
        # An empty batch axis sizes chunks as an axis of one would; its chunks are empty.
        rows = max(1, _PRODUCT_BYTES // (16 * 2 * dim * max(1, math.prod(batch[1:]))))
        step = max(1, rows // max(1, n_rows))
        for lo in range(0, len(states), step):
            for row in range(0, n_rows, rows):
                # State and row slices; a register without batch axes has no rows.
                index = (slice(lo, lo + step), slice(row, row + rows))[: out.ndim]
                chunk = [_chunk(corners[k, dim], index) for k in order]
                x = chunk[0][..., :1, :]
                for propagator in chunk[1:]:
                    x = _row_product(x, propagator)
                out[(states[lo : lo + step], *index[1:])] = x[..., 0, 0]
    out[-1] = 1.0  # the all-|1> state, last in basis order, is dark to every pulse
    return out.transpose((*range(1, out.ndim), 0))


def _chunk(propagators: np.ndarray, index: tuple[slice, ...]) -> np.ndarray:
    """``propagators[index]`` of a (state, *batch, d, d) stack; a broadcast row axis stays whole."""
    return propagators[index if propagators.shape[1] > 1 else index[:1]]


def _row_product(rows: np.ndarray, propagators: np.ndarray) -> np.ndarray:
    """``rows @ propagators`` of (state, *batch, r, d) rows and (state, *batch, d, d) propagators.

    The rows along the batch axes where ``propagators`` is broadcast and
    ``rows`` is not share one propagator; they are stacked into the rows of
    one m×d by d×d gemm per propagator. Where nothing is shared, as in the
    optimizer's batches, each point takes a plain r×d by d×d gemm, and a
    lone row goes in twice, so that the product returns two.
    """
    shared = [ax for ax in range(1, rows.ndim - 2) if propagators.shape[ax] == 1 < rows.shape[ax]]
    if not shared:
        if rows.shape[-2] == 1:
            # A one-row matmul goes to gemv, whose bits differ from gemm's.
            rows = np.repeat(rows, 2, axis=-2)
        return rows @ propagators
    # The shared axes move next to the row axis and merge into it.
    own = [ax for ax in range(rows.ndim - 2) if ax not in shared]
    axes = [*own, *shared, rows.ndim - 2, rows.ndim - 1]
    stacked = rows.transpose(axes)
    merged = stacked.reshape(stacked.shape[: len(own)] + (-1, rows.shape[-1]))
    product = merged @ propagators.squeeze(tuple(shared))
    product = product.reshape(product.shape[:-2] + stacked.shape[len(own) :])
    return product.transpose(np.argsort(axes))


@functools.cache
def _blocks_by_dimension(n_qubits: int) -> tuple[np.ndarray, tuple[tuple[list[int], slice, int], ...]]:
    """Coupling index, shape (blocks, n_qubits), and per block dimension d: states, blocks, d.

    An index row holds a block's |0> qubits, then ``n_qubits`` (the appended zero column).
    A block without |0> qubits is dark to every pulse, its amplitude 1; it is
    left out. The cached index is read-only.
    """
    zeros = [_zero_positions(label, n_qubits) for label in basis_labels(n_qubits)]
    index, groups = [], []
    for n_zero in sorted({len(zq) for zq in zeros} - {0}):
        states = [j for j, zq in enumerate(zeros) if len(zq) == n_zero]
        blocks = slice(len(index), len(index) + len(states))
        index += [zeros[j] + (n_qubits,) * (n_qubits - n_zero) for j in states]
        groups.append((states, blocks, n_zero + 1))
    index = np.array(index, dtype=np.intp).reshape(len(index), n_qubits)
    index.flags.writeable = False
    return index, tuple(groups)


def diagonal_amplitudes(protocol: Protocol) -> np.ndarray:
    """Return amplitudes of all computational states, in basis_labels order."""
    return register_amplitudes(_pulse_couplings(protocol), [p.theta for p in protocol.pulses])


def sequence_amplitude(protocol: Protocol, basis_state: str) -> complex:
    """Amplitude for ``basis_state`` to return to itself: its :func:`diagonal_amplitudes` entry."""
    _zero_positions(basis_state, protocol.n_qubits)
    return complex(diagonal_amplitudes(protocol)[basis_labels(protocol.n_qubits).index(basis_state)])
