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
and block state instead of n_odd·n_even. No gemm holds a single row, as
numpy sends a one-row product to gemv, which changes bits. The kernel alone
bounds its memory, for a batch of any size: one loop walks the first batch
axis in chunks of one byte budget, ``_CHUNK_BYTES``, and hands each chunk's
amplitudes to the caller's ``reduce``, so that a map, a scan or an optimizer
batch keeps only its reduced rows; :func:`register_amplitudes` states the
rules of the chunks and what one call costs.
Amplitudes have one layout, the basis axis last in :func:`basis_labels`
order: batch + (2^n,), in every chunk a ``reduce`` sees and in every result.
For blocks of up to 4 levels (registers of up to 3 qubits) every amplitude
keeps the bits of its own chain of d×d gemms. The closed-form amplitudes
the kernel is checked against live with the tests, in ``tests/oracles.py``.
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
    dim = v.shape[-1] + 1
    s = np.sqrt(np.vecdot(v, v))
    zero = s == 0.0
    phase = s * np.asarray(theta, dtype=float)
    # Entries first, (dim, dim, *batch), so that every elementwise loop runs along the batch.
    unit = np.divide(v.transpose((v.ndim - 1, *range(v.ndim - 1))), np.where(zero, 1.0, s), order="C")
    unit = unit.reshape(unit.shape[:1] + (1,) * (phase.ndim - s.ndim) + s.shape)
    cos_p = np.cos(phase)
    out = np.empty(phase.shape + (dim, dim), dtype=complex)
    entries = out.transpose((phase.ndim, phase.ndim + 1, *range(phase.ndim)))
    entries[0, 0] = cos_p
    entries[0, 1:] = entries[1:, 0] = 1j * unit * np.sin(phase)
    rydberg = unit[:, None] * unit[None, :] * (cos_p - 1.0)
    rydberg += np.eye(dim - 1).reshape((dim - 1, dim - 1) + (1,) * phase.ndim)
    entries[1:, 1:] = rydberg
    if np.count_nonzero(zero):
        out[np.broadcast_to(zero, phase.shape)] = np.eye(dim)
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


#: Bytes of one chunk of :func:`register_amplitudes`: its amplitudes, its
#: carried ground rows and the propagators it builds.
_CHUNK_BYTES = 2**23

#: Most matrices :func:`register_amplitudes` builds for every block dimension in one
#: call; past about 900, padding a 3-qubit build costs more than the calls it saves.
_ONE_BUILD = 1024


def register_amplitudes(vectors, thetas, order=None, reduce=None) -> np.ndarray:
    """Return amplitudes of every basis state of a register, basis axis last, or their reduction.

    ``vectors[k]`` holds the structural vectors of pulse k, shape
    (..., n_qubits), and ``thetas[k]`` its mixing angles; the vector rows and
    angles of all pulses broadcast to one batch shape. ``order`` lists the
    pulses in time order as indices into ``vectors`` and ``thetas``, which
    then hold each distinct pulse once; by default the pulses are
    ``vectors[0], vectors[1], ...``.

    One loop walks the first batch axis in about equal chunks, each of at
    most ``_CHUNK_BYTES`` of amplitudes, carried ground rows and built
    propagators, but at least 4 rows. Every chunk but the last holds a
    multiple of 4 rows: OpenBLAS ``zgemv`` sums the last N mod 4 cells of a
    call in another order, so a reduction by BLAS gives the one-chunk bits
    only on such chunks (with one BLAS thread and SkylakeX kernels; threaded
    ``zgemv`` or Haswell ``zgemm`` may move a cell by an ulp). A register
    without batch axes is one chunk of one row. Within a chunk, the block
    states of one dimension are carried together as far as the budget holds
    their rows: one at a time in a full chunk, all at once in a small batch.

    ``reduce`` maps a chunk's amplitudes, shape (rows, *batch[1:], 2^n)
    with the basis axis last in :func:`basis_labels` order, to an array of
    its rows along the first axis, and the result joins those rows of every
    chunk; no more amplitudes than one chunk's are kept at once. The chunk
    is a view of the kernel's basis-first scratch array, so ``np.tensordot``
    over its last axis reads that array as it lies. Without ``reduce`` the
    result is the amplitudes themselves, contiguous, shape batch + (2^n,).

    Each distinct pulse's propagators are built on its own angle shape, per
    chunk, or once when it is broadcast along the first batch axis (a map's
    even pulses, a scan's shared vectors): angles on separate axes, like a
    map's odd and even areas, cost one propagator per axis value. Pulses
    are built in index order, and pulses with angles of one shape share one
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
    and each even pulse those of the chunk's points of its even column.
    Since numpy sends a one-row product to gemv, which changes bits, a gemm
    never holds one row: a chain whose first product shares no propagator
    starts from U_1[:2], whose second row only fills the gemm, and a later
    one-row product takes a copy of its row. So batches that share no
    propagator (the optimizer's candidates, b and robustness scans, single
    protocols) carry two rows throughout.

    Per chunk, a call costs one :func:`star_propagator` call per angle shape
    (per block dimension past ``_ONE_BUILD``) and one batched ``@`` per later
    pulse, block dimension and step of states; a batch that fits one chunk
    skips the chunk planning.

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
    reduce = reduce or (lambda amplitudes: amplitudes)
    if len(order) == 0:  # no pulses: the identity
        return reduce(np.ones(batch + (2**n_qubits,), dtype=complex))
    scalar, batch = not batch, batch or (1,)
    # Vectors (pulse, *batch, qubit) and angles (1, *batch), batch axes padded
    # to the batch's length, so that the first batch axis is axis 1 of both.
    if vectors.ndim < len(batch) + 2:
        vectors = vectors.reshape((n_pulses,) + (1,) * (len(batch) + 2 - vectors.ndim) + vectors.shape[1:])
    thetas = [theta.reshape((1,) * (len(batch) + 1 - theta.ndim) + theta.shape) for theta in thetas]
    gather, groups, block_entries = _blocks_by_dimension(n_qubits)
    # Complex entries per row of the first batch axis: per point, its amplitudes
    # and one state's carried ground rows (at most two, in a product and its
    # operand); per point of a pulse that varies along the axis, its
    # propagators, one d×d matrix per block of dimension d, as the builds of
    # large stacks hold them (the padded builds of at most _ONE_BUILD matrices
    # stay small beside the budget).
    varying = [theta for theta in thetas if vectors.shape[1] > 1 or theta.shape[1] > 1]
    matrices = sum(math.prod(map(max, vectors.shape[2:-1], theta.shape[2:])) for theta in varying)
    entries = math.prod(batch[1:]) * (2**n_qubits + 4 * (n_qubits + 1)) + matrices * block_entries
    builds = {}  # angle shape -> its pulses, in index order, built in one call
    for k, theta in enumerate(thetas):
        builds.setdefault(theta.shape, []).append(k)
    # Couplings (pulse, *batch, block, qubit) -> (pulse, block, *batch, qubit).
    axes = (0, vectors.ndim - 1, *range(1, vectors.ndim - 1), vectors.ndim)
    corners = [[None] * len(groups) for _ in thetas]  # per pulse and block dimension: propagators
    out = None
    for rows in _chunks(batch[0], 16 * entries):
        for shape, pulses in builds.items():
            if rows.start and vectors.shape[1] == shape[1] == 1:
                continue  # broadcast along the first batch axis: built with the first chunk
            # The chunk's rows; an axis of length one is broadcast and stays whole.
            v = vectors if vectors.shape[1] == 1 else vectors[:, rows]
            angles = np.concatenate([thetas[k] if shape[1] == 1 else thetas[k][:, rows] for k in pulses])[:, None]
            # A zero column after the qubits pads the couplings of smaller blocks, whose
            # propagators are then the leading corners of the register's largest ones.
            v = v if len(pulses) == n_pulses else v[pulses]
            v = np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)
            couplings = v[..., gather].transpose(axes)
            whole = np.broadcast(couplings[..., 0], angles).size <= _ONE_BUILD
            built = star_propagator(couplings, angles) if whole else None
            for g, (_, blocks, dim) in enumerate(groups):
                part = built[:, blocks] if whole else star_propagator(couplings[:, blocks, ..., : dim - 1], angles)
                for k, p in zip(pulses, part[..., :dim, :dim]):
                    corners[k][g] = p
        # Scratch, basis axis first, so that each state's amplitudes are written at once.
        amplitudes = np.empty((2**n_qubits, rows.stop - rows.start) + batch[1:], dtype=complex)
        amplitudes[-1] = 1.0  # the all-|1> state, last in basis order, is dark to every pulse
        # Steps of states whose carried rows the budget holds: one state in a full chunk.
        step = max(1, _CHUNK_BYTES // (16 * entries * max(1, rows.stop - rows.start)))
        for g, (states, _, dim) in enumerate(groups):
            for lo in range(0, len(states), step):
                chain = [corners[k][g][lo : lo + step] for k in order]
                # A first product that shares no propagator takes two rows of the first
                # one, as numpy sends a one-row product to gemv, whose bits differ from gemm's.
                x = chain[0][..., : 1 + (len(chain) > 1 and chain[0].shape == chain[1].shape), :]
                for propagators in chain[1:]:
                    x = _row_product(x, propagators)
                amplitudes[states[lo : lo + step]] = x[..., 0, 0]
        reduced = reduce(amplitudes.transpose(axes[2:-1] + (0,)))  # the one layout: basis axis last
        out = np.empty(batch[:1] + reduced.shape[1:], reduced.dtype) if out is None else out
        out[rows] = reduced
    return out[0] if scalar else out


def _chunks(n_rows: int, row_bytes: int) -> list[slice]:
    """About equal chunks of ``n_rows`` rows of ``row_bytes`` each, as slices.

    A chunk holds at most ``_CHUNK_BYTES``, but at least 4 rows, and every
    chunk but the last a multiple of 4 rows; no rows make one empty chunk.
    """
    quads = -(-n_rows // 4)
    if 4 * quads * row_bytes <= _CHUNK_BYTES:
        return [slice(0, n_rows)]
    n_chunks = -(-quads // max(1, _CHUNK_BYTES // (4 * row_bytes)))
    edges = [min(n_rows, 4 * (quads * i // n_chunks)) for i in range(n_chunks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _row_product(rows: np.ndarray, propagators: np.ndarray) -> np.ndarray:
    """``rows @ propagators`` of (state, *batch, r, d) rows and (state, *batch, d, d) propagators.

    The rows along the batch axes where ``propagators`` is broadcast and
    ``rows`` is not share one propagator; they are stacked into the rows of
    one m×d by d×d gemm per propagator. Where nothing is shared, as in the
    optimizer's batches, each point takes a plain r×d by d×d gemm, and a
    lone row goes in twice, so that the product returns two.
    """
    shared = rows.shape[:-2] != propagators.shape[:-2] and [
        ax for ax in range(1, rows.ndim - 2) if propagators.shape[ax] == 1 < rows.shape[ax]
    ]
    if not shared:
        if rows.shape[-2] == 1:
            # A one-row matmul goes to gemv, whose bits differ from gemm's.
            rows = rows.repeat(2, axis=-2)
        return rows @ propagators
    # The shared axes move next to the row axis and merge into it.
    own = [ax for ax in range(rows.ndim - 2) if ax not in shared]
    axes = [*own, *shared, rows.ndim - 2, rows.ndim - 1]
    stacked = rows.transpose(axes)
    m = math.prod(stacked.shape[len(own) : -1])  # explicit, as an empty chunk's is ambiguous
    merged = stacked.reshape(stacked.shape[: len(own)] + (m, rows.shape[-1]))
    product = merged @ propagators.squeeze(tuple(shared))
    product = product.reshape(product.shape[:-2] + stacked.shape[len(own) :])
    return product.transpose(np.argsort(axes))


@functools.cache
def _blocks_by_dimension(n_qubits: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, slice, int], ...], int]:
    """Coupling index, shape (blocks, n_qubits); per block dimension d: states, blocks, d; entries.

    An index row holds a block's |0> qubits, then ``n_qubits`` (the appended zero column).
    A block without |0> qubits is dark to every pulse, its amplitude 1; it is
    left out. ``entries`` counts one d×d matrix per block, Σ_d states(d)·d².
    The cached arrays are read-only.
    """
    zeros = [_zero_positions(label, n_qubits) for label in basis_labels(n_qubits)]
    index, groups = [], []
    for n_zero in sorted({len(zq) for zq in zeros} - {0}):
        states = np.array([j for j, zq in enumerate(zeros) if len(zq) == n_zero])
        states.flags.writeable = False
        blocks = slice(len(index), len(index) + len(states))
        index += [zeros[j] + (n_qubits,) * (n_qubits - n_zero) for j in states]
        groups.append((states, blocks, n_zero + 1))
    index = np.array(index, dtype=np.intp).reshape(len(index), n_qubits)
    index.flags.writeable = False
    return index, tuple(groups), sum(len(states) * dim**2 for states, _, dim in groups)


def diagonal_amplitudes(protocol: Protocol) -> np.ndarray:
    """Return amplitudes of all computational states, in basis_labels order."""
    return register_amplitudes(_pulse_couplings(protocol), [p.theta for p in protocol.pulses])


def sequence_amplitude(protocol: Protocol, basis_state: str) -> complex:
    """Amplitude for ``basis_state`` to return to itself: its :func:`diagonal_amplitudes` entry."""
    _zero_positions(basis_state, protocol.n_qubits)
    return complex(diagonal_amplitudes(protocol)[basis_labels(protocol.n_qubits).index(basis_state)])
