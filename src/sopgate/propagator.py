"""Exact end-of-pulse propagators for blockade-restricted subsystems.

Under perfect blockade, at most one atom can hold a Rydberg excitation, so a
resonant pulse couples each computational basis state only to the states where
one of its |0> qubits is promoted to |r>. Within such a block the dynamics is
a Rabi rotation between the ground state and a single bright superposition of
the Rydberg levels; everything orthogonal to the bright state is dark and
frozen. Propagators are returned as plain complex ndarrays over the block
basis {ground, r_1, ..., r_n}.

One formula, :func:`star_propagator`, gives a pulse's propagator and
broadcasts over arrays of couplings and mixing angles. The gemm kernel,
:func:`register_amplitudes`, multiplies them in pulse order and reads off
each block's ground-state return amplitude, for every block of a register
at once. Maps, scans and single protocols (:func:`diagonal_amplitudes`)
take their amplitudes from it, on one path: every build takes one
:func:`star_propagator` call per block dimension. Maps' rows share
propagators, and the scans' published hashes and the tests holding a
protocol to its map cell are its bits. Optimizer candidates take theirs
from the BLAS-free row kernel, :func:`alternating_row_amplitudes`.
:func:`block_decompose` lists the blocks that
:func:`~sopgate.tdse.integrate_block` takes.

Only the ground-state return amplitude U[0, 0] is read, so the kernel
carries ground columns rather than d×d products. Star propagators are
exactly symmetric, so the ground column of the running product travels as
one row x per point and each pulse steps it as x <- x U_k. All rows that
share a propagator form one gemm (:func:`_row_product`): in a map,
n_odd + n_even gemms per pulse and block state instead of n_odd·n_even.
The kernel alone bounds its memory, for a batch of any size: one loop walks
the first batch axis in chunks of one byte budget, ``_CHUNK_BYTES``, and
hands each chunk's amplitudes to the caller's ``reduce``, so that a map or
a scan keeps only its reduced rows. Each call plans its own chunks and
builds from its arguments and that budget, and carries every block state
alone, one chain of gemms per state; :func:`register_amplitudes` states
the rules of the chunks and what one call costs.
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
    per row. A zero or empty coupling takes the same formula with v / s read
    as 0 (s divides as 1): at any finite angle its matrix == the identity,
    whose off-diagonal zeros may be signed, -0.0 from a negative angle or a
    -0.0 component, as the zero real parts of other rows can be. The result
    broadcasts over the coupling rows and ``theta``: its shape is
    ``broadcast(coupling.shape[:-1], theta.shape) + (1 + n, 1 + n)``, and
    each matrix equals the one of its row and angle alone bit for bit.
    Every matrix is exactly symmetric, U == U.T bit for bit;
    :func:`register_amplitudes` relies on this to carry columns as rows.
    """
    # Per row, np.vecdot computes what ``v @ v`` does for a 1-D vector when
    # the rows are contiguous; over strided rows of 4 or more entries it sums
    # in another order.
    v = np.ascontiguousarray(coupling, dtype=float)
    dim = v.shape[-1] + 1
    s = np.sqrt(np.vecdot(v, v))
    phase = s * np.asarray(theta, dtype=float)
    # Entries first, (dim, dim, *batch), so that every elementwise loop runs along the batch.
    unit = np.divide(v.transpose((v.ndim - 1, *range(v.ndim - 1))), np.where(s == 0.0, 1.0, s), order="C")
    unit = unit.reshape(unit.shape[:1] + (1,) * (phase.ndim - s.ndim) + s.shape)
    cos_p = np.cos(phase)
    out = np.empty(phase.shape + (dim, dim), dtype=complex)
    entries = out.transpose((phase.ndim, phase.ndim + 1, *range(phase.ndim)))
    entries[0, 0] = cos_p
    entries[0, 1:] = entries[1:, 0] = 1j * unit * np.sin(phase)
    rydberg = unit[:, None] * unit[None, :] * (cos_p - 1.0)
    rydberg += np.eye(dim - 1).reshape((dim - 1, dim - 1) + (1,) * phase.ndim)
    entries[1:, 1:] = rydberg
    return out


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


#: Bytes of one chunk of :func:`register_amplitudes` (its amplitudes, carried ground rows
#: and propagators built per chunk), then of :func:`alternating_row_amplitudes` (its working
#: arrays, whose rows take about 10 % less time in 2 MiB chunks than in 8 MiB ones).
_CHUNK_BYTES, _ROW_CHUNK_BYTES = 2**23, 2**21


def register_amplitudes(vectors, thetas, order=None, reduce=None) -> np.ndarray:
    """Return amplitudes of every basis state of a register, basis axis last, or their reduction.

    ``vectors[k]`` holds the structural vectors of pulse k, shape
    (..., n_qubits), and ``thetas[k]`` its mixing angles; the vector rows and
    angles of all pulses broadcast to one batch shape. ``order`` lists the
    pulses in time order as indices into ``vectors`` and ``thetas``, which
    then hold each distinct pulse once; by default the pulses are
    ``vectors[0], vectors[1], ...``.

    One loop walks the first batch axis in about equal chunks, their row
    counts at most one apart, each of at most ``_CHUNK_BYTES`` of
    amplitudes, carried ground rows and built propagators, unless a single
    row takes more; no rows make one empty chunk. A register without batch
    axes is one chunk of one row. Within a chunk every block state is
    carried alone, in one chain of products, so the budget counts the
    carried rows of one state.

    ``reduce`` maps a chunk's amplitudes, shape (rows, *batch[1:], 2^n)
    with the basis axis last in :func:`basis_labels` order, to an array of
    its rows along the first axis, and the result joins those rows of every
    chunk; no more amplitudes than one chunk's are kept at once. The chunk
    is a view of the kernel's basis-first scratch array. A ``reduce`` that
    computes each row from that row's amplitudes alone, as every caller's
    does, gives the same bits for any chunks. Without ``reduce`` the
    result is the amplitudes themselves, contiguous, shape batch + (2^n,).

    Pulses with angles of one shape share one build, made per chunk, or once
    when neither their vectors nor their angles vary along the first batch
    axis (a single protocol's pulses, a map's even pulses). Angles on
    separate axes, like a map's odd and even areas, cost one propagator per
    axis value. Every build, batched or a single protocol's, takes one
    :func:`star_propagator` call per block dimension d, of the couplings
    of that dimension's blocks alone: the d×d matrices the chunk budget
    counts.

    Of U = U_M ... U_2 U_1 only U[0, 0] is read, so only U's ground column
    is carried. Every star propagator is exactly symmetric, so that column,
    carried as a row x per point starting from U_1[:1], steps as
    x <- x U_k by :func:`_row_product`. Rows that share a propagator, along
    the batch axes where it is broadcast, are stacked into one gemm: in a
    map, each odd pulse takes the rows of the n_even points of its odd row
    and each even pulse those of the chunk's points of its even column.

    Every call works out its padded shapes, builds and chunk edges from its
    own arguments and ``_CHUNK_BYTES``; nothing is kept between calls. Per
    chunk, a call then costs, for each build made per chunk and with the
    first chunk each build made once, one gather of the build's pulses and
    one :func:`star_propagator` call per block dimension, about 25 numpy
    operations each whatever its size; per block state, one batched ``@``
    per later pulse, which makes one gemm per point or per propagator that
    rows share, and one write of its amplitudes. Every call, of one chunk
    as of several, copies each chunk's reduced rows into one result. These
    fixed costs weigh most on a single protocol, the smallest call: a
    3-qubit protocol of M pulses takes 7 (M - 1) products.

    For blocks of dimension d ≤ 4 (registers of up to 3 qubits), each
    amplitude equals the [0, 0] entry of its own d×d product U_M ⋯ U_1 bit
    for bit (OpenBLAS 0.3.31). For d ≥ 5 the row order differs from it in
    the last bit for some amplitudes; every amplitude still equals the one
    of its block and batch row alone bit for bit.
    """
    vectors = np.asarray(vectors, dtype=float)
    thetas = [np.asarray(theta, dtype=float) for theta in thetas]
    if len(thetas) != len(vectors):
        raise DimensionMismatchError(f"{len(vectors)} pulse vectors but {len(thetas)} angles")
    n_pulses, n_qubits = vectors.shape[0], vectors.shape[-1]
    same = {}  # angle shape -> its pulses, in index order, built in one call
    for k, theta in enumerate(thetas):
        same.setdefault(theta.shape, []).append(k)
    batch = np.broadcast_shapes(vectors.shape[1:-1], *same)
    order = range(n_pulses) if order is None else order
    reduce = reduce or np.ascontiguousarray
    if len(order) == 0:  # no pulses: the identity
        return reduce(np.ones(batch + (2**n_qubits,), dtype=complex))
    padded = batch or (1,)
    # Batch axes padded to as many as ``padded`` has, so that the first batch axis is axis 1
    # of the vectors (pulse, *batch, qubit) and of each angle array (1, *batch).
    vectors = vectors.reshape(vectors.shape[:1] + (1,) * (len(padded) + 2 - vectors.ndim) + vectors.shape[1:])
    thetas = [theta.reshape((1,) * (len(padded) + 1 - theta.ndim) + theta.shape) for theta in thetas]
    groups, block_entries = _blocks_by_dimension(n_qubits)
    # Per distinct angle shape: its pulses, that shape padded, and whether the build
    # varies along the first batch axis.
    builds, varying_sets = [], 0
    for pulses in same.values():
        shape = thetas[pulses[0]].shape
        varying = vectors.shape[1] > 1 or shape[1] > 1
        if varying:  # sets of block propagators per row of the first batch axis
            varying_sets += len(pulses) * math.prod(map(max, vectors.shape[2:-1], shape[2:]))
        builds.append((pulses, shape, varying))
    # Complex entries per row of the first batch axis: per point, its amplitudes
    # and one state's carried ground rows (at most two, in a product and its
    # operand); the propagators of every build that varies along the axis, one
    # d×d matrix per block of dimension d.
    entries = math.prod(padded[1:]) * (2**n_qubits + 4 * (n_qubits + 1)) + block_entries * varying_sets
    edges = _chunk_edges(padded[0], 16 * entries, _CHUNK_BYTES)
    # Couplings (pulse, *batch, block, qubit) in the order (pulse, block, *batch, qubit).
    axes = (0, len(padded) + 1, *range(1, len(padded) + 1), len(padded) + 2)
    built = [{} for _ in groups]  # per block dimension, pulse -> its propagators
    out = None
    for lo, hi in zip(edges, edges[1:]):
        for pulses, shape, varying in builds:
            if lo and not varying:
                continue  # made with the first chunk
            # The chunk's rows; an axis of length one is broadcast and stays whole.
            v = (vectors[:, lo:hi] if vectors.shape[1] > 1 else vectors)[pulses]
            angles = np.concatenate([thetas[k][:, lo:hi] if shape[1] > 1 else thetas[k] for k in pulses])[:, None]
            for (_, index), props in zip(groups, built):
                props.update(zip(pulses, star_propagator(v.take(index, axis=-1).transpose(axes), angles)))
        # Scratch, basis axis first, so that each state's amplitudes are written at once.
        amplitudes = np.empty((2**n_qubits, hi - lo) + padded[1:], dtype=complex)
        amplitudes[-1] = 1.0  # the all-|1> state, last in basis order, is dark to every pulse
        for (states, _), props in zip(groups, built):
            for at, state in enumerate(states):  # one chain of products per block state
                x = props[order[0]][at : at + 1, ..., :1, :]
                for k in order[1:]:
                    x = _row_product(x, props[k][at : at + 1])
                amplitudes[state] = x[0, ..., 0, 0]
        reduced = reduce(amplitudes.transpose(axes[2:-1] + (0,)))  # the one layout: basis axis last
        out = np.empty(padded[:1] + reduced.shape[1:], reduced.dtype) if out is None else out
        out[lo:hi] = reduced
    return out if batch else out[0]


def _chunk_edges(n_rows: int, row_bytes: int, budget: int) -> list[int]:
    """Edges of about equal chunks of ``n_rows`` rows, their row counts at most one apart.

    As few chunks as hold ``row_bytes`` per row within ``budget``, each of
    one row at least; no rows make one empty chunk.
    """
    n_chunks = max(1, -(-n_rows // max(1, budget // row_bytes)))
    return [n_rows * i // n_chunks for i in range(n_chunks + 1)]


def _row_product(rows: np.ndarray, propagators: np.ndarray) -> np.ndarray:
    """``rows @ propagators`` of (state, *batch, r, d) rows and (state, *batch, d, d) propagators.

    The rows along the batch axes where ``propagators`` is broadcast and
    ``rows`` is not share one propagator; they are stacked into the rows of
    one m×d by d×d gemm per propagator. Where nothing is shared, as in scans
    and single protocols, each point takes a plain r×d by d×d gemm. No gemm
    holds one row: numpy sends a one-row
    matmul to gemv, whose bits differ from gemm's, so a lone unshared row
    goes in twice and the product returns two, which later products carry.
    """
    shared = [ax for ax in range(1, rows.ndim - 2) if propagators.shape[ax] == 1 < rows.shape[ax]]
    if not shared:
        if rows.shape[-2] == 1:
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
    inverse = [0] * len(axes)  # the permutation that undoes ``axes``
    for i, ax in enumerate(axes):
        inverse[ax] = i
    return product.transpose(inverse)


def _read_only(values) -> np.ndarray:
    """``values`` as an array that cached results can share."""
    array = np.array(values)
    array.flags.writeable = False
    return array


@functools.cache
def _blocks_by_dimension(n_qubits: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], int]:
    """Per block dimension d: its states and their coupling index, shape (states, d - 1); entries.

    An index row holds a block's |0> qubits. A block without |0> qubits is
    dark to every pulse, its amplitude 1; it is left out. ``entries`` counts
    one d×d matrix per block, Σ_d states(d)·d². The cached arrays are read-only.
    """
    zeros = [_zero_positions(label, n_qubits) for label in basis_labels(n_qubits)]
    groups = []
    for n_zero in sorted({len(zq) for zq in zeros} - {0}):
        states = [j for j, zq in enumerate(zeros) if len(zq) == n_zero]
        groups.append((_read_only(states), _read_only([zeros[j] for j in states])))
    return tuple(groups), sum(len(states) * (index.shape[1] + 1) ** 2 for states, index in groups)


def alternating_row_amplitudes(vector_odd, vector_even, theta_odd, theta_even, m_pulses, reduce=None):
    """Real amplitudes, (R, 2^n), of rows of M pulses alternating odd, even, ..., or their reduction.

    Row r's odd pulses have the vector ``vector_odd[r]`` and mixing angle
    ``theta_odd[r]``, its even ones ``vector_even[r]`` and ``theta_even[r]``;
    vectors (R, n) or (n,) and angles (R,) or scalars broadcast to R rows, 1
    without a row axis. Chunks of rows hold at most ``_ROW_CHUNK_BYTES`` of
    working arrays; ``reduce`` acts on each as in :func:`register_amplitudes`.
    All 2^n blocks run at once, folded by :func:`_fold`, with elementwise
    numpy alone (no BLAS), so a row's bits depend on that row alone. A call
    is about 30 numpy calls whatever its rows.
    """
    inputs = [np.asarray(x, dtype=float) for x in (vector_odd, vector_even, theta_odd, theta_even)]
    n = inputs[0].shape[-1]
    n_rows = max(inputs[0].shape[:-1] + inputs[1].shape[:-1] + inputs[2].shape + inputs[3].shape, default=1)
    # Floats per row, pulse kind and state: couplings, unit vectors, carried columns and products (4 n),
    # norm, angle, cosine, sine and temporaries (8); tracemalloc measures 0.8 to 1.0 of it (3 qubits).
    edges = _chunk_edges(n_rows, 8 * 2 * 2**n * (4 * n + 8), _ROW_CHUNK_BYTES)
    out = None
    for lo, hi in zip(edges, edges[1:]):
        # The chunk's rows of each input that has rows; one row broadcasts.
        rows = [x[lo:hi] if x.ndim == d and len(x) > 1 else x for x, d in zip(inputs, (2, 2, 1, 1))]
        v, theta = np.empty((n, 2, hi - lo)), np.empty((2, hi - lo, 1))  # (qubit, kind, row), (kind, row, 1)
        v.T[:, 0], v.T[:, 1], theta[0, :, 0], theta[1, :, 0] = rows  # written through (row, kind, qubit) views
        coupling = v[..., None] * _zero_masks(n)  # (qubit, kind, row, state)
        s = np.sqrt(_qubit_sum(coupling * coupling))
        phase = s * theta
        amplitudes = _fold(np.cos(phase), np.sin(phase), coupling / np.where(s == 0.0, 1.0, s), m_pulses)
        reduced = amplitudes if reduce is None else reduce(amplitudes)
        out = np.empty((n_rows,) + reduced.shape[1:], reduced.dtype) if out is None else out
        out[lo:hi] = reduced
    return out


def _fold(cos, sin, unit, m_pulses: int) -> np.ndarray:
    """U[0, 0] per row and state of M alternating pulses from their terms, (kind, row, state).

    A star propagator, a rank-2 update of the identity (u = v/s masked to the
    state's |0> qubits, c = cos(s theta), s' = sin(s theta)), steps a column to
    x_0' = c x_0 + i s' (u.x_r), x_r' = x_r + u ((c - 1)(u.x_r) + i s' x_0);
    a zero coupling (c = 1, s' = 0, u = 0) is the identity exactly. x_r = i w
    stays imaginary: w is carried, (qubit, column, row, state). Propagators
    are symmetric, so U[0, 0] = y^T P_mid y for odd M, y the ground column
    after the first floor(M/2) pulses (the palindrome fold), and z^T y for
    even M, z that of the last M/2 pulses in reverse.
    """
    half, columns = m_pulses // 2, 2 - m_pulses % 2
    if not half:
        return cos[0]
    x0, w = cos[:columns], sin[:columns] * unit[:, :columns]  # one pulse from the ground state
    for j in range(1, half):  # pulse j + 1 of column 0 is of kind j % 2, column 1's of the other
        flip = -1 if j % 2 else 1
        c, s, u = cos[::flip][:columns], sin[::flip][:columns], unit[:, ::flip][:, :columns]
        t = _qubit_sum(u * w)
        x0, w = c * x0 - s * t, w + u * ((c - 1.0) * t + s * x0)
    if columns == 2:
        return x0[0] * x0[1] - _qubit_sum(w[:, 0] * w[:, 1])
    # y^T P y = y.y + (c - 1)(y_0^2 + (u.y_r)^2) + 2 i s' y_0 (u.y_r), y_r = i w.
    c, s, u, y0, w = cos[half % 2], sin[half % 2], unit[:, half % 2], x0[0], w[:, 0]
    t = _qubit_sum(u * w)
    square = y0 * y0
    return square - _qubit_sum(w * w) + (c - 1.0) * (square - t * t) - 2.0 * s * y0 * t


#: Sum over the first (qubit) axis, added in qubit order by elementwise adds.
_qubit_sum = functools.partial(functools.reduce, np.add)


@functools.cache
def _zero_masks(n_qubits: int) -> np.ndarray:
    """(qubit, 1, 1, state): 1.0 where the state holds |0> on the qubit, else 0.0; read-only."""
    return _read_only([[[[float(label[q] == "0") for label in basis_labels(n_qubits)]]] for q in range(n_qubits)])


def diagonal_amplitudes(protocol: Protocol) -> np.ndarray:
    """Return amplitudes of all computational states, in basis_labels order."""
    return register_amplitudes(_pulse_couplings(protocol), [p.theta for p in protocol.pulses])


def sequence_amplitude(protocol: Protocol, basis_state: str) -> complex:
    """Amplitude for ``basis_state`` to return to itself: its :func:`diagonal_amplitudes` entry."""
    _zero_positions(basis_state, protocol.n_qubits)
    return complex(diagonal_amplitudes(protocol)[basis_labels(protocol.n_qubits).index(basis_state)])
