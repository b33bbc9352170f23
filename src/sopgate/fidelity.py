"""Gate fidelity, pulse-area fidelity maps, lattice analysis, and factor scans.

Every fidelity is against the one target the paper measures, the C-PHASE
gate T on the two gate qubits: its diagonal phases,
:func:`~sopgate.model.cphase_signature`, are -1 unless both gate qubits are
in |1>, whatever the spectators hold. The one fidelity is
F = |Tr(T^dag U) / d|^2, where U is the diagonal of return amplitudes over
the 2^n computational states and d = 2^n; the formulas read n from the
number of amplitudes. Maps sweep the total odd and even pulse areas on a
rectangular grid; their maxima form (possibly rotated) lattices.

Protocols come from one model, :class:`ProtocolFamily`: an odd and an even
structural vector alternating over M pulses. One builder,
:func:`family_vectors`, turns squared geometrical factors into those vectors
as arrays, for the one b^2 of :func:`sop_family` and the b^2 grid of
:func:`b_scan` alike; :func:`alternating_amplitudes` and, for optimizer
candidates, :func:`row_fidelities` lay out their pulses. Every return
amplitude of one protocol, a b scan, a map grid or a robustness scan comes
from one :func:`~sopgate.propagator.register_amplitudes` call, the gemm
kernel; those of optimizer candidates from the BLAS-free row kernel.
Amplitudes have one layout everywhere, the basis axis last. Fidelities of
rows of protocols (single protocols, b scans, optimizer candidates) come
from :func:`fidelity_from_rows`, those of map grids from the BLAS-free
:func:`fidelity_from_amplitudes`; each formula's order of summation defines
the published bits of its outputs.

Large batches keep only what their callers need: each passes a ``reduce``
that the kernel applies chunk by chunk, and the kernel alone sizes the
chunks. :func:`fidelity_map` reduces to fidelities by
:func:`fidelity_from_amplitudes`, b scans and optimizer batches by
:func:`fidelity_from_rows`, and robustness scans to their three real curves.

One renderer spells every CSV of the package, maps and scans alike. One
speller, :func:`_spell`, writes float64 values as ``%.9g`` text straight
into their slots of a line buffer, words at a time from tables of ASCII
words, at once for 1e-99 <= |x| < 1, in fixed notation down to 1e-4 and in
exponent notation below; other values take Python's formatter.
:func:`csv_text` formats leading columns smaller than the CSV, such as a
map's axis labels, a few hundred values, once each; it spells every later
column, one block of lines at a time, as one run of slots in one NUL-padded
line buffer, drops the padding with one ``bytearray.translate`` and appends
the text to one growing ``io.BytesIO``, whose buffer it returns. A CSV has
one slot width, decided before its first block: 14 bytes, 15 when a spelled
value is negative, and 16 in the rare CSV whose formatted text does not fit
(a three-digit exponent), which is rendered again. :func:`map_csv_text` is
the renderer's map form.
"""

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    GridTooLargeError,
    NoMaximaFoundError,
    NotNormalizedError,
    SignatureMismatchError,
)
from .model import (
    Protocol,
    Pulse,
    StructuralVector,
    cphase_signature,
    spectator_orthogonal_rows,
)
from .propagator import _pulse_couplings, alternating_row_amplitudes, diagonal_amplitudes, register_amplitudes

# Not called here: bench/spans.py traces these names in this module.
from .propagator import block_decompose  # noqa: F401
from .propagator import star_propagator as star_propagator_batch  # noqa: F401
from .model import spectator_orthogonal_pair  # noqa: F401

#: Default sweep: [-8*pi, 8*pi] in steps of 0.05*pi resolves the 4*pi lattice
#: and locates optima to a few percent of pi.
DEFAULT_GRID = (-8.0, 8.0, 0.05)

#: Default acceptance level for map maxima.
DEFAULT_MAXIMA_THRESHOLD = 0.7

#: Most points one grid axis or one map may hold, about ten times the
#: 641 x 641 wide map; larger grids are refused before anything is allocated.
MAX_GRID_POINTS = 2**22


def check_grid_points(n_points: float) -> None:
    """Refuse a grid of more than :data:`MAX_GRID_POINTS` points."""
    if n_points > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid of {n_points:.3g} points exceeds the limit of {MAX_GRID_POINTS}"
        )


@dataclass(frozen=True)
class GridSpec:
    """Inclusive 1-D sweep range of at most :data:`MAX_GRID_POINTS` points: map areas in units of pi, or b^2."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not (
            0 < self.step < math.inf
            and math.isfinite(self.lo)
            and 0 <= (self.hi - self.lo) / self.step < math.inf
        ):
            raise EmptyGridError(f"invalid grid {self.lo}:{self.hi}:{self.step}")
        check_grid_points(self.n_points)
        ends = (self.lo, self.lo + self.step * (self.n_points - 1))  # as values_pi spells them
        if not all(math.isfinite(end * math.pi) for end in ends):
            raise EmptyGridError(f"grid {self.lo}:{self.hi}:{self.step} is not finite in radians")

    @property
    def n_points(self) -> int:
        """Points up to the last one not past ``hi``, up to round-off."""
        return math.floor((self.hi - self.lo) / self.step + 1e-9) + 1

    def values_pi(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.n_points)

    def values_radians(self) -> np.ndarray:
        return self.values_pi() * math.pi


def pulse_areas(area_odd, area_even, m_pulses: int = 3) -> tuple:
    """Areas of each odd and of each even pulse of M alternating pulses.

    The odd and even totals ``area_odd`` and ``area_even``, scalars or arrays
    in radians, are split equally over the odd and the even pulses.
    """
    # With one pulse there is no even pulse and its area goes unused.
    return area_odd / ((m_pulses + 1) // 2), area_even / max(m_pulses // 2, 1)


def alternating_amplitudes(vector_odd, vector_even, area_odd, area_even, m_pulses=3, reduce=None):
    """Return amplitudes of M pulses alternating odd, even, odd, ..., basis axis last.

    Vectors (..., n_qubits) and total areas (radians, split by :func:`pulse_areas`)
    broadcast. With ``reduce``, return the reduction of
    :func:`~sopgate.propagator.register_amplitudes` instead.
    """
    thetas = [0.5 * a for a in pulse_areas(area_odd, area_even, m_pulses)]
    return register_amplitudes([vector_odd, vector_even], thetas, [k % 2 for k in range(m_pulses)], reduce)


def row_fidelities(vector_odd, vector_even, area_odd, area_even, m_pulses: int = 3) -> np.ndarray:
    """The optimizers' objective: fidelities (R,) of rows of alternating pulses at total areas, on the row kernel."""
    thetas = [0.5 * area for area in pulse_areas(area_odd, area_even, m_pulses)]
    return alternating_row_amplitudes(vector_odd, vector_even, *thetas, m_pulses, fidelity_from_rows)


@dataclass(frozen=True)
class ProtocolFamily:
    """Alternating M-pulse protocol family with fixed structural vectors.

    Odd pulses (1, 3, 5, ...) carry ``vector_odd``, even pulses
    ``vector_even``. Pulse areas are set per map point by splitting the total
    odd area equally over the odd pulses and likewise for the even ones. With
    single-site vectors (1, 0), (0, 1), M = 3 and total areas (2 pi, 2 pi)
    this is the pi-2pi-pi protocol of Jaksch et al.; :func:`sop_family`
    builds the families of the command line from squared geometrical factors.
    """

    vector_odd: StructuralVector
    vector_even: StructuralVector
    m_pulses: int = 3

    def __post_init__(self):
        if self.vector_odd.dimension != self.vector_even.dimension:
            raise DimensionMismatchError("odd and even vectors must share one dimension")
        if self.m_pulses < 1:
            raise EmptyGridError("family needs at least one pulse")

    @property
    def n_qubits(self) -> int:
        return self.vector_odd.dimension

    def protocol(self, area_odd: float, area_even: float) -> Protocol:
        """Concrete protocol at total areas (radians) split per family rules."""
        areas = pulse_areas(area_odd, area_even, self.m_pulses)
        vectors = (self.vector_odd, self.vector_even)
        pulses = tuple(Pulse(areas[k % 2], vectors[k % 2]) for k in range(self.m_pulses))
        return Protocol(pulses=pulses, n_qubits=self.n_qubits)


def family_vectors(b2, c2: float = 0.0, n_qubits: int | None = None, orthogonal: bool = True):
    """Odd and even structural vectors from squared geometrical factors, as arrays (..., n_qubits).

    ``b2``, a float or an array, is the squared field overlap of the gate
    qubits, ``c2`` the squared spectator factor (3-qubit registers only).
    The odd vector is (a, b) or (a, b, c) with a = sqrt(1 - b^2 - c^2). With
    ``orthogonal=True`` the even vector is exactly orthogonal to it: (-b, a)
    for 2 qubits; for 3 qubits, with c^2 <= 0.5, the gate-qubit sub-vector is
    tilted to cancel the c^2 overlap (see
    :func:`~sopgate.model.spectator_orthogonal_rows`), keeping the all-zeros
    passage dark-state protected. With ``orthogonal=False`` the even vector
    is the mirrored (b, a) or (b, a, c), i.e. plain single-site beams brought
    close without structured light. Squares must be finite, >= 0 and sum to
    at most 1; an array's refusal names its first refused b^2.
    """
    b2_values, c2_value = np.asarray(b2, dtype=float), np.asarray(c2, dtype=float)
    # Squared by libm pow, as Python's b**2. Refused only when the squares
    # exceed 1 both as given and as the roots square back: b2 + c2 = 1 passes
    # though 0.5 and 0.5 square back to just above 1, and so does
    # b2 = 1 + 2**-52, whose root squares back to 1.
    with np.errstate(invalid="ignore", over="ignore"):
        b, c = np.sqrt(b2_values), np.sqrt(c2_value)
        b_sq, c_sq = np.float_power(b, 2.0), np.float_power(c, 2.0)
        not_square = ~(np.isfinite(b2_values) & (b2_values >= 0.0))
        refused = np.flatnonzero(not_square | ((b2_values + c2_value > 1.0) & (b_sq + c_sq > 1.0)))
    if refused.size:
        value = b2 if b2_values.ndim == 0 else float(b2_values.flat[refused[0]])
        if not_square.flat[refused[0]]:
            raise NotNormalizedError(f"b2 must be a finite number >= 0, got {value!r}")
    if not (math.isfinite(c2_value) and c2_value >= 0.0):
        raise NotNormalizedError(f"c2 must be a finite number >= 0, got {c2!r}")
    if n_qubits is None:
        n_qubits = 3 if c2_value > 0 else 2
    if n_qubits not in (2, 3):
        raise DimensionMismatchError("protocol families are defined for 2 or 3 qubits")
    if n_qubits == 2 and c != 0.0:
        raise DimensionMismatchError("spectator factor c needs a 3-qubit register")
    if refused.size:  # a b^2 too large, named after the register checks
        raise NotNormalizedError(f"b^2 = {value!r} exceeds 1" if b2_values.ndim else "b^2 + c^2 exceeds 1")
    a = np.sqrt(np.maximum(1.0 - b_sq - c_sq, 0.0))
    odd = np.stack(np.broadcast_arrays(a, b, c)[:n_qubits], axis=-1)
    if n_qubits == 3 and orthogonal:
        if 2.0 * c2_value > 1.0:
            raise NotNormalizedError("orthogonal spectator family needs c^2 <= 0.5")
        return odd, spectator_orthogonal_rows(b, np.stack((c, c), axis=-1))[1]
    return odd, np.stack(np.broadcast_arrays(-b if orthogonal else b, a, c)[:n_qubits], axis=-1)


def sop_family(
    b2: float = 0.0, c2: float = 0.0, n_qubits: int | None = None, m_pulses: int = 3, orthogonal: bool = True
) -> ProtocolFamily:
    """Family of the vectors of :func:`family_vectors` at one b^2, as exposed on the command line."""
    vectors = family_vectors(b2, c2, n_qubits, orthogonal)
    return ProtocolFamily(*(StructuralVector(tuple(v.tolist())) for v in vectors), m_pulses)


@dataclass(frozen=True)
class FidelityMap:
    """Fidelity over a rectangular grid of total (odd, even) pulse areas.

    ``axis_odd`` and ``axis_even`` are in radians; ``values[i, j]`` is the
    fidelity at (axis_odd[i], axis_even[j]).
    """

    axis_odd: np.ndarray
    axis_even: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class LatticeReport:
    """Geometry of a map's qualified maxima.

    ``maxima`` has one row (area_odd, area_even, fidelity) per strict local
    maximum above threshold, sorted by fidelity descending. ``rotation_angle``
    is the clockwise rotation of the maxima lattice relative to the
    axis-aligned independent-qubit lattice, folded into [0, pi/2);
    ``nn_spacing`` is the median nearest-neighbour distance. Radians.
    """

    maxima: np.ndarray
    rotation_angle: float
    nn_spacing: float


def _cphase_phases(amplitudes: np.ndarray) -> np.ndarray:
    """C-PHASE phases of the register whose 2^n amplitudes lie on the last axis."""
    d = amplitudes.shape[-1]
    if d < 4 or d & (d - 1):
        raise SignatureMismatchError(f"{d} amplitudes are not 2^n for a register of n >= 2 qubits")
    return cphase_signature(d.bit_length() - 1)


def fidelity_from_amplitudes(diag):
    """Combine diagonal return amplitudes into a C-PHASE fidelity in [0, 1].

    ``diag`` has the basis-state axis last, of length 2^n for an n-qubit
    register (n >= 2), and may carry leading grid axes.
    Elementwise numpy adds fix the order: the signed amplitudes in basis
    order within each block of four basis states, then the blocks in order;
    the modulus squared by ``np.square``.
    So a cell's bits depend on its amplitudes alone, not on the memory
    layout, the BLAS thread count, the kernel's chunks or the batch rank.
    """
    diag = np.asarray(diag)
    phases = _cphase_phases(diag)
    d = phases.size
    states = np.moveaxis(diag, -1, 0)  # states[k]: every cell's amplitude of basis state k
    blocks = []
    for lo in range(0, d, 4):
        block = phases[lo] * states[lo]  # a new array: the steps below leave ``diag`` alone
        for phase, amplitudes in zip(phases[lo + 1 : lo + 4], states[lo + 1 : lo + 4]):
            if phase > 0:
                block += amplitudes
            else:
                block -= amplitudes  # the bits of adding -amplitudes, without the copy
        blocks.append(block)
    overlap = functools.reduce(np.add, blocks)  # a new array, or a scalar for one cell
    # np.square(np.abs(overlap / d)) without two of its full-size temporaries.
    modulus = np.abs(np.divide(overlap, d, out=overlap if overlap.ndim else None))
    return np.square(modulus, out=modulus if modulus.ndim else None)


def fidelity_from_rows(rows):
    """Combine return amplitudes, basis-state axis last, into C-PHASE fidelities in [0, 1].

    ``rows`` has shape (..., 2^n), one protocol per row of an n-qubit
    register (n >= 2); the result has shape ``rows.shape[:-1]``. Each row's
    overlap with the target is one ``np.vecdot`` over a contiguous row, so it
    depends neither on the other rows nor on their memory layout. Overlaps are squared by libm ``pow``
    (``np.float_power``), on whose bits the published b scans and optimizer
    results rest; ``x * x`` differs in the last bit for about 0.1 % of values.
    """
    rows = np.ascontiguousarray(rows)
    phases = _cphase_phases(rows)
    overlap = np.vecdot(phases, rows)
    return np.float_power(np.abs(overlap / phases.size), 2.0)


def gate_fidelity(protocol: Protocol) -> float:
    """C-PHASE fidelity of a protocol: the one-row case of :func:`fidelity_from_rows`."""
    return float(fidelity_from_rows(diagonal_amplitudes(protocol)))


def family_diagonal_grid(
    family: ProtocolFamily, area_odd_grid: np.ndarray, area_even_grid: np.ndarray, reduce=None
) -> np.ndarray:
    """Return amplitudes of every basis state over an area grid, or their reduction.

    One :func:`alternating_amplitudes` call with the areas on the axes,
    shaped (n_odd, 1) and (1, n_even), so each star propagator is built once
    per axis value. Without ``reduce`` the output is complex, shape
    (len(area_odd_grid), len(area_even_grid), 2^n), and every amplitude
    equals the pointwise one bit for bit. With ``reduce``, the output joins
    ``reduce`` of the amplitudes of each chunk of odd rows along the odd
    axis (:func:`~sopgate.propagator.register_amplitudes`).
    """
    area_o = np.asarray(area_odd_grid)[:, None]
    area_e = np.asarray(area_even_grid)[None, :]
    vectors = (family.vector_odd.components, family.vector_even.components)
    return alternating_amplitudes(*vectors, area_o, area_e, family.m_pulses, reduce)


def fidelity_map(
    family: ProtocolFamily,
    grid_odd: GridSpec | None = None,
    grid_even: GridSpec | None = None,
) -> FidelityMap:
    """Fidelity of a protocol family against the C-PHASE signature over an area grid.

    The grids are in units of pi; ``grid_even`` defaults to ``grid_odd`` and
    that to :data:`DEFAULT_GRID`. A map of more than :data:`MAX_GRID_POINTS`
    points raises :class:`GridTooLargeError` before anything is computed.

    The map is one :func:`family_diagonal_grid` call that reduces each chunk
    of the kernel to fidelities by :func:`fidelity_from_amplitudes`.
    """
    grid_odd = grid_odd or GridSpec(*DEFAULT_GRID)
    grid_even = grid_even or grid_odd
    check_grid_points(grid_odd.n_points * grid_even.n_points)
    axis_odd = grid_odd.values_radians()
    axis_even = grid_even.values_radians()
    values = family_diagonal_grid(family, axis_odd, axis_even, fidelity_from_amplitudes)
    return FidelityMap(axis_odd, axis_even, values)


def map_maxima(fmap: FidelityMap, threshold: float = DEFAULT_MAXIMA_THRESHOLD) -> np.ndarray:
    """Strict-local-maxima rows (area_odd, area_even, F), fidelity descending.

    A maximum is a cell with F >= ``threshold`` greater than each of its
    existing 8 neighbours. Only those cells, a few percent of a map, are
    compared with their neighbours, in row-major order.
    """
    values = fmap.values
    flat = values.reshape(-1)
    cells = np.flatnonzero(values >= threshold)
    ii, jj = np.unravel_index(cells, values.shape)
    n_odd, n_even = values.shape
    every = np.ones(cells.size, dtype=bool)
    rows = {-1: ii > 0, 0: every, 1: ii < n_odd - 1}
    columns = {-1: jj > 0, 0: every, 1: jj < n_even - 1}
    center = flat[cells]
    keep = every.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                neighbour = flat.take(cells + (di * n_even + dj), mode="clip")
                keep &= (center > neighbour) | ~(rows[di] & columns[dj])
    ii, jj = ii[keep], jj[keep]
    rows = np.column_stack([fmap.axis_odd[ii], fmap.axis_even[jj], center[keep]])
    return rows[np.argsort(-rows[:, 2])]


def _sector_median(angles: np.ndarray, period: float) -> float:
    """Median of angles identified modulo ``period``, robust to wrap-around."""
    wrapped = np.mod(angles, period)
    full = wrapped * (2.0 * math.pi / period)
    mean = math.atan2(np.mean(np.sin(full)), np.mean(np.cos(full)))
    centered = np.mod(full - mean + math.pi, 2.0 * math.pi) - math.pi
    med = float(np.median(centered)) + mean
    return (med * period / (2.0 * math.pi)) % period


def lattice_analysis(
    fmap: FidelityMap, threshold: float = DEFAULT_MAXIMA_THRESHOLD
) -> LatticeReport:
    """Measure rotation and spacing of the lattice formed by a map's maxima.

    Maxima are strict local maxima over the 8-neighbourhood with fidelity at
    least ``threshold``. The rotation angle is the sector-median direction of
    nearest-neighbour displacement vectors, read as a clockwise rotation of
    the axis-aligned lattice; the spacing is the median nearest-neighbour
    distance. Maxima sitting on the grid edge are kept in the report but left
    out of the geometry statistics (their positions are clipped by the
    window).
    """
    maxima = map_maxima(fmap, threshold)
    if len(maxima) < 2:
        raise NoMaximaFoundError(
            f"found {len(maxima)} maxima >= {threshold}; need at least 2 for lattice geometry"
        )
    interior = (
        (maxima[:, 0] > fmap.axis_odd[0])
        & (maxima[:, 0] < fmap.axis_odd[-1])
        & (maxima[:, 1] > fmap.axis_even[0])
        & (maxima[:, 1] < fmap.axis_even[-1])
    )
    points = maxima[interior, :2] if np.count_nonzero(interior) >= 2 else maxima[:, :2]
    deltas = points[:, None, :] - points[None, :, :]
    dists = np.hypot(deltas[..., 0], deltas[..., 1])
    np.fill_diagonal(dists, np.inf)
    nn_index = np.argmin(dists, axis=1)
    nn_dist = dists[np.arange(len(points)), nn_index]
    nn_vec = points[nn_index] - points
    # Clockwise rotation of the lattice maps a primitive axis vector to
    # direction -beta, so the displacement angles cluster at -beta mod 90 deg.
    # One math.atan2 per maximum: numpy's arctan2 loop is picked per CPU and can differ in the last bit.
    phi = np.array([math.atan2(dy, dx) for dx, dy in nn_vec.tolist()])
    rotation = _sector_median(-phi, math.pi / 2.0)
    return LatticeReport(
        maxima=maxima,
        rotation_angle=rotation,
        nn_spacing=float(np.median(nn_dist)),
    )


@dataclass(frozen=True)
class RobustnessCurves:
    """Return amplitudes of the three non-trivial two-qubit states vs area error."""

    delta_area: np.ndarray
    u11v: np.ndarray
    u11a: np.ndarray
    u11b: np.ndarray


def robustness_scan(protocol: Protocol, delta_grid) -> RobustnessCurves:
    """Scan area errors: every odd pulse gets +delta, every even pulse +2*delta.

    Returns the real return amplitudes of |00>, |01> and |10> as functions of
    the per-odd-pulse area error (radians). An error that takes a shifted
    area past a finite float raises :class:`EmptyGridError`, without a warning.
    """
    if protocol.n_qubits != 2:
        raise DimensionMismatchError("robustness scan is defined for 2-qubit protocols")
    delta = np.atleast_1d(np.asarray(delta_grid, dtype=float))
    vectors = _pulse_couplings(protocol)  # (pulse, qubit), also without pulses
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = [
            0.5 * (pulse.area + (delta if k % 2 == 0 else 2.0 * delta))
            for k, pulse in enumerate(protocol.pulses)
        ]
    for k, theta in enumerate(thetas):
        if not np.isfinite(theta).all():
            raise EmptyGridError(f"the area error takes pulse {k + 1} past a finite area in radians")
    # Basis order: 00, 01, 10, then the inert 11. Without pulses the identity has no delta axis.
    curves = register_amplitudes(vectors, thetas, reduce=lambda a: a[..., :3].real)
    curves = np.broadcast_to(curves, delta.shape + (3,))
    return RobustnessCurves(delta, curves[:, 0], curves[:, 1], curves[:, 2])


def b_scan(area_pair: tuple[float, float], b2_grid, orthogonal: bool = True) -> np.ndarray:
    """Two-qubit C-PHASE fidelity of a fixed-area three-pulse protocol versus the overlap b^2.

    ``area_pair`` is the total (odd, even) areas in radians. With
    ``orthogonal=False`` the even vector is (b, a) instead of (-b, a),
    modelling approaching atoms without structured light. The vectors are
    :func:`family_vectors` of the whole grid, so each row is that of
    :func:`sop_family` at its b^2; a b^2 the builder refuses raises
    :class:`NotNormalizedError`, naming the first one, and an area pair not
    finite :class:`EmptyGridError`, before anything is computed.
    """
    areas = [float(area) for area in area_pair]
    if not all(math.isfinite(area) for area in areas):
        raise EmptyGridError(f"area pair {tuple(area_pair)} is not finite")
    odd, even = family_vectors(np.atleast_1d(np.asarray(b2_grid, dtype=float)), orthogonal=orthogonal)
    return alternating_amplitudes(odd, even, *areas, reduce=fidelity_from_rows)


#: Per depth k = -floor(log10 |x|) of a magnitude clamped to [1e-101, 1],
#: read at index k in [0, 101]: the double nearest 10**(8 + k), which lifts
#: 10**-k <= |x| < 10**(1 - k) to nine integer digits, exact for k <= 14.
#: Depth 0 (|x| >= 1 and nan) and depths 100 and 101 (|x| < 1e-99, and 0)
#: scale by 0, so that their digits fail the checks of :func:`_spell`.
_NINE_DIGIT_SCALE = np.array([float(10 ** (8 + k)) if 0 < k < 100 else 0.0 for k in range(102)])

#: The two-byte head of a cell in exponent notation, little-endian: the
#: first digit's ASCII code in the low byte, and "." in the high byte when
#: other digits follow.
_POINT = ord(".") << 8

#: Where the exponent words "e-00" ... "e-99" of :func:`_digit_words` start,
#: past the four-digit groups.
_EXPONENT_WORD = 20_000

#: The slot of a spelled cell: every nonnegative ``%.9g`` text with at most
#: a two-digit exponent fits in 14 bytes, "0.000123456789" and
#: "1.23456789e-05". A CSV's slots are all this wide, one more when one of
#: its spelled values is negative, for a sign byte in every cell, or 16
#: bytes when a text with a three-digit exponent does not fit.
_SLOT = 14

#: Most lines one block of :func:`csv_text` holds when it spells one column,
#: and most cells it spells: with c spelled columns a block holds
#: ``_CSV_BLOCK_LINES // c`` lines, but at least one row of the first axis.
#: The CSV's one line buffer and a block's spelling temporaries are what
#: rendering holds beyond the text.
_CSV_BLOCK_LINES = 2**14


@functools.cache
def _digit_words() -> np.ndarray:
    """Four-byte ASCII words, little-endian uint32, from which :func:`_spell` builds cells.

    Entry k < 10**4 spells k with its trailing zeros replaced by NUL bytes;
    entry 10**4 + k spells it in full, with leading zeros; entry
    ``_EXPONENT_WORD`` + k is "e-" and k in two digits. Built on first use,
    so importing costs nothing, and from one- and two-byte integers, so that
    the one-row CSV of an optimized point does not raise its memory peak.
    """
    k = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=-1).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    exponents = np.frombuffer(b"".join(b"e-%02d" % k for k in range(100)), np.uint8).reshape(-1, 4)
    spelled = np.concatenate([np.where(trailing, 0, digits + 48), digits + 48, exponents])
    return spelled.view("<u4")[:, 0]


@functools.cache
def _fixed_heads() -> np.ndarray:
    """Eight-byte words, little-endian uint64, that start a cell in fixed notation.

    Entry 10 k + d is "0.", min(max(k - 1, 0), 3) zeros and the digit d,
    NUL-padded: for k <= 4, the text of 10**-k <= |x| < 10**(1 - k) through
    its first significant digit d. Entries run to k = 102, so that every
    depth up to 101 with a first digit up to 10 (D rounded up to 10**9) has
    one. Built on first use.
    """
    zeros = [b"0." + b"0" * min(max(k - 1, 0), 3) for k in range(103)]
    heads = [(head + b"%d" % d).ljust(8, b"\0") for head in zeros for d in range(10)]
    return np.frombuffer(b"".join(heads), "<u8")


def _spell(values: np.ndarray, slots: np.ndarray) -> bool:
    """Spell ``b"%.9g" % x`` of each float64 value into its slot; False, writing nothing, if one does not fit.

    ``slots`` is uint8, ``values.shape + (width,)``, its last axis
    contiguous, and a cell's text is its slot's bytes with every NUL
    dropped. A spelled cell is 14 bytes: the fixed-notation head "0.", k - 1
    zeros and the first digit, then two groups of four digits, or the
    exponent-notation head, two groups and the exponent. A slot wider than
    14 bytes, which the caller gives every value when one of them is
    negative, starts each cell with a sign byte, "-" or NUL, and ends it
    with NUL. A formatted text longer than the slot (a three-digit exponent)
    is written nowhere, and False returned: 16 bytes hold the longest
    ``%.9g`` text of a float64, "-1.23456789e-308".

    Each x with 1e-99 <= |x| < 1 is spelled at once. With the depth
    k = -floor(log10 |x|), D = round(|x| * 10**(8 + k)) is its nine
    significant digits. The power is the double nearest 10**(8 + k), exact
    for k <= 14, and the product is below 10**9 < 2**30, so it is within
    2.4e-7 of the exact one, and D is its nearest integer. Whenever the
    product lies more than 1e-6 from a half-integer, the exact one lies on
    the same side of it, and D is correctly rounded. D is split exactly in
    integers: its first digit D // 10**8, then two groups of four, the first
    of them without trailing zeros only when the second is zero, the second
    always without. For k <= 4, ``%.9g`` writes fixed notation: "-" when x < 0, the head
    "0.", a word of k - 1 zeros and the first digit, and the two groups. For
    k >= 5 it writes exponent notation: the head (the first digit, and "."
    unless every other digit is zero), the two groups, and "e-" with the two
    digits of k. A log10 off by one near a power of ten lifts D out of
    [10**8, 10**9) or rounds it to exactly 10**8, which spells the same text.

    Every other value goes to ``b"%.9g" % x``, the float formatter that
    ``f"{x:.9g}"`` uses: |x| outside [1e-99, 1), including 0, nan and inf; a
    product within 1e-6 of a half-integer, which holds every exact decimal
    tie; and a D outside [10**8, 10**9), where rounding carried into the next
    decade. No cell of the default maps takes this route.
    """
    x = values.reshape(-1)
    # Each temporary is dropped once used, to keep a block's spelling small.
    # NaN and |x| >= 1 become 1 (depth 0), and 0 becomes 1e-101 (depth 101).
    magnitude = np.abs(x)
    np.fmin(magnitude, 1.0, out=magnitude)
    np.fmax(magnitude, 1e-101, out=magnitude)
    depth = np.log10(magnitude)
    np.floor(depth, out=depth)
    np.negative(depth, out=depth)
    power = depth.astype(np.intp)
    del depth
    scaled = np.multiply(magnitude, _NINE_DIGIT_SCALE.take(power), out=magnitude)
    nine = np.rint(scaled)
    scaled -= nine
    spelled = np.abs(scaled, out=scaled) < 0.5 - 1e-6
    del scaled, magnitude
    spelled &= nine >= 1e8
    spelled &= nine < 1e9
    rest = nine.astype(np.intp)
    del nine
    first = rest // 10**8
    rest -= first * 10**8
    middle = rest // 10**4
    tail = rest - middle * 10**4
    full = np.minimum(tail, 1)
    full *= 10**4
    middle += full
    del full
    table = _digit_words()
    words = [table.take(middle), table.take(tail)]
    del middle, tail
    # Cells in exponent notation and cells for the formatter are rare, and
    # found in one pass.
    special = ~spelled
    special |= power >= 5
    special = np.flatnonzero(special)
    deep, slow = special[spelled[special]], special[~spelled[special]]
    # Exponent notation: the head is the first digit, with "." unless the
    # other eight are zero, and the groups move up a word for the exponent.
    leads = (ord("0") + first[deep] + _POINT * (rest[deep] > 0)).astype(np.uint64)
    exponents = table.take(_EXPONENT_WORD + power[deep])
    power *= 10
    power += first
    heads = _fixed_heads().take(power)
    del power, first, rest
    heads[deep] = leads + (words[0][deep].astype(np.uint64) << 16)
    words[0][deep] = words[1][deep]
    words[1][deep] = exponents
    texts = [b"%.9g" % value for value in x[slow].tolist()]
    width = slots.shape[-1]
    if max(map(len, texts), default=0) > width:
        return False
    signed = width > _SLOT
    if signed:
        slots[..., 0] = np.less(values, 0).view(np.uint8) * np.uint8(ord("-"))
    slots[..., signed : signed + 8].view("<u8")[..., 0] = heads.reshape(values.shape)
    cells = slots[..., signed + 6 : signed + _SLOT].view("<u4")
    for k, word in enumerate(words):
        cells[..., k] = word.reshape(values.shape)
    if width > _SLOT + signed:
        slots[..., signed + _SLOT :] = 0
    if texts:
        texts = np.array(texts, f"S{width}").view(np.uint8)
        slots[np.unravel_index(slow, values.shape)] = texts.reshape(-1, width)
    return True


def _line_template(labels, width, n_spelled, row_shape):
    """One row of :func:`csv_text`'s lines to start from, for spelled slots of ``width`` bytes.

    Each label takes its longest text and a separator, then each spelled
    column a slot and a separator. The template holds the separators (","
    or "\\n" after the last column) and the labels that do not vary along
    the first axis, over ``row_shape``.
    """
    widths = [label.itemsize for label in labels] + [width] * n_spelled
    ends = np.cumsum(np.add(widths, 1))
    template = np.zeros(row_shape + (ends[-1],), np.uint8)
    template[..., ends - 1] = ord(",")
    template[..., -1] = ord("\n")
    for at, label in zip(ends - widths - 1, labels):
        if label.ndim <= len(row_shape) or label.shape[0] == 1:
            template[..., at : at + label.itemsize].view(label.dtype)[..., 0] = label
    return template


def csv_text(header: str, columns) -> bytes:
    """Render ASCII CSV bytes: the header line, then one line per element of the columns.

    ``columns`` of floats broadcast to one shape of at least one axis, whose
    elements are the lines, in row-major order; a cell is ``f"{x:.9g}"``,
    in fixed or exponent notation. Leading columns smaller than that shape,
    such as a map's two axis columns, are labels: ``b"%.9g"`` formats each of
    their values once, and the texts are broadcast. Every later column, and
    always the last one, is spelled by :func:`_spell` into one run of slots.

    Lines are rendered in blocks of rows of the first axis, of at most
    ``_CSV_BLOCK_LINES`` spelled cells but at least one row, with one
    :func:`_spell` call per block, in one ``bytearray``. Every slot of the
    CSV has one width, decided before its first block: 14 bytes, or 15 when
    one of the spelled values is negative. One template row holds the
    separators and the labels that do not vary along the first axis; it
    fills the line buffer once, and each block writes only the other
    columns over it. One ``bytearray.translate`` then drops the NUL padding
    of the block's lines, wherever it lies in a cell, and the text is
    appended to one ``io.BytesIO``, whose buffer ``getvalue`` returns
    without a copy. If a formatted text does not fit its slot (a
    three-digit exponent), the CSV is rendered again in 16-byte slots,
    which hold every ``%.9g`` text of a float64.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    head = header.encode() + b"\n"
    if not math.prod(shape):
        return head
    n_labels = 0
    while n_labels < len(columns) - 1 and columns[n_labels].shape != shape:
        n_labels += 1
    labels = []
    for column in columns[:n_labels]:
        texts = b"%.9g\0" * column.size % tuple(column.ravel().tolist())
        labels.append(np.array(texts.split(b"\0")[:-1], dtype=bytes).reshape(column.shape))
    # labels that vary along the first axis, written block by block, and where they start
    run_at, varying = 0, []
    for label in labels:
        if label.ndim == len(shape) and label.shape[0] != 1:
            varying.append((run_at, label))
        run_at += label.itemsize + 1
    negative = any(np.fmin.reduce(column, axis=None, initial=0.0) < 0 for column in columns[n_labels:])
    spelled = [np.broadcast_to(column, shape) for column in columns[n_labels:]]
    rows = min(shape[0], max(1, _CSV_BLOCK_LINES // (len(spelled) * math.prod(shape[1:]))))
    for width in (_SLOT + negative, _SLOT + 2):
        template = _line_template(labels, width, len(spelled), shape[1:])
        buffer = bytearray(rows * template.size)
        lines = np.frombuffer(buffer, np.uint8).reshape((rows,) + template.shape)
        lines[...] = template
        out = io.BytesIO()
        out.write(head)
        for lo in range(0, shape[0], rows):
            hi = min(lo + rows, shape[0])
            block = lines[: hi - lo]
            slots = block[..., run_at:].reshape(block.shape[:-1] + (len(spelled), width + 1))
            if not _spell(np.stack([column[lo:hi] for column in spelled], -1), slots[..., :width]):
                break
            for at, label in varying:
                block[..., at : at + label.itemsize].view(label.dtype)[..., 0] = label[lo:hi]
            out.write((buffer if hi - lo == rows else buffer[: block.size]).translate(None, b"\0"))
        else:
            return out.getvalue()


def map_csv_text(fmap: FidelityMap) -> bytes:
    """Render a map as ASCII CSV bytes: areas in units of pi, 9 significant digits, row-major.

    The bytes equal one ``f"{ao:.9g},{ae:.9g},{F:.9g}\\n"`` per grid point,
    encoded: one :func:`csv_text` call. Each axis value is formatted once
    and broadcast over the map (the even axis from the template row); the
    fidelities are spelled one block of odd rows at a time into the map's
    one slot width, 14 bytes unless a fidelity's text has a three-digit
    exponent, so that a default map's line is 27 bytes for about 22 of text.
    The returned ``bytes`` is the buffer the blocks' texts were appended to.
    """
    columns = [(fmap.axis_odd / math.pi)[:, None], fmap.axis_even / math.pi, fmap.values]
    return csv_text("a_odd_over_pi,a_even_over_pi,fidelity", columns)


def lattice_report_dict(report: LatticeReport) -> dict:
    """JSON-friendly report: areas in units of pi, angles in degrees."""
    return {
        "rotation_angle_deg": math.degrees(report.rotation_angle),
        "nn_spacing_over_pi": report.nn_spacing / math.pi,
        "n_maxima": int(len(report.maxima)),
        "maxima": [
            {
                "a_odd_over_pi": row[0] / math.pi,
                "a_even_over_pi": row[1] / math.pi,
                "fidelity": row[2],
            }
            for row in report.maxima.tolist()
        ],
    }
