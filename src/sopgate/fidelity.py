"""Gate fidelity, pulse-area fidelity maps, lattice analysis, and factor scans.

Every fidelity is against the one target the paper measures, the C-PHASE
gate T on the two gate qubits: its diagonal phases,
:func:`~sopgate.model.cphase_signature`, are -1 unless both gate qubits are
in |1>, whatever the spectators hold. By default F = |Tr(T^dag U) / d|^2,
where U is the diagonal of return amplitudes over the 2^n computational
states and d = 2^n; the formulas read n from the number of amplitudes. Two
alternates are available for sensitivity studies ("trace": |Tr|/d,
"average": the standard average-gate-fidelity combination). Maps sweep the
total odd and even pulse areas on a rectangular grid; their maxima form
(possibly rotated) lattices.

Protocols come from one model, :class:`ProtocolFamily`: an odd and an even
structural vector alternating over M pulses. :func:`sop_family` turns squared
geometrical factors into those vectors (:func:`b_scan` builds the same 2-qubit
vectors as arrays), and :func:`alternating_amplitudes` is the one place that
lays out their pulses. Every return amplitude, for one protocol, a b scan, a
map grid or a robustness scan, comes from one
:func:`~sopgate.propagator.register_amplitudes` call.
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

One renderer spells every CSV of the package, maps and scans alike:
:func:`spell_cells` writes float64 values as ``%.9g`` text, at once for
1e-4 <= |x| < 1, and :func:`csv_text` writes the lines block by block into
the one ``bytes`` buffer it returns. :func:`map_csv_text` is its map form.
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
    spectator_orthogonal_pair,
)
from .propagator import _pulse_couplings, diagonal_amplitudes, register_amplitudes

# Not called here: bench/spans.py traces these names in this module.
from .propagator import block_decompose  # noqa: F401
from .propagator import star_propagator as star_propagator_batch  # noqa: F401

FIDELITY_DEFINITIONS = ("trace-sq", "trace", "average")

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


def check_definition(definition: str) -> None:
    """Refuse a fidelity definition not in :data:`FIDELITY_DEFINITIONS`."""
    if definition not in FIDELITY_DEFINITIONS:
        raise ValueError(f"unknown fidelity definition {definition!r}")


def check_squared_factors(**factors: float) -> None:
    """Refuse squared geometrical factors that are negative or not finite."""
    for name, value in factors.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise NotNormalizedError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Inclusive 1-D sweep range in units of pi, at most :data:`MAX_GRID_POINTS` long."""

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


def sop_family(
    b2: float = 0.0,
    c2: float = 0.0,
    n_qubits: int | None = None,
    m_pulses: int = 3,
    orthogonal: bool = True,
) -> ProtocolFamily:
    """Family from squared geometrical factors, as exposed on the command line.

    ``b2`` is the squared field overlap of the gate qubits, ``c2`` the
    squared spectator factor (3-qubit registers only). The odd vector is
    (a, b) or (a, b, c) with a = sqrt(1 - b^2 - c^2). With
    ``orthogonal=True`` the even vector is exactly orthogonal to it: (-b, a)
    for 2 qubits; for 3 qubits the gate-qubit sub-vector is tilted to cancel
    the c^2 overlap (see :func:`spectator_orthogonal_pair`), keeping the
    all-zeros passage dark-state protected. With ``orthogonal=False`` the
    even vector is the mirrored (b, a) or (b, a, c), i.e. plain single-site
    beams brought close without structured light.
    """
    check_squared_factors(b2=b2, c2=c2)
    if n_qubits is None:
        n_qubits = 3 if c2 > 0 else 2
    if n_qubits not in (2, 3):
        raise DimensionMismatchError("protocol families are defined for 2 or 3 qubits")
    b, c = math.sqrt(b2), math.sqrt(c2)
    if n_qubits == 2 and c != 0.0:
        raise DimensionMismatchError("spectator factor c needs a 3-qubit register")
    # Refused only when the squares exceed 1 both as given and as the roots
    # square back: b2 + c2 = 1 passes though 0.5 and 0.5 square back to just
    # above 1, and so does b2 = 1 + 2**-52, whose root squares back to 1.
    if b2 + c2 > 1.0 and b**2 + c**2 > 1.0:
        raise NotNormalizedError("b^2 + c^2 exceeds 1")
    a = math.sqrt(max(1.0 - b**2 - c**2, 0.0))
    if n_qubits == 2:
        even = (-b, a) if orthogonal else (b, a)
        return ProtocolFamily(StructuralVector((a, b)), StructuralVector(even), m_pulses)
    if not orthogonal:
        return ProtocolFamily(StructuralVector((a, b, c)), StructuralVector((b, a, c)), m_pulses)
    if 2.0 * c2 > 1.0:
        raise NotNormalizedError("orthogonal spectator family needs c^2 <= 0.5")
    e_even = spectator_orthogonal_pair(b, c, c)[1]
    return ProtocolFamily(StructuralVector((a, b, c)), e_even, m_pulses)


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


def fidelity_from_amplitudes(diag, definition: str = "trace-sq"):
    """Combine diagonal return amplitudes into a C-PHASE fidelity in [0, 1].

    ``diag`` has the basis-state axis last, of length 2^n for an n-qubit
    register (n >= 2), and may carry leading grid axes.
    Elementwise numpy adds fix the order: the signed amplitudes in basis
    order within each block of four basis states, then the blocks in order;
    squares by ``np.square``; ``average`` adds the |a_k|^2 in basis order.
    So a cell's bits depend on its amplitudes alone, not on the memory
    layout, the BLAS thread count, the kernel's chunks or the batch rank.
    """
    diag = np.asarray(diag)
    phases = _cphase_phases(diag)
    d = phases.size
    check_definition(definition)
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
    if definition == "trace-sq":
        # np.square(np.abs(overlap / d)) without two of its full-size temporaries.
        modulus = np.abs(np.divide(overlap, d, out=overlap if overlap.ndim else None))
        return np.square(modulus, out=modulus if modulus.ndim else None)
    if definition == "trace":
        return np.abs(overlap) / d
    squares = functools.reduce(np.add, (np.square(np.abs(amplitudes)) for amplitudes in states))
    return (np.square(np.abs(overlap)) + squares) / (d * d + d)


def fidelity_from_rows(rows, definition: str = "trace-sq"):
    """Combine return amplitudes, basis-state axis last, into C-PHASE fidelities in [0, 1].

    ``rows`` has shape (..., 2^n), one protocol per row of an n-qubit
    register (n >= 2); the result has shape ``rows.shape[:-1]``. Each row's
    overlap with the target is one ``np.vecdot`` over a contiguous row, so it
    depends neither on the other rows nor on their memory layout. Overlaps are squared by libm ``pow``
    (``np.float_power``), as the optimizer's ties and files always were;
    ``x * x`` differs in the last bit for about 0.1 % of values.
    """
    rows = np.ascontiguousarray(rows)
    phases = _cphase_phases(rows)
    d = phases.size
    check_definition(definition)
    overlap = np.vecdot(phases, rows)
    if definition == "trace-sq":
        return np.float_power(np.abs(overlap / d), 2.0)
    if definition == "trace":
        return np.abs(overlap) / d
    squares = np.float_power(np.abs(overlap), 2.0)
    return (squares + np.sum(np.abs(rows) ** 2, axis=-1)) / (d * d + d)


def gate_fidelity(protocol: Protocol, definition: str = "trace-sq") -> float:
    """C-PHASE fidelity of a protocol: the one-row case of :func:`fidelity_from_rows`."""
    return float(fidelity_from_rows(diagonal_amplitudes(protocol), definition))


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
    definition: str = "trace-sq",
) -> FidelityMap:
    """Fidelity of a protocol family against the C-PHASE signature over an area grid.

    The grids are in units of pi; ``grid_even`` defaults to ``grid_odd`` and
    that to :data:`DEFAULT_GRID`. ``definition`` is one of
    :data:`FIDELITY_DEFINITIONS`. A map of more than :data:`MAX_GRID_POINTS`
    points raises :class:`GridTooLargeError`, and an unknown definition
    :class:`ValueError`, before anything is computed.

    The map is one :func:`family_diagonal_grid` call that reduces each chunk
    of the kernel to fidelities by :func:`fidelity_from_amplitudes`.
    """
    grid_odd = grid_odd or GridSpec(*DEFAULT_GRID)
    grid_even = grid_even or grid_odd
    check_grid_points(grid_odd.n_points * grid_even.n_points)
    check_definition(definition)
    axis_odd = grid_odd.values_radians()
    axis_even = grid_even.values_radians()
    fidelities = functools.partial(fidelity_from_amplitudes, definition=definition)
    return FidelityMap(axis_odd, axis_even, family_diagonal_grid(family, axis_odd, axis_even, fidelities))


def _strict_local_maxima_mask(values: np.ndarray) -> np.ndarray:
    """Cells strictly greater than all existing 8-neighbours."""
    padded = np.pad(values, 1, constant_values=-np.inf)
    center = padded[1:-1, 1:-1]
    mask = np.ones(values.shape, dtype=bool)
    n_rows, n_cols = padded.shape
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= center > padded[1 + di : n_rows - 1 + di, 1 + dj : n_cols - 1 + dj]
    return mask


def map_maxima(fmap: FidelityMap, threshold: float = DEFAULT_MAXIMA_THRESHOLD) -> np.ndarray:
    """Strict-local-maxima rows (area_odd, area_even, F), fidelity descending."""
    mask = _strict_local_maxima_mask(fmap.values) & (fmap.values >= threshold)
    ii, jj = np.nonzero(mask)
    rows = np.column_stack([fmap.axis_odd[ii], fmap.axis_even[jj], fmap.values[ii, jj]])
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
    phi = np.arctan2(nn_vec[:, 1], nn_vec[:, 0])
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


def b_scan(
    area_pair: tuple[float, float],
    b2_grid,
    orthogonal: bool = True,
    definition: str = "trace-sq",
) -> np.ndarray:
    """Two-qubit C-PHASE fidelity of a fixed-area three-pulse protocol versus the overlap b^2.

    ``area_pair`` is the total (odd, even) areas in radians. With
    ``orthogonal=False`` the even vector is (b, a) instead of (-b, a),
    modelling approaching atoms without structured light. The vectors are
    those of :func:`sop_family` at each b^2, bit for bit, built as arrays;
    a b^2 that family refuses raises :class:`NotNormalizedError`, an area
    pair not finite :class:`EmptyGridError`, and an unknown
    ``definition`` :class:`ValueError`, before anything is computed.
    """
    check_definition(definition)
    areas = [float(area) for area in area_pair]
    if not all(math.isfinite(area) for area in areas):
        raise EmptyGridError(f"area pair {tuple(area_pair)} is not finite")
    b2_values = np.atleast_1d(np.asarray(b2_grid, dtype=float))
    with np.errstate(invalid="ignore"):
        b = np.sqrt(b2_values)
    # Squared by libm pow, as sop_family's b**2.
    b_sq = np.float_power(b, 2.0)
    refused = ~(np.isfinite(b2_values) & (b2_values >= 0.0)) | (b_sq > 1.0)
    if refused.any():
        value = float(b2_values[refused][0])
        check_squared_factors(b2=value)
        raise NotNormalizedError(f"b^2 = {value!r} exceeds 1")
    a = np.sqrt(1.0 - b_sq)
    # The odd and even pulse vectors, one row per b^2 point.
    odd = np.stack([a, b], axis=-1)
    even = np.stack([-b if orthogonal else b, a], axis=-1)
    fidelities = functools.partial(fidelity_from_rows, definition=definition)
    return alternating_amplitudes(odd, even, *areas, reduce=fidelities)


#: Decade edges of the magnitudes :func:`spell_cells` spells at once, and per
#: decade the power of ten that lifts [1e-4, 1e-3), ..., [0.1, 1) to nine
#: integer digits.
_DECADE_EDGES = np.array([1e-3, 1e-2, 1e-1])
_NINE_DIGIT_SCALE = np.array([1e12, 1e11, 1e10, 1e9])

#: Most lines one block of :func:`csv_text` holds. A block's buffers and
#: spelling temporaries are what rendering holds beyond the text: 0.2 times
#: the text of the wide 641 x 641 map, 0.35 times that of a 200 001-row scan.
#: Blocks of 2**16 lines raise the traced peak of that scan from 1.43 to 2.46
#: times its length; blocks of 2**13 lower it to 1.26 and render more slowly.
_CSV_BLOCK_LINES = 2**14


@functools.cache
def _digit_words() -> np.ndarray:
    """Four-digit ASCII groups as little-endian uint32 words.

    Entry k < 10**4 spells k with leading zeros; entry 10**4 + k spells it
    with its trailing zeros replaced by NUL bytes, which numpy drops from the
    end of a bytes string. Built on first use, so importing costs nothing,
    and from one- and two-byte integers, so that the one-row CSV of an
    optimized point does not raise its memory peak.
    """
    k = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=-1).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    spelled = np.concatenate([digits + 48, np.where(trailing, 0, digits + 48)])
    return spelled.view("<u4")[:, 0]


def spell_cells(values) -> np.ndarray:
    """``b"%.9g" % x`` of every float64 value, as a bytes array (``S16``) of the same shape.

    For 1e-4 <= |x| < 1, ``%.9g`` writes "-" when x < 0, then "0.",
    z = -1 - floor(log10 |x|) zeros and the nine digits of
    D = round(|x| * 10**(9 + z)), ties to even, without trailing zeros. The
    power 10**(9 + z) is exact in float64 and the product is below
    10**9 < 2**30, so its float value is within half an ulp, under 6e-8, of
    the exact one; D is its floor, plus one when the fraction exceeds 0.5.
    Whenever that fraction is more than 1e-6 from 0.5, the exact product
    rounds to the same integer, so D is correctly rounded. The decade tests
    compare exactly: the doubles 1e-4, ..., 0.1 each lie just above their
    power of ten, so no double falls between the two. These cells are
    spelled at once, as the 12 digits of D * 10**(3 - z).

    Every other value goes to ``b"%.9g" % x``, the float formatter that
    ``f"{x:.9g}"`` uses: |x| outside [1e-4, 1), including 0, nan and inf; a
    fraction within 1e-6 of 0.5, which holds every exact decimal tie; and a
    D outside [10**8, 10**9), where rounding carried into the next decade.
    About 1-3 % of the cells of a map take this route.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.reshape(-1)
    # Each temporary is dropped once used, so that a block of csv_text spells
    # in about 65 bytes per cell rather than 165.
    scaled = np.abs(flat)
    fast = (scaled >= 1e-4) & (scaled < 1)
    scaled[~fast] = 0.5
    decade = np.searchsorted(_DECADE_EDGES, scaled, side="right")  # 3 - z
    scaled *= _NINE_DIGIT_SCALE[decade]
    nine = np.floor(scaled)
    frac = np.subtract(scaled, nine, out=scaled)
    nine = nine.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (nine >= 10**8) & (nine < 10**9)
    del scaled, frac
    # Spell a placeholder in the cells formatted one by one below.
    nine[~fast] = 10**8
    nine *= 10**decade
    del decade
    head, rest = np.divmod(nine, 10**8)
    middle, tail = np.divmod(rest, 10**4)
    del nine
    # A group drops its trailing zeros when every later group is zero.
    groups = np.stack([head + 10**4 * (rest == 0), middle + 10**4 * (tail == 0), tail + 10**4], axis=-1)
    del head, rest, middle, tail
    # 16 bytes hold the longest %.9g text of a float64, "-1.23456789e-308".
    text = np.zeros((flat.size, 16), np.uint8)
    text[:, :2] = np.frombuffer(b"0.", np.uint8)
    text[:, 2:14] = _digit_words()[groups].view(np.uint8)
    del groups
    negative = fast & (flat < 0)
    if negative.any():
        text[negative, 1:] = text[negative, :-1]
        text[negative, 0] = ord("-")
    cells = text.view("S16")[:, 0]
    slow = ~fast
    cells[slow] = [b"%.9g" % x for x in flat[slow].tolist()]
    return cells.reshape(values.shape)


def _spelled_length_bound(values) -> int:
    """Upper bound, from counts alone, of the summed lengths of :func:`spell_cells` of ``values``.

    Without its sign a ``%.9g`` text is at most 15 bytes long
    ("1.23456789e-308"). Below 1 it is "0." and at most nine digits, 11
    bytes, plus one leading zero for each of 0.1, 0.01 and 0.001 that |x|
    lies below; below 1e-4 it is back to at most 15.
    """
    magnitude = np.abs(values)
    below = [np.count_nonzero(magnitude < edge) for edge in (1.0, 0.1, 0.01, 0.001, 1e-4)]
    signs = np.count_nonzero(values < 0)
    return 15 * magnitude.size - 4 * below[0] + sum(below[1:]) + signs


def csv_text(header: str, columns) -> bytes:
    """Render ASCII CSV bytes: the header line, then one line per element of the columns.

    ``columns`` broadcast to one shape of at least one axis, whose elements
    are the lines, in row-major order. A bytes column (dtype ``S<w>``) is
    written as it is; any other is spelled by :func:`spell_cells`, so a
    float's cell is ``f"{x:.9g}"``. Lines are rendered in blocks of rows of
    the first axis, of at most ``_CSV_BLOCK_LINES`` lines but at least one
    row: each column's NUL-padded text, and the "," or "\\n" after it, fill
    one ``uint8`` buffer, from which one boolean mask drops the padding.

    The text exists once. Before the first block, one ``bytes`` buffer of an
    upper bound of its length is allocated, zeroed by calloc: within 1 % of
    the text on a map (axis texts are measured, fidelities bounded by their
    decade), within 9 % on a scan whose short delta texts the bound
    overestimates. Each block's lines are written straight into it, the
    unused tail is cut off in place, and the buffer itself is returned, never
    copied. Rendering peaks under tracemalloc at 1.23 times the text of the
    wide 641 x 641 map (9.5 MB) and 1.43 times that of a 200 001-row scan;
    joining per-block ``bytes`` peaked at 2.09 and 2.03 times.
    """
    columns = [np.asarray(column) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    spelled = [column.dtype.kind != "S" for column in columns]
    widths = [16 if spell else column.itemsize for column, spell in zip(columns, spelled)]
    rows = max(1, _CSV_BLOCK_LINES // max(1, math.prod(shape[1:])))
    head = header.encode() + b"\n"
    n_lines = math.prod(shape)
    # An upper bound of the text's length: each cell of a column appears
    # n_lines / column.size times, followed by "," or "\n".
    bound = len(head) + n_lines * len(columns)
    if n_lines:
        for column, spell in zip(columns, spelled):
            length = _spelled_length_bound(column) if spell else np.char.str_len(column).sum()
            bound += int(length) * (n_lines // column.size)
    # bytes(bound) is calloc'd, and a BytesIO holding its only reference
    # writes into it in place.
    out = io.BytesIO(bytes(bound))
    out.write(head)
    for lo in range(0, shape[0], rows):
        block = (min(rows, shape[0] - lo),) + shape[1:]
        lines = np.empty(block + (sum(widths) + len(widths),), np.uint8)
        at = 0
        for column, spell, width in zip(columns, spelled, widths):
            part = np.broadcast_to(column, shape)[lo : lo + rows]
            text = spell_cells(part) if spell else part
            lines[..., at : at + width].view(f"S{width}")[..., 0] = text
            lines[..., at + width] = ord(",")
            at += width + 1
        lines[..., -1] = ord("\n")
        out.write(lines[lines != 0])
    out.truncate()
    return out.getvalue()


def map_csv_text(fmap: FidelityMap) -> bytes:
    """Render a map as ASCII CSV bytes: areas in units of pi, 9 significant digits, row-major.

    The bytes equal one ``f"{ao:.9g},{ae:.9g},{F:.9g}\\n"`` per grid point,
    encoded: one :func:`csv_text` call. Each axis value is spelled once, cut
    to its axis's longest text, and broadcast over the map; the fidelities
    are spelled one block of odd rows at a time. The returned ``bytes`` is
    the one buffer the text was written into: rendering the wide 641 x 641
    map peaks under tracemalloc at 1.23 times its 9.5 MB.
    """

    def axis_text(axis):
        text = spell_cells(axis / math.pi)
        return text.astype(f"S{max(1, np.char.str_len(text).max(initial=0))}")

    columns = [axis_text(fmap.axis_odd)[:, None], axis_text(fmap.axis_even), fmap.values]
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
