"""Gate fidelity, pulse-area fidelity maps, lattice analysis, and factor scans.

The fidelity of a protocol against a diagonal +-1 target signature T is, by
default, F = |Tr(T^dag U) / d|^2 where U is the diagonal of return amplitudes
over the 2^n computational states and d = 2^n. Two alternates are available
for sensitivity studies ("trace": |Tr|/d, "average": the standard
average-gate-fidelity combination). Maps sweep the total odd and even pulse
areas on a rectangular grid; their maxima form (possibly rotated) lattices.

Protocols come from one model, :class:`ProtocolFamily`: an odd and an even
structural vector alternating over M pulses. :func:`sop_family` is the one
place that turns squared geometrical factors into those vectors, and
:func:`alternating_amplitudes` the one that lays out their pulses. Every
return amplitude, for one protocol, a b scan, a map grid or a robustness
scan, comes from one :func:`~sopgate.propagator.register_amplitudes` call.
Fidelities of rows of protocols (basis axis last: single protocols, b scans,
optimizer candidates) come from :func:`fidelity_from_rows`, those of map
grids (basis axis first) from :func:`fidelity_from_amplitudes`; each
formula's order of summation defines the published bits of its outputs.
"""

import functools
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
    GateSignature,
    Protocol,
    Pulse,
    StructuralVector,
    cphase_signature,
    spectator_orthogonal_pair,
)
from .propagator import (  # noqa: F401  block_decompose, star_propagator_batch: bench shims
    block_decompose,
    diagonal_amplitudes,
    register_amplitudes,
    star_propagator_batch,
)

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
        return int(round((self.hi - self.lo) / self.step)) + 1

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


def alternating_amplitudes(vector_odd, vector_even, area_odd, area_even, m_pulses: int = 3):
    """Return amplitudes of M pulses alternating odd, even, odd, ..., basis axis last.

    Vectors (..., n_qubits) and total areas (radians, split by :func:`pulse_areas`) broadcast.
    """
    thetas = [0.5 * a for a in pulse_areas(area_odd, area_even, m_pulses)]
    return register_amplitudes([vector_odd, vector_even], thetas, [k % 2 for k in range(m_pulses)])


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

    def amplitudes(self, area_odd, area_even) -> np.ndarray:
        """Return amplitudes at total areas (radians, broadcasting): :func:`alternating_amplitudes`."""
        vectors = (self.vector_odd.components, self.vector_even.components)
        return alternating_amplitudes(*vectors, area_odd, area_even, self.m_pulses)

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
    if b**2 + c**2 > 1.0:
        raise NotNormalizedError("b^2 + c^2 exceeds 1")
    a = math.sqrt(1.0 - b**2 - c**2)
    if n_qubits == 2:
        even = (-b, a) if orthogonal else (b, a)
        return ProtocolFamily(StructuralVector((a, b)), StructuralVector(even), m_pulses)
    if not orthogonal:
        return ProtocolFamily(StructuralVector((a, b, c)), StructuralVector((b, a, c)), m_pulses)
    if 2.0 * c**2 > 1.0:
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


def fidelity_from_amplitudes(diag, target: GateSignature, definition: str = "trace-sq"):
    """Combine diagonal return amplitudes into a fidelity in [0, 1].

    ``diag`` has the basis-state axis first and may carry trailing grid axes.
    """
    phases = np.asarray(target.phases, dtype=float)
    d = phases.size
    diag = np.asarray(diag)
    if diag.shape[0] != d:
        raise SignatureMismatchError(
            f"{diag.shape[0]} amplitudes for a {d}-entry signature"
        )
    overlap = np.tensordot(phases, diag, axes=(0, 0))
    if definition == "trace-sq":
        return np.abs(overlap / d) ** 2
    if definition == "trace":
        return np.abs(overlap) / d
    if definition == "average":
        return (np.abs(overlap) ** 2 + np.sum(np.abs(diag) ** 2, axis=0)) / (d * d + d)
    raise ValueError(f"unknown fidelity definition {definition!r}")


def fidelity_from_rows(rows, target: GateSignature, definition: str = "trace-sq"):
    """Combine return amplitudes, basis-state axis last, into fidelities in [0, 1].

    ``rows`` has shape (..., 2^n), one protocol per row; the result has shape
    ``rows.shape[:-1]``. Each row's overlap with the target is one
    ``np.vecdot`` over a contiguous row, so it depends neither on the other
    rows nor on their memory layout. Overlaps are squared by libm ``pow``
    (``np.float_power``), as the optimizer's ties and files always were;
    ``x * x`` differs in the last bit for about 0.1 % of values.
    """
    phases = np.asarray(target.phases, dtype=float)
    d = phases.size
    rows = np.ascontiguousarray(rows)
    if rows.shape[-1] != d:
        raise SignatureMismatchError(f"{rows.shape[-1]} amplitudes for a {d}-entry signature")
    overlap = np.vecdot(phases, rows)
    if definition == "trace-sq":
        return np.float_power(np.abs(overlap / d), 2.0)
    if definition == "trace":
        return np.abs(overlap) / d
    if definition == "average":
        squares = np.float_power(np.abs(overlap), 2.0)
        return (squares + np.sum(np.abs(rows) ** 2, axis=-1)) / (d * d + d)
    raise ValueError(f"unknown fidelity definition {definition!r}")


def gate_fidelity(
    protocol: Protocol, target: GateSignature, definition: str = "trace-sq"
) -> float:
    """Fidelity of a protocol against a diagonal +-1 target signature.

    The one-row case of :func:`fidelity_from_rows`.
    """
    return float(fidelity_from_rows(diagonal_amplitudes(protocol), target, definition))


def family_diagonal_grid(
    family: ProtocolFamily, area_odd_grid: np.ndarray, area_even_grid: np.ndarray
) -> np.ndarray:
    """Return amplitudes of every basis state over an area grid.

    Output shape is (2^n, len(area_odd_grid), len(area_even_grid)), complex
    and contiguous: one :meth:`ProtocolFamily.amplitudes` call with the areas
    on the axes, shaped (n_odd, 1) and (1, n_even), so each star propagator
    is built once per axis value. Every amplitude equals the pointwise one
    bit for bit.
    """
    area_o = np.asarray(area_odd_grid)[:, None]
    area_e = np.asarray(area_even_grid)[None, :]
    return np.moveaxis(family.amplitudes(area_o, area_e), -1, 0)


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
    points raises :class:`GridTooLargeError` before anything is allocated.
    """
    grid_odd = grid_odd or GridSpec(*DEFAULT_GRID)
    grid_even = grid_even or grid_odd
    check_grid_points(grid_odd.n_points * grid_even.n_points)
    target = cphase_signature(family.n_qubits)
    axis_odd = grid_odd.values_radians()
    axis_even = grid_even.values_radians()
    diag = family_diagonal_grid(family, axis_odd, axis_even)
    values = fidelity_from_amplitudes(diag, target, definition)
    return FidelityMap(axis_odd=axis_odd, axis_even=axis_even, values=values)


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
    vectors = [pulse.vector.components for pulse in protocol.pulses]
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = [
            0.5 * (pulse.area + (delta if k % 2 == 0 else 2.0 * delta))
            for k, pulse in enumerate(protocol.pulses)
        ]
    for k, theta in enumerate(thetas):
        if not np.isfinite(theta).all():
            raise EmptyGridError(f"the area error takes pulse {k + 1} past a finite area in radians")
    # Basis order: 00, 01, 10, then the inert 11.
    u11v, u11a, u11b = register_amplitudes(vectors, thetas)[:, :3].real.T
    return RobustnessCurves(delta_area=delta, u11v=u11v, u11a=u11a, u11b=u11b)


def b_scan(
    area_pair_pi: tuple[float, float],
    b2_grid,
    orthogonal: bool = True,
    definition: str = "trace-sq",
) -> np.ndarray:
    """Two-qubit C-PHASE fidelity of a fixed-area three-pulse protocol versus the overlap b^2.

    ``area_pair_pi`` is (A_odd, A_even) in units of pi. With
    ``orthogonal=False`` the even vector is (b, a) instead of (-b, a),
    modelling approaching atoms without structured light.
    """
    b2_values = np.atleast_1d(np.asarray(b2_grid, dtype=float))
    families = [sop_family(b2=b2, orthogonal=orthogonal) for b2 in b2_values.tolist()]
    # The odd and even pulse vectors, one row per b^2 point.
    odd = np.array([family.vector_odd.components for family in families]).reshape(-1, 2)
    even = np.array([family.vector_even.components for family in families]).reshape(-1, 2)
    area_odd, area_even = (area * math.pi for area in area_pair_pi)
    amplitudes = alternating_amplitudes(odd, even, area_odd, area_even)
    return fidelity_from_rows(amplitudes, cphase_signature(2), definition)


#: Decade edges of the fidelities numpy spells, and per decade the power of
#: ten that lifts [1e-4, 1e-3), ..., [0.1, 1) to nine integer digits.
_DECADE_EDGES = np.array([1e-3, 1e-2, 1e-1])
_NINE_DIGIT_SCALE = np.array([1e12, 1e11, 1e10, 1e9])

#: Cells per block of odd rows that :func:`map_csv_text` spells at once.
_CSV_BLOCK_CELLS = 2**14


@functools.cache
def _digit_words() -> np.ndarray:
    """Four-digit ASCII groups as little-endian uint32 words.

    Entry k < 10**4 spells k with leading zeros; entry 10**4 + k spells it
    with its trailing zeros replaced by NUL bytes, which numpy drops from the
    end of a bytes string. Built on first use, so importing costs nothing.
    """
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=-1)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    spelled = np.concatenate([digits + 48, np.where(trailing, 0, digits + 48)])
    return spelled.astype(np.uint8).view("<u4")[:, 0]


def _fidelity_cells(values: np.ndarray) -> np.ndarray:
    """``b"%.9g" % F`` of every float64 value, as a bytes array of the same shape.

    Cells with 1e-4 <= F < 1 are spelled "0." followed by the 12 digits of
    D * 10**(3 - z), trailing zeros dropped (see :func:`map_csv_text`); all
    others are formatted one by one.
    """
    fast = (values >= 1e-4) & (values < 1)
    f = np.where(fast, values, 0.5)
    decade = np.searchsorted(_DECADE_EDGES, f, side="right")  # 3 - z
    scaled = f * _NINE_DIGIT_SCALE[decade]
    whole = np.floor(scaled)
    frac = scaled - whole
    nine = whole.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (nine >= 10**8) & (nine < 10**9)
    # Spell a placeholder in the cells formatted one by one below.
    head, rest = np.divmod(np.where(fast, nine, 10**8) * 10**decade, 10**8)
    middle, tail = np.divmod(rest, 10**4)
    # A group drops its trailing zeros when every later group is zero.
    groups = [head + 10**4 * ((middle | tail) == 0), middle + 10**4 * (tail == 0), tail + 10**4]
    # 16 bytes hold the longest %.9g text of a float64, "-1.23456789e-308".
    text = np.zeros(values.shape + (16,), np.uint8)
    text[..., :2] = np.frombuffer(b"0.", np.uint8)
    text[..., 2:14] = _digit_words()[np.stack(groups, axis=-1)].view(np.uint8)
    cells = text.view("S16")[..., 0]
    slow = ~fast
    cells[slow] = [b"%.9g" % x for x in values[slow].tolist()]
    return cells


def map_csv_text(fmap: FidelityMap) -> bytes:
    """Render a map as ASCII CSV bytes: areas in units of pi, 9 significant digits, row-major.

    The bytes equal one ``f"{ao:.9g},{ae:.9g},{F:.9g}\\n"`` per grid point, encoded.
    Each axis value is formatted once. An odd row is one ``%`` template that
    repeats the row's odd area before every even-area tail
    ``",<even>,%s\\n"``, filled from the fidelity texts of a block of odd
    rows that numpy spells at once.

    For 1e-4 <= F < 1, ``%.9g`` writes "0.", z = -1 - floor(log10 F) zeros
    and the nine digits of D = round(F * 10**(9 + z)), ties to even, without
    trailing zeros. The power 10**(9 + z) is exact in float64 and the product
    is below 10**9 < 2**30, so its float value is within half an ulp, under
    6e-8, of the exact one; D is its floor, plus one when the fraction
    exceeds 0.5. Whenever that fraction is more than 1e-6 from 0.5, the exact
    product rounds to the same integer, so D is correctly rounded. The
    decade tests compare exactly: the doubles 1e-4, ..., 0.1 each lie just
    above their power of ten, so no double falls between the two.

    Every other cell goes to ``b"%.9g" % F``, the float formatter that
    ``f"{F:.9g}"`` uses: F outside [1e-4, 1), including 0, negatives, nan
    and inf; a fraction within 1e-6 of 0.5, which holds every exact decimal
    tie; and a D outside [10**8, 10**9), where rounding carried into the
    next decade. About 1-3 % of the cells of a map take this route.
    """
    odd = [b"%.9g" % x for x in (fmap.axis_odd / math.pi).tolist()]
    # The leading "" puts the odd area before the first tail, and yields an
    # empty row when the even axis is empty.
    tails = [b""] + [b",%.9g,%%s\n" % x for x in (fmap.axis_even / math.pi).tolist()]
    values = np.asarray(fmap.values, dtype=np.float64)
    block = max(1, _CSV_BLOCK_CELLS // max(1, values.shape[1]))
    rows = [b"a_odd_over_pi,a_even_over_pi,fidelity\n"]
    for start in range(0, len(odd), block):
        cells = _fidelity_cells(values[start : start + block]).tolist()
        rows += [ao.join(tails) % tuple(row) for ao, row in zip(odd[start : start + block], cells)]
    return b"".join(rows)


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
