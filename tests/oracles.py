"""Closed-form test oracles for the library's one amplitude kernel.

Each reproduces one expression (c_k = cos th_k, s_k = sin th_k):

* ``u11v_threepulse``: the three-pulse all-zeros amplitude, unit vectors e1, e2, e3;
* ``u11v_sop``: the symmetric orthogonal protocol, c1^2 c2 - s1^2;
* ``u11v_esop``: the published M = 2..5 forms c_e c_o, c_o^2 c_e - s_o^2,
  c_o^2 c_e^2 - s_o^2 - s_e^2, c_o^3 c_e^2 - 3 s_o^2 - s_e^2 (M = 4, 5 inexact);
* ``u11v_esop_exact``: star propagators with couplings (1, 0), (0, 1) composed;
* ``u11alpha``: one active qubit, cos(sum_k alpha_k th_k);
* ``rotate_areas``: (a A_odd - b A_even, b A_odd + a A_even);
* ``dark_state``: the complement of a coupling, (-b, a)/|v| for v = (a, b);
* ``dot``, ``negated``: e.f and -e for structural vectors.

``nelder_mead_sequential`` is the optimizer as it ran before the lockstep:
one scipy Nelder-Mead run per restart on a scalar objective, the oracle the
lockstep replay must equal bit for bit.

``cell_fidelity`` is one map cell's fidelity in plain Python arithmetic, in
the summation order that ``fidelity_from_amplitudes`` defines.

``mp_amplitudes`` and ``mp_fidelity`` are the truth the kernel's float64
results are held to: every block's star propagators in the closed form of
``star_propagator``'s docstring, composed in mpmath at 40 digits from the
float inputs taken exactly, and |Tr(T^dag U) / d|^2 of their return
amplitudes against the C-PHASE phases read off the basis labels.

``per_row_csv_text`` is the scan CSV rendering that the vectorized speller
replaced: one ``f"{x:.9g}"`` per value, joined per row.

``jp_protocol`` and ``random_protocol`` are the protocols the tests share:
the pi-2pi-pi protocol, and one draw of random unit vectors and areas.

``padded_map_maxima`` is the whole-grid maxima search that
``map_maxima``'s comparison of the cells above threshold replaced: every
cell against its 8 neighbours in a copy of the map padded with -inf.

The SOP at b = 0 with areas (pi, 2 pi, pi) is the pi-2pi-pi protocol of
Jaksch et al., PRL 85, 2208 (2000).
"""

import functools
import itertools
import math
import operator

import mpmath
import numpy as np

from sopgate.errors import (
    DimensionMismatchError,
    InfeasibleStartError,
    NotNormalizedError,
    SopGateError,
)
from sopgate.fidelity import sop_family
from sopgate.model import Protocol, Pulse, StructuralVector
from sopgate.optimize import (
    DEFAULT_MAX_EVALS,
    DEFAULT_RESTARTS,
    FATOL,
    XATOL,
    OptimizationResult,
    _latin_hypercube,
)
from sopgate.propagator import star_propagator


class UnsupportedPulseCountError(SopGateError):
    """No closed-form expression is available for this pulse count."""


class NoDarkSubspaceError(SopGateError):
    """A dark subspace exists only for nonzero couplings of dimension >= 2."""


class LengthMismatchError(SopGateError):
    """A per-pulse argument does not have one entry per pulse."""


def _coupling_array(coupling) -> np.ndarray:
    """A coupling, StructuralVector or array_like, as a 1-D float array."""
    if isinstance(coupling, StructuralVector):
        return np.asarray(coupling.components, dtype=float)
    return np.atleast_1d(np.asarray(coupling, dtype=float))


def dot(u: StructuralVector, v: StructuralVector) -> float:
    if v.dimension != u.dimension:
        raise DimensionMismatchError("dot product of vectors of unequal dimension")
    return math.fsum(a * b for a, b in zip(u.components, v.components))


def negated(v: StructuralVector) -> StructuralVector:
    return StructuralVector(tuple(-c for c in v.components))


def jp_protocol() -> Protocol:
    """The pi-2pi-pi protocol: the symmetric orthogonal family at b^2 = 0."""
    return sop_family(b2=0.0).protocol(2 * math.pi, 2 * math.pi)


def random_protocol(rng, n_qubits=None, n_pulses=None, max_area=8 * math.pi) -> Protocol:
    """Random unit vectors, each with an area uniform in [-max_area, max_area), drawn from ``rng``.

    A register size not given is drawn first, 2 or 3 qubits, then a pulse
    count not given, 2 to 5; then each pulse's vector and area in turn.
    """
    if n_qubits is None:
        n_qubits = int(rng.integers(2, 4))
    if n_pulses is None:
        n_pulses = int(rng.integers(2, 6))
    pulses = []
    for _ in range(n_pulses):
        v = rng.normal(size=n_qubits)
        v /= np.linalg.norm(v)
        pulses.append(Pulse(float(rng.uniform(-max_area, max_area)), StructuralVector(tuple(v))))
    return Protocol(tuple(pulses), n_qubits)


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
        raise NoDarkSubspaceError("dark subspace of a zero coupling is the whole space")
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
    u_tot = np.eye(3, dtype=complex)
    for k in range(m_pulses):
        u_tot = star_propagator(couplings[k % 2], thetas[k % 2]) @ u_tot
    result = u_tot[..., 0, 0].real
    if result.ndim == 0:
        return float(result)
    return result


def nelder_mead_sequential(
    objective,
    lower,
    upper,
    project=None,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Multistart maximization of a scalar ``objective``, one scipy run per restart.

    Same problem statement as :func:`sopgate.optimize.nelder_mead_constrained`
    for one problem: proposals are clipped to the box and projected, the
    starts are the same Latin-hypercube samples, and the best value is the
    first evaluation that attains the maximum (strict ``>``); where no value
    is a number, it is the first point evaluated.
    """
    from scipy.optimize import minimize

    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower > upper):
        raise InfeasibleStartError("empty parameter box")
    if restarts < 1:
        raise InfeasibleStartError(f"restarts must be at least 1, got {restarts}")
    project = project or (lambda x: x)

    def feasible(x: np.ndarray) -> np.ndarray:
        # The method reaches np.clip's ufunc without np.clip's dispatch, at about half its cost.
        return project(x.clip(lower, upper))

    evaluations = 0
    best_val = -np.inf
    best_x = first_x = None

    def negated(x: np.ndarray) -> float:
        nonlocal evaluations, best_val, best_x, first_x
        xp = feasible(np.asarray(x, dtype=float))
        val = objective(xp)
        evaluations += 1
        if first_x is None:
            first_x = xp.copy()
        if val > best_val:
            best_val = val
            best_x = xp.copy()
        return -val

    rng = np.random.default_rng(seed)
    starts = _latin_hypercube(rng, restarts, lower, upper)
    for x0 in starts:
        minimize(
            negated,
            feasible(x0),
            method="Nelder-Mead",
            options={"xatol": XATOL, "fatol": FATOL, "maxfev": max_evals, "disp": False},
        )
    best_x = first_x if best_x is None else best_x
    return OptimizationResult(
        best_parameters=best_x,
        best_fidelity=objective(best_x),
        evaluations=evaluations,
    )


def cell_fidelity(amplitudes, phases) -> float:
    """|Tr(T^dag U) / d|^2 of one cell's amplitudes, one value at a time.

    The signed amplitudes are added in basis order within each block of four
    basis states, then the blocks in order. Moduli are numpy's complex
    ``abs``, whose last bit can differ from libm ``hypot``; squares are x * x.
    """
    d = len(phases)
    signed = [float(p) * complex(a) for p, a in zip(phases, amplitudes)]
    blocks = [functools.reduce(operator.add, signed[lo : lo + 4]) for lo in range(0, d, 4)]
    overlap = np.complex128(functools.reduce(operator.add, blocks))
    modulus = float(np.abs(overlap / d))
    return modulus * modulus


#: Working precision of the mpmath truth, in decimal digits.
MP_DIGITS = 40


def mp_star_column(coupling, theta, column):
    """Return U @ column for the star propagator U of one block and one pulse, in mpmath.

    U[0, 0] = cos(s theta), U[0, 1 + i] = U[1 + i, 0] = i (v_i / s) sin(s theta)
    and U[1 + i, 1 + j] = delta_ij + (v_i v_j / s^2)(cos(s theta) - 1), with
    s = |v|; a zero coupling is the identity.
    """
    s = mpmath.sqrt(mpmath.fsum(v * v for v in coupling))
    if s == 0:
        return list(column)
    unit = [v / s for v in coupling]
    cos, sin = mpmath.cos(s * theta), mpmath.sin(s * theta)
    dim = len(column)
    matrix = [[cos] + [1j * u * sin for u in unit]]
    for i in range(dim - 1):
        matrix.append([1j * unit[i] * sin] + [(i == j) + unit[i] * unit[j] * (cos - 1) for j in range(dim - 1)])
    return [mpmath.fsum(row[k] * column[k] for k in range(dim)) for row in matrix]


def mp_amplitudes(vectors, thetas, order) -> dict:
    """Return amplitude of every basis label, composed at :data:`MP_DIGITS` digits.

    Pulse p of the sequence has the structural vector ``vectors[order[p]]``
    and the mixing angle ``thetas[order[p]]`` (half its area), floats taken
    exactly. The block of a label couples its ground state to the Rydberg
    states of its |0> qubits, with the vector's components on those qubits.
    """
    n_qubits = len(vectors[0])
    amplitudes = {}
    with mpmath.workdps(MP_DIGITS):
        for bits in itertools.product("01", repeat=n_qubits):
            zeros = [q for q, bit in enumerate(bits) if bit == "0"]
            column = [mpmath.mpc(1)] + [mpmath.mpc(0)] * len(zeros)
            for k in order:
                coupling = [mpmath.mpf(float(vectors[k][q])) for q in zeros]
                column = mp_star_column(coupling, mpmath.mpf(float(thetas[k])), column)
            amplitudes["".join(bits)] = column[0]
    return amplitudes


def mp_fidelity(amplitudes: dict):
    """|Tr(T^dag U) / d|^2 at :data:`MP_DIGITS` digits; T is -1 unless both gate qubits are |1>."""
    with mpmath.workdps(MP_DIGITS):
        overlap = mpmath.fsum(a if label[:2] == "11" else -a for label, a in amplitudes.items())
        return abs(overlap / len(amplitudes)) ** 2


def per_row_csv_text(header: str, rows) -> bytes:
    """The header line, then one line per row with 9 significant digits per value."""
    text = "".join([header + "\n"] + [",".join(f"{x:.9g}" for x in row) + "\n" for row in rows])
    return text.encode()


def padded_map_maxima(fmap, threshold: float) -> np.ndarray:
    """Strict-local-maxima rows (area_odd, area_even, F) of the whole grid, fidelity descending."""
    values = fmap.values
    padded = np.pad(values, 1, constant_values=-np.inf)
    n_rows, n_cols = padded.shape
    mask = values >= threshold
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                mask &= values > padded[1 + di : n_rows - 1 + di, 1 + dj : n_cols - 1 + dj]
    ii, jj = np.nonzero(mask)
    rows = np.column_stack([fmap.axis_odd[ii], fmap.axis_even[jj], values[ii, jj]])
    return rows[np.argsort(-rows[:, 2])]
