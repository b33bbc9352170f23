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

The SOP at b = 0 with areas (pi, 2 pi, pi) is the pi-2pi-pi protocol of
Jaksch et al., PRL 85, 2208 (2000).
"""

import math

import numpy as np

from sopgate.errors import (
    DimensionMismatchError,
    InfeasibleStartError,
    NotNormalizedError,
    SopGateError,
    ZeroVectorError,
)
from sopgate.model import Protocol, StructuralVector
from sopgate.optimize import (
    DEFAULT_MAX_EVALS,
    DEFAULT_RESTARTS,
    FATOL,
    XATOL,
    OptimizationResult,
    _latin_hypercube,
)
from sopgate.propagator import _coupling_array, block_amplitudes


class UnsupportedPulseCountError(SopGateError):
    """No closed-form expression is available for this pulse count."""


class NoDarkSubspaceError(SopGateError):
    """A dark subspace exists only for couplings of dimension >= 2."""


class LengthMismatchError(SopGateError):
    """A per-pulse argument does not have one entry per pulse."""


def dot(u: StructuralVector, v: StructuralVector) -> float:
    if v.dimension != u.dimension:
        raise DimensionMismatchError("dot product of vectors of unequal dimension")
    return math.fsum(a * b for a, b in zip(u.components, v.components))


def negated(v: StructuralVector) -> StructuralVector:
    return StructuralVector(tuple(-c for c in v.components))


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
    first evaluation that attains the maximum (strict ``>``).
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
        return project(np.clip(x, lower, upper))

    evaluations = 0
    best_val = -np.inf
    best_x = None

    def negated(x: np.ndarray) -> float:
        nonlocal evaluations, best_val, best_x
        xp = feasible(np.asarray(x, dtype=float))
        val = objective(xp)
        evaluations += 1
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
    assert best_x is not None
    return OptimizationResult(
        best_parameters=best_x,
        best_fidelity=objective(best_x),
        evaluations=evaluations,
    )
