"""Constrained derivative-free optimization of pulse areas and geometrical factors.

Every problem maximizes the trace-sq C-PHASE fidelity by multistart
Nelder-Mead over a box of free parameters. Equality ties (symmetric third
pulse, orthogonality, unit normalization) are built into the parameterization
so every evaluated candidate satisfies them exactly; inequality bounds are
enforced by projecting proposals onto the feasible set. Runs are
deterministic for a given seed.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasibleStartError, NotNormalizedError
from .fidelity import ProtocolFamily, gate_fidelity
from .model import Protocol, StructuralVector, cphase_signature, spectator_orthogonal_pair

DEFAULT_RESTARTS = 16
DEFAULT_MAX_EVALS = 2000

#: Simplex size, in parameter units, below which a restart stops.
XATOL = 1e-6


@dataclass(frozen=True)
class OptimizationResult:
    best_parameters: np.ndarray
    best_fidelity: float
    evaluations: int
    best_protocol: Protocol | None = None


def _latin_hypercube(rng: np.random.Generator, n: int, lower, upper) -> np.ndarray:
    dim = len(lower)
    out = np.empty((n, dim))
    for j in range(dim):
        strata = rng.permutation(n) + rng.uniform(size=n)
        out[:, j] = lower[j] + (upper[j] - lower[j]) * strata / n
    return out


def nelder_mead_constrained(
    objective: Callable[[np.ndarray], float],
    lower,
    upper,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Multistart Nelder-Mead maximization of ``objective`` over the box [lower, upper].

    ``objective`` maps a parameter vector to a value in [0, 1] and is only
    ever called on feasible points: proposals are clipped to the box and
    then, when ``project`` is given, mapped by it onto the feasible set.
    Starts are Latin-hypercube samples of the box; each restart runs until
    the simplex collapses below :data:`XATOL` or ``max_evals`` evaluations.
    The reported fidelity is the objective re-evaluated at the best
    parameters, so it is reproducible bit-for-bit from the result.
    """
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
    best_x: np.ndarray | None = None

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
            options={"xatol": XATOL, "fatol": 1e-10, "maxfev": max_evals, "disp": False},
        )
    assert best_x is not None
    return OptimizationResult(
        best_parameters=best_x,
        best_fidelity=objective(best_x),
        evaluations=evaluations,
    )


def optimize_areas(
    family: ProtocolFamily,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> OptimizationResult:
    """Maximize fidelity over total (odd, even) areas in the box ``bounds`` (radians).

    ``bounds`` is ((odd_lo, odd_hi), (even_lo, even_hi)).
    """
    target = cphase_signature(family.n_qubits)

    def objective(x: np.ndarray) -> float:
        return gate_fidelity(family.protocol(x[0], x[1]), target)

    lower, upper = zip(*bounds)
    result = nelder_mead_constrained(objective, lower, upper, seed=seed, restarts=restarts)
    protocol = family.protocol(result.best_parameters[0], result.best_parameters[1])
    return replace(result, best_protocol=protocol)


def spectator_bounds(b: float, min_c2: float) -> tuple[float, float]:
    """Range (c_lo, c_hi) of |c| that :func:`optimize_third_qubit` searches; refuses an empty one."""
    if not 0.0 <= min_c2 <= 0.5:
        raise InfeasibleStartError(f"min_c2 = {min_c2} outside [0, 0.5]")
    if b * b + min_c2 > 1.0:
        raise InfeasibleStartError("b^2 + min_c2 exceeds 1: no feasible spectator factor")
    return math.sqrt(min_c2), math.sqrt(min(0.5, 1.0 - b * b - 1e-12))


def gate_factor_arc(c_fixed: float, min_sq: float) -> tuple[float, float, float]:
    """Radius and arc (r, phi_lo, phi_hi) that :func:`optimize_all_factors` searches; refuses an empty arc."""
    r2 = 1.0 - c_fixed * c_fixed
    if r2 <= 0.0:
        raise NotNormalizedError("c_fixed leaves no weight for the gate qubits")
    if min_sq < 0.0 or 2.0 * min_sq > r2:
        raise InfeasibleStartError(
            f"min_sq = {min_sq} infeasible: both factors need min_sq <= (1 - c^2)/2 = {r2 / 2}"
        )
    radius = math.sqrt(r2)
    q = math.sqrt(min_sq) / radius
    return radius, math.asin(q), math.acos(q)


def optimize_third_qubit(
    areas: tuple[float, float],
    b: float,
    min_c2: float = 0.1,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> OptimizationResult:
    """Best fidelity over the spectator factors of a symmetric orthogonal protocol.

    The gate-qubit overlap ``b`` is held fixed; the free parameters are the
    spectator factors of the odd pulses (c3 = c1 by symmetry) and of the even
    pulse, each bounded by c_k^2 >= ``min_c2`` (sign free) and c_k^2 <= 0.5
    so that an orthogonal partner always exists. Orthogonality, symmetry and
    normalization hold exactly at every evaluated point.
    """
    c_lo, c_hi = spectator_bounds(b, min_c2)
    target = cphase_signature(3)

    def project(x: np.ndarray) -> np.ndarray:
        signs = np.where(x < 0, -1.0, 1.0)
        return signs * np.clip(np.abs(x), c_lo, c_hi)

    def family(x: np.ndarray) -> ProtocolFamily:
        return ProtocolFamily(*spectator_orthogonal_pair(b, x[0], x[1]))

    def objective(x: np.ndarray) -> float:
        return gate_fidelity(family(x).protocol(*areas), target)

    result = nelder_mead_constrained(
        objective, [-c_hi, -c_hi], [c_hi, c_hi], project, seed=seed, restarts=restarts
    )
    return replace(result, best_protocol=family(result.best_parameters).protocol(*areas))


def optimize_all_factors(
    areas: tuple[float, float],
    c_fixed: float,
    min_sq: float = 0.1,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> OptimizationResult:
    """Best fidelity over the gate-qubit factors of both pulses of a symmetric protocol.

    The spectator factor is frozen at ``c_fixed`` and the third pulse is tied
    to the first; orthogonality is *not* imposed. Each pulse's gate-qubit
    pair is parameterized on its normalization circle,
    (a_k, b_k) = r (cos phi_k, sin phi_k) with r^2 = 1 - c_fixed^2, and
    proposals are projected onto the arcs where both a_k^2 and b_k^2 stay
    >= ``min_sq``.
    """
    radius, phi_lo, phi_hi = gate_factor_arc(c_fixed, min_sq)
    target = cphase_signature(3)

    def project(x: np.ndarray) -> np.ndarray:
        # Feasible directions satisfy (phi mod pi/2) in [phi_lo, phi_hi].
        base = np.mod(x, 2.0 * math.pi)
        frac = np.mod(base, 0.5 * math.pi)
        return base - frac + np.clip(frac, phi_lo, phi_hi)

    def family(x: np.ndarray) -> ProtocolFamily:
        e_odd, e_even = (
            StructuralVector((radius * math.cos(phi), radius * math.sin(phi), c_fixed)) for phi in x
        )
        return ProtocolFamily(e_odd, e_even)

    def objective(x: np.ndarray) -> float:
        return gate_fidelity(family(x).protocol(*areas), target)

    result = nelder_mead_constrained(
        objective, [0.0, 0.0], [2.0 * math.pi] * 2, project, seed=seed, restarts=restarts
    )
    return replace(result, best_protocol=family(result.best_parameters).protocol(*areas))
