"""Constrained derivative-free optimization of pulse areas and geometrical factors.

All problems are solved with multistart Nelder-Mead over a box of free
parameters. Equality ties (symmetric third pulse, orthogonality, unit
normalization) are built into the parameterization so every evaluated
candidate satisfies them exactly; inequality bounds are enforced by
projecting proposals onto the feasible set before evaluation. Runs are
deterministic for a given seed.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasibleStartError, NotNormalizedError
from .fidelity import ProtocolFamily, gate_fidelity
from .model import (
    GateSignature,
    Protocol,
    StructuralVector,
    cphase_signature,
    spectator_orthogonal_pair,
)

DEFAULT_RESTARTS = 16
DEFAULT_MAX_EVALS = 2000
DEFAULT_XATOL = 1e-6


@dataclass(frozen=True)
class OptimizationProblem:
    """Box-bounded maximization problem over named parameters.

    ``objective`` maps a parameter vector to a value in [0, 1] and is only
    ever called on projected (feasible) points. ``project``, when given, maps
    an arbitrary proposal onto the feasible set; the default is clipping to
    the box.
    """

    parameter_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    objective: Callable[[np.ndarray], float]
    project: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class OptimizationResult:
    best_parameters: np.ndarray
    best_fidelity: float
    evaluations: int
    restarts_used: int
    best_protocol: Protocol | None = None


def _latin_hypercube(rng: np.random.Generator, n: int, lower, upper) -> np.ndarray:
    dim = len(lower)
    out = np.empty((n, dim))
    for j in range(dim):
        strata = rng.permutation(n) + rng.uniform(size=n)
        out[:, j] = lower[j] + (upper[j] - lower[j]) * strata / n
    return out


def nelder_mead_constrained(
    problem: OptimizationProblem,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
    xatol: float = DEFAULT_XATOL,
) -> OptimizationResult:
    """Multistart Nelder-Mead maximization with projection onto the box.

    Starts are Latin-hypercube samples of the box; each restart runs until
    the simplex collapses below ``xatol`` or ``max_evals`` evaluations. The
    reported fidelity is the objective re-evaluated at the best parameters,
    so it is reproducible bit-for-bit from the result.
    """
    lower = np.asarray(problem.lower, dtype=float)
    upper = np.asarray(problem.upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower > upper):
        raise InfeasibleStartError("empty parameter box")
    if restarts < 1:
        raise InfeasibleStartError(f"restarts must be at least 1, got {restarts}")
    project = problem.project or (lambda x: x)

    def feasible(x: np.ndarray) -> np.ndarray:
        return project(np.clip(x, lower, upper))

    evaluations = 0
    best_val = -np.inf
    best_x: np.ndarray | None = None

    def negated(x: np.ndarray) -> float:
        nonlocal evaluations, best_val, best_x
        xp = feasible(np.asarray(x, dtype=float))
        val = problem.objective(xp)
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
            options={"xatol": xatol, "fatol": 1e-10, "maxfev": max_evals, "disp": False},
        )
    assert best_x is not None
    return OptimizationResult(
        best_parameters=best_x,
        best_fidelity=problem.objective(best_x),
        evaluations=evaluations,
        restarts_used=restarts,
    )


def optimize_areas(
    family: ProtocolFamily,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    target: GateSignature | None = None,
    definition: str = "trace-sq",
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Maximize fidelity over total (odd, even) areas within a box (radians)."""
    if target is None:
        target = cphase_signature(family.n_qubits)

    def objective(x: np.ndarray) -> float:
        return gate_fidelity(family.protocol(x[0], x[1]), target, definition)

    problem = OptimizationProblem(
        parameter_names=("area_odd", "area_even"),
        lower=np.array([bounds[0][0], bounds[1][0]]),
        upper=np.array([bounds[0][1], bounds[1][1]]),
        objective=objective,
    )
    result = nelder_mead_constrained(problem, seed=seed, restarts=restarts, max_evals=max_evals)
    protocol = family.protocol(result.best_parameters[0], result.best_parameters[1])
    return replace(result, best_protocol=protocol)


def refine_map_maximum(
    family: ProtocolFamily,
    area_seed: tuple[float, float],
    halfwidth: float = 0.25 * math.pi,
    target: GateSignature | None = None,
    definition: str = "trace-sq",
    seed: int = 0,
    restarts: int = 4,
) -> OptimizationResult:
    """Polish a grid maximum by Nelder-Mead within a small box around it."""
    bounds = (
        (area_seed[0] - halfwidth, area_seed[0] + halfwidth),
        (area_seed[1] - halfwidth, area_seed[1] + halfwidth),
    )
    return optimize_areas(
        family, bounds, target=target, definition=definition, seed=seed, restarts=restarts
    )


def optimize_third_qubit(
    areas: tuple[float, float],
    b: float,
    min_c2: float = 0.1,
    target: GateSignature | None = None,
    definition: str = "trace-sq",
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Best fidelity over the spectator factors of a symmetric orthogonal protocol.

    The gate-qubit overlap ``b`` is held fixed; the free parameters are the
    spectator factors of the odd pulses (c3 = c1 by symmetry) and of the even
    pulse, each bounded by c_k^2 >= ``min_c2`` (sign free) and c_k^2 <= 0.5
    so that an orthogonal partner always exists. Orthogonality, symmetry and
    normalization hold exactly at every evaluated point.
    """
    if not 0.0 <= min_c2 <= 0.5:
        raise InfeasibleStartError(f"min_c2 = {min_c2} outside [0, 0.5]")
    if b * b + min_c2 > 1.0:
        raise InfeasibleStartError("b^2 + min_c2 exceeds 1: no feasible spectator factor")
    c_hi = math.sqrt(min(0.5, 1.0 - b * b - 1e-12))
    c_lo = math.sqrt(min_c2)
    if target is None:
        target = cphase_signature(3)

    def project(x: np.ndarray) -> np.ndarray:
        signs = np.where(x < 0, -1.0, 1.0)
        return signs * np.clip(np.abs(x), c_lo, c_hi)

    def family(x: np.ndarray) -> ProtocolFamily:
        return ProtocolFamily(*spectator_orthogonal_pair(b, x[0], x[1]))

    def objective(x: np.ndarray) -> float:
        return gate_fidelity(family(x).protocol(*areas), target, definition)

    problem = OptimizationProblem(
        parameter_names=("c_odd", "c_even"),
        lower=np.array([-c_hi, -c_hi]),
        upper=np.array([c_hi, c_hi]),
        objective=objective,
        project=project,
    )
    result = nelder_mead_constrained(problem, seed=seed, restarts=restarts, max_evals=max_evals)
    return replace(result, best_protocol=family(result.best_parameters).protocol(*areas))


def optimize_all_factors(
    areas: tuple[float, float],
    c_fixed: float,
    min_sq: float = 0.1,
    target: GateSignature | None = None,
    definition: str = "trace-sq",
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Best fidelity over the gate-qubit factors of both pulses of a symmetric protocol.

    The spectator factor is frozen at ``c_fixed`` and the third pulse is tied
    to the first; orthogonality is *not* imposed. Each pulse's gate-qubit
    pair is parameterized on its normalization circle,
    (a_k, b_k) = r (cos phi_k, sin phi_k) with r^2 = 1 - c_fixed^2, and
    proposals are projected onto the arcs where both a_k^2 and b_k^2 stay
    >= ``min_sq``.
    """
    r2 = 1.0 - c_fixed * c_fixed
    if r2 <= 0.0:
        raise NotNormalizedError("c_fixed leaves no weight for the gate qubits")
    if min_sq < 0.0 or 2.0 * min_sq > r2:
        raise InfeasibleStartError(
            f"min_sq = {min_sq} infeasible: both factors need min_sq <= (1 - c^2)/2 = {r2 / 2}"
        )
    radius = math.sqrt(r2)
    q = math.sqrt(min_sq) / radius
    phi_lo = math.asin(q)
    phi_hi = math.acos(q)
    if target is None:
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
        return gate_fidelity(family(x).protocol(*areas), target, definition)

    problem = OptimizationProblem(
        parameter_names=("phi_odd", "phi_even"),
        lower=np.zeros(2),
        upper=np.full(2, 2.0 * math.pi),
        objective=objective,
        project=project,
    )
    result = nelder_mead_constrained(problem, seed=seed, restarts=restarts, max_evals=max_evals)
    return replace(result, best_protocol=family(result.best_parameters).protocol(*areas))
