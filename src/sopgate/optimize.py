"""Constrained derivative-free optimization of pulse areas and geometrical factors.

Every problem maximizes the trace-sq C-PHASE fidelity by multistart
Nelder-Mead over a box of free parameters. Equality ties (symmetric third
pulse, orthogonality, unit normalization) are built into the parameterization
so every evaluated candidate satisfies them exactly; inequality bounds are
enforced by projecting proposals onto the feasible set. Runs are
deterministic for a given seed.

The search is a lockstep replay of scipy's ``minimize(method="Nelder-Mead")``
(Nelder & Mead, Comput. J. 7, 308 (1965); non-adaptive coefficients): every
restart of every problem, e.g. every point of an area grid, is one simplex,
and all simplices advance together, one stage per step. A step gathers the
candidates of all simplices into one batch objective call. Each simplex makes
exactly the moves, evaluations and ties of its own sequential run, so the
results equal those of one scipy run per restart and problem bit for bit.
Every result holds arrays of the batch shape of its problems, 0-d for one.
The factor optimizers evaluate candidates through the protocol families'
builder, :func:`~sopgate.fidelity.alternating_amplitudes`.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooLargeError, InfeasibleStartError, NotNormalizedError
from .fidelity import (  # noqa: F401  gate_fidelity: see ``__getattr__`` below
    ProtocolFamily,
    alternating_amplitudes,
    fidelity_from_rows,
    gate_fidelity,
)
from .model import (  # noqa: F401  spectator_orthogonal_pair: bench shims
    cphase_signature,
    spectator_orthogonal_pair,
    spectator_orthogonal_rows,
)

DEFAULT_RESTARTS = 16
DEFAULT_MAX_EVALS = 2000

#: Simplex size, in parameter units, below which a restart stops.
XATOL = 1e-6
#: Spread of the simplex's values below which a restart stops (with XATOL).
FATOL = 1e-10

#: Most simplices, (problem, restart) pairs, one lockstep run may hold:
#: 60 times the default optimize grid of 33 x 33 points with 16 restarts.
#: Larger runs are refused before anything is allocated.
MAX_SIMPLICES = 2**20

#: Most objective rows evaluated in one call; bounds the kernel's temporaries.
EVAL_CHUNK_ROWS = 16384

# scipy's non-adaptive coefficients (reflection, expansion, contraction,
# shrink) and the steps of its initial simplex around the start.
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025

# Stages of a simplex: evaluate the initial vertices, then per iteration
# reflect, then expand or contract (outside or inside), then maybe shrink.
_INIT, _REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK, _DONE = range(7)

#: Candidate of each one-point stage: c_bar * centroid + c_worst * worst
#: vertex, with scipy's coefficients (x - y and x + (-y) round alike).
_MOVES = {
    _REFLECT: (1 + RHO, -RHO),
    _EXPAND: (1 + RHO * CHI, -RHO * CHI),
    _OUTSIDE: (1 + PSI * RHO, -PSI * RHO),
    _INSIDE: (1 - PSI, PSI),
}


def __getattr__(name: str):
    # scipy's Nelder-Mead ran each restart before the lockstep replaced it;
    # the name stays importable, and scipy unimported until it is asked
    # for, for the span shims of bench/spans.py.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best point of each problem of a batch of shape ``shape``, () for one problem.

    ``best_fidelity`` and ``evaluations`` are arrays of shape ``shape``, 0-d
    for one problem, and ``best_parameters`` has shape ``shape + (dim,)``.
    """

    best_parameters: np.ndarray
    best_fidelity: np.ndarray
    evaluations: np.ndarray


def _latin_hypercube(rng: np.random.Generator, n: int, lower, upper) -> np.ndarray:
    dim = len(lower)
    out = np.empty((n, dim))
    for j in range(dim):
        strata = rng.permutation(n) + rng.uniform(size=n)
        out[:, j] = lower[j] + (upper[j] - lower[j]) * strata / n
    return out


def check_simplices(n_simplices: int) -> None:
    """Refuse a lockstep run of more than :data:`MAX_SIMPLICES` (problem, restart) pairs."""
    if n_simplices > MAX_SIMPLICES:
        raise GridTooLargeError(
            f"{n_simplices} (point, restart) pairs exceed the limit of {MAX_SIMPLICES}"
        )


def _sort_vertices(sim: np.ndarray, fsim: np.ndarray, mask: np.ndarray) -> None:
    """Order the vertices of the masked simplices by value, with scipy's ``np.argsort``."""
    rows = np.flatnonzero(mask)
    if rows.size:
        order = np.argsort(fsim[rows], axis=1)
        fsim[rows] = fsim[rows[:, None], order]
        sim[rows] = sim[rows[:, None], order]


def nelder_mead_constrained(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lower,
    upper,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_evals: int = DEFAULT_MAX_EVALS,
    shape: tuple[int, ...] = (),
) -> OptimizationResult:
    """Multistart Nelder-Mead maximization over the box [lower, upper], for a batch of problems.

    ``shape`` is the batch shape of the problems, () for one.
    ``objective(x, problem)`` maps rows of parameters ``x``, shape (R, dim),
    to the values to maximize, shape (R,); ``problem`` holds the flat index
    of the problem of each row. A row's value must not depend on the other
    rows.
    The objective is only ever called on feasible points: proposals are
    clipped to the box and then, when ``project`` is given, mapped by it
    onto the feasible set. Every problem starts from the same Latin-hypercube
    samples of the box; each restart runs until its simplex collapses below
    :data:`XATOL` and :data:`FATOL` or until ``max_evals`` evaluations. The
    best value of a problem is the first evaluation, in restart order, that
    attains its maximum. The reported fidelity is the objective re-evaluated
    at the best parameters, so it is reproducible bit-for-bit from the result.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower > upper):
        raise InfeasibleStartError("empty parameter box")
    if restarts < 1:
        raise InfeasibleStartError(f"restarts must be at least 1, got {restarts}")
    if max_evals < 1:
        raise InfeasibleStartError(f"max_evals must be at least 1, got {max_evals}")
    n_problems = math.prod(shape)
    check_simplices(n_problems * restarts)
    project = project or (lambda x: x)

    def feasible(x: np.ndarray) -> np.ndarray:
        return project(np.clip(x, lower, upper))

    def evaluate(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        chunks = [slice(i, i + EVAL_CHUNK_ROWS) for i in range(0, len(x), EVAL_CHUNK_ROWS)]
        parts = [objective(x[chunk], problem[chunk]) for chunk in chunks]
        return np.concatenate(parts) if parts else np.empty(0)

    dim = lower.size
    starts = feasible(_latin_hypercube(np.random.default_rng(seed), restarts, lower, upper))
    # Simplex i is restart i % restarts of problem i // restarts. The working
    # arrays hold the simplices still running, ``ids`` their numbers; the
    # results of finished ones go to the ``final_*`` arrays.
    n = n_problems * restarts
    final_val = np.full(n, -np.inf)
    final_x = np.zeros((n, dim))
    final_calls = np.zeros(n, dtype=int)
    ids = np.arange(n)
    sim = np.repeat(np.tile(starts, (n_problems, 1))[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + NONZDELT) * y, ZDELT)
    fsim = np.full((n, dim + 1), np.inf)  # negated values, as scipy minimizes
    stage = np.full(n, _INIT)
    fcalls = np.zeros(n, dtype=int)
    xbar = np.zeros((n, dim))
    xr = np.zeros((n, dim))
    fxr = np.zeros(n)
    best_val = np.full(n, -np.inf)
    best_x = np.zeros((n, dim))
    coef_bar = np.zeros(_DONE + 1)
    coef_worst = np.zeros(_DONE + 1)
    for move, (c_bar, c_worst) in _MOVES.items():
        coef_bar[move], coef_worst[move] = c_bar, c_worst
    # Vertex slots a stage evaluates: first slot and count.
    first = np.zeros(_DONE + 1, dtype=int)
    count = np.ones(_DONE + 1, dtype=int)
    count[_INIT], first[_SHRINK], count[_SHRINK], count[_DONE] = dim + 1, 1, dim, 0
    slots = np.arange(dim + 1)

    while True:
        ready = np.flatnonzero(stage == _REFLECT)
        x_spread = np.abs(sim[ready, 1:] - sim[ready, :1]).max(axis=(1, 2))
        f_spread = np.abs(fsim[ready, :1] - fsim[ready, 1:]).max(axis=1)
        stage[ready[(x_spread <= XATOL) & (f_spread <= FATOL)]] = _DONE
        running = stage != _DONE
        if not running.any() or running.sum() < 0.75 * running.size:
            # Retire the finished simplices once a quarter of them is done.
            done = ~running
            final_val[ids[done]], final_x[ids[done]], final_calls[ids[done]] = (
                best_val[done], best_x[done], fcalls[done]
            )
            if not running.any():
                break
            ids, sim, fsim, stage, fcalls, xbar, xr, fxr, best_val, best_x = (
                a[running] for a in (ids, sim, fsim, stage, fcalls, xbar, xr, fxr, best_val, best_x)
            )
        old = stage.copy()
        reflect = old == _REFLECT
        xbar[reflect] = np.add.reduce(sim[reflect, :-1], 1) / dim
        worst = sim[:, -1]
        proposal = sim.copy()
        move = (old >= _REFLECT) & (old <= _INSIDE)
        c_bar, c_worst = coef_bar[old[move], None], coef_worst[old[move], None]
        proposal[move, 0] = c_bar * xbar[move] + c_worst * worst[move]
        shrinking = old == _SHRINK
        best_vertex = sim[shrinking, :1]
        proposal[shrinking, 1:] = best_vertex + SIGMA * (sim[shrinking, 1:] - best_vertex)
        budget = np.minimum(count[old], max_evals - fcalls)
        take = (slots >= first[old, None]) & (slots < (first[old] + budget)[:, None])
        x = feasible(proposal[take])
        vals = evaluate(x, np.broadcast_to(ids[:, None] // restarts, take.shape)[take])
        fcalls += budget

        value = np.full(take.shape, -np.inf)
        value[take] = vals
        points = np.zeros(proposal.shape)
        points[take] = x
        # The first of a simplex's evaluations that beats its best so far.
        j = np.argmax(value, axis=1)
        better = value[np.arange(len(j)), j] > best_val
        best_val[better] = value[better, j[better]]
        best_x[better] = points[better, j[better]]

        f = -value  # untaken initial vertices stay at +inf, as in scipy
        fnew = f[:, 0]
        new = proposal[:, 0]
        init = old == _INIT
        fsim[init] = f[init]
        _sort_vertices(sim, fsim, init)
        _sort_vertices(sim, fsim, init)  # scipy sorts the initial simplex twice
        # Reflection: expand, accept, or contract outside or inside.
        xr[reflect], fxr[reflect] = new[reflect], fnew[reflect]
        expand = reflect & (fnew < fsim[:, 0])
        accept = reflect & ~expand & (fnew < fsim[:, -2])
        outside = reflect & ~expand & ~accept & (fnew < fsim[:, -1])
        inside = reflect & ~expand & ~accept & ~outside
        expanded = old == _EXPAND
        keep_xe = expanded & (fnew < fxr)
        contracted = ((old == _OUTSIDE) & (fnew <= fxr)) | ((old == _INSIDE) & (fnew < fsim[:, -1]))
        shrink = ((old == _OUTSIDE) | (old == _INSIDE)) & ~contracted

        replace_worst = accept | keep_xe | contracted
        sim[replace_worst, -1] = new[replace_worst]
        fsim[replace_worst, -1] = fnew[replace_worst]
        keep_xr = expanded & ~keep_xe
        sim[keep_xr, -1] = xr[keep_xr]
        fsim[keep_xr, -1] = fxr[keep_xr]
        sim[shrinking, 1:] = proposal[shrinking, 1:]
        fsim[shrinking, 1:] = f[shrinking, 1:]
        iterated = accept | expanded | contracted | shrinking
        _sort_vertices(sim, fsim, iterated)

        stage[init | iterated] = _REFLECT
        stage[expand] = _EXPAND
        stage[outside] = _OUTSIDE
        stage[inside] = _INSIDE
        stage[shrink] = _SHRINK
        stage[fcalls >= max_evals] = _DONE

    # Per problem, the first restart that attains the best value.
    k = np.argmax(final_val.reshape(n_problems, restarts), axis=1)
    best = final_x.reshape(n_problems, restarts, dim)[np.arange(n_problems), k]
    fidelity = evaluate(best, np.arange(n_problems))
    evaluations = final_calls.reshape(n_problems, restarts).sum(axis=1)
    return OptimizationResult(
        best.reshape(shape + (dim,)), fidelity.reshape(shape), evaluations.reshape(shape)
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

    def objective(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        return fidelity_from_rows(family.amplitudes(x[:, 0], x[:, 1]), target)

    lower, upper = zip(*bounds)
    return nelder_mead_constrained(objective, lower, upper, seed=seed, restarts=restarts)


def _optimize_pulse_vectors(areas, vectors, lower, upper, project, seed, restarts):
    """Best symmetric three-pulse protocol at each area pair of ``areas``, shape (..., 2).

    ``vectors(x)`` gives the odd and even pulse vectors, shape (R, 3), of parameter rows ``x``.
    """
    areas = np.asarray(areas, dtype=float)
    pairs = areas.reshape(-1, 2)
    target = cphase_signature(3)

    def objective(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        amplitudes = alternating_amplitudes(*vectors(x), pairs[problem, 0], pairs[problem, 1])
        return fidelity_from_rows(amplitudes, target)

    return nelder_mead_constrained(
        objective, lower, upper, project, seed=seed, restarts=restarts, shape=areas.shape[:-1]
    )


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
    if not 0.0 <= min_sq <= r2 / 2:
        raise InfeasibleStartError(
            f"min_sq = {min_sq} infeasible: both factors need min_sq <= (1 - c^2)/2 = {r2 / 2}"
        )
    radius = math.sqrt(r2)
    q = math.sqrt(min_sq) / radius
    return radius, math.asin(q), math.acos(q)


def optimize_third_qubit(
    areas,
    b: float,
    min_c2: float = 0.1,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> OptimizationResult:
    """Best fidelity over the spectator factors of a symmetric orthogonal protocol.

    ``areas`` is one (odd, even) pair of total areas in radians, or an array
    of them, shape (..., 2), all optimized in one lockstep run. The
    gate-qubit overlap ``b`` is held fixed; the free parameters are the
    spectator factors of the odd pulses (c3 = c1 by symmetry) and of the even
    pulse, each bounded by c_k^2 >= ``min_c2`` (sign free) and c_k^2 <= 0.5
    so that an orthogonal partner always exists. Orthogonality, symmetry and
    normalization hold exactly at every evaluated point.
    """
    c_lo, c_hi = spectator_bounds(b, min_c2)

    def project(x: np.ndarray) -> np.ndarray:
        signs = np.where(x < 0, -1.0, 1.0)
        return signs * np.clip(np.abs(x), c_lo, c_hi)

    def vectors(x: np.ndarray):
        return spectator_orthogonal_rows(b, x[:, 0], x[:, 1])

    return _optimize_pulse_vectors(
        areas, vectors, [-c_hi, -c_hi], [c_hi, c_hi], project, seed, restarts
    )


def optimize_all_factors(
    areas,
    c_fixed: float,
    min_sq: float = 0.1,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> OptimizationResult:
    """Best fidelity over the gate-qubit factors of both pulses of a symmetric protocol.

    ``areas`` is one (odd, even) pair of total areas in radians, or an array
    of them, shape (..., 2), all optimized in one lockstep run. The
    spectator factor is frozen at ``c_fixed`` and the third pulse is tied
    to the first; orthogonality is *not* imposed. Each pulse's gate-qubit
    pair is parameterized on its normalization circle,
    (a_k, b_k) = r (cos phi_k, sin phi_k) with r^2 = 1 - c_fixed^2, and
    proposals are projected onto the arcs where both a_k^2 and b_k^2 stay
    >= ``min_sq``.
    """
    radius, phi_lo, phi_hi = gate_factor_arc(c_fixed, min_sq)

    def project(x: np.ndarray) -> np.ndarray:
        # Feasible directions satisfy (phi mod pi/2) in [phi_lo, phi_hi].
        base = np.mod(x, 2.0 * math.pi)
        frac = np.mod(base, 0.5 * math.pi)
        return base - frac + np.clip(frac, phi_lo, phi_hi)

    def vectors(x: np.ndarray):
        c = np.full(x.shape, c_fixed)
        rows = np.stack([radius * np.cos(x), radius * np.sin(x), c], axis=-1)
        return rows[:, 0], rows[:, 1]

    return _optimize_pulse_vectors(
        areas, vectors, [0.0, 0.0], [2.0 * math.pi] * 2, project, seed, restarts
    )
