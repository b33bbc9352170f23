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
A simplex's whole state is one array, one row per point (its coordinates,
then its negated value): the dim + 1 vertices, the stage's candidate, the
reflected point and the best point so far. So a sort, a replacement of the
worst vertex, a shrink and a retirement are each one gather or one
assignment, and the next stage is read from a table by stage and comparisons.
Every result holds arrays of the batch shape of its problems, 0-d for one.
Every optimizer evaluates candidates through
:func:`~sopgate.fidelity.alternating_amplitudes`, the one layout of the
families' pulses, which reduces each chunk of the kernel to fidelities by
:func:`~sopgate.fidelity.fidelity_from_rows`.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyGridError, GridTooLargeError, InfeasibleStartError, NotNormalizedError
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

# scipy's non-adaptive coefficients (reflection, expansion, contraction,
# shrink) and the steps of its initial simplex around the start.
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025

# Stages of a simplex: evaluate the initial vertices, then per iteration
# reflect, then expand or contract (outside or inside), then maybe shrink.
_INIT, _REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK, _DONE = range(7)

#: Candidate of each one-point stage: c_bar * centroid + c_worst * worst vertex, with
#: scipy's coefficients (x - y and x + (-y) round alike); other stages' go unused.
_MOVES = np.zeros((_DONE + 1, 2))
_MOVES[_REFLECT], _MOVES[_EXPAND] = (1 + RHO, -RHO), (1 + RHO * CHI, -RHO * CHI)
_MOVES[_OUTSIDE], _MOVES[_INSIDE] = (1 + PSI * RHO, -PSI * RHO), (1 - PSI, PSI)


def _stage_table() -> tuple[np.ndarray, np.ndarray]:
    """Next stage, and what replaces the worst vertex, per stage and comparison code.

    The code's bits compare the negated value f of a one-point stage's candidate with
    the simplex's: 1 f < best, 2 f < second worst, 4 f < worst, 8 f < f(reflected
    point), 16 f <= f(reflected point). In the second table, 1 puts the candidate
    in the worst vertex's place and 2 the reflected point.
    """
    below_best, below_second, below_worst, below_xr, upto_xr = (
        (np.arange(32) >> bit) & 1 == 1 for bit in range(5)
    )
    after = np.full((_DONE + 1, 32), _REFLECT)
    after[_REFLECT] = np.select(
        [below_best, below_second, below_worst], [_EXPAND, _REFLECT, _OUTSIDE], _INSIDE
    )
    after[_OUTSIDE] = np.where(upto_xr, _REFLECT, _SHRINK)
    after[_INSIDE] = np.where(below_worst, _REFLECT, _SHRINK)
    after[_DONE] = _DONE
    worst = np.zeros((_DONE + 1, 32), dtype=int)
    worst[_REFLECT] = ~below_best & below_second
    worst[_EXPAND] = np.where(below_xr, 1, 2)
    worst[_OUTSIDE], worst[_INSIDE] = upto_xr, below_worst
    return after, worst


_AFTER, _WORST = _stage_table()


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


def _latin_hypercube(rng: "np.random.Generator", n: int, lower, upper) -> np.ndarray:
    dim = len(lower)
    out = np.empty((n, dim))
    for j in range(dim):
        strata = rng.permutation(n) + rng.uniform(size=n)
        out[:, j] = lower[j] + (upper[j] - lower[j]) * strata / n
    return out


def _sort_vertices(state: np.ndarray, rows: np.ndarray) -> None:
    """Order the vertices of the simplices ``rows`` by value, with scipy's ``np.argsort``."""
    if rows.size:
        dim = state.shape[-1] - 1
        order = np.argsort(state[rows, : dim + 1, dim], axis=1)
        state[rows, : dim + 1] = state[rows[:, None], order]


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
    A box that is empty or not finite raises :class:`InfeasibleStartError`.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower > upper) or not np.isfinite([lower, upper]).all():
        raise InfeasibleStartError("parameter box is empty or not finite")
    if restarts < 1:
        raise InfeasibleStartError(f"restarts must be at least 1, got {restarts}")
    if max_evals < 1:
        raise InfeasibleStartError(f"max_evals must be at least 1, got {max_evals}")
    n_problems = math.prod(shape)
    n = n_problems * restarts
    if n > MAX_SIMPLICES:
        raise GridTooLargeError(f"{n} (point, restart) pairs exceed the limit of {MAX_SIMPLICES}")
    project = project or (lambda x: x)

    def feasible(x: np.ndarray) -> np.ndarray:
        return project(np.clip(x, lower, upper))

    dim = lower.size
    starts = feasible(_latin_hypercube(np.random.default_rng(seed), restarts, lower, upper))
    # Simplex i is restart i % restarts of problem i // restarts. Its whole
    # state is one array of points, each its dim coordinates followed by its
    # negated value (scipy minimizes), +inf until evaluated: the dim + 1
    # vertices, then the stage's candidate, the reflected point and the best
    # evaluated point so far. The working arrays hold the simplices still
    # running, ``ids`` their numbers; the best points of finished ones go to
    # ``final``.
    cand, xr, top = range(dim + 1, dim + 4)
    state = np.full((n, dim + 4, dim + 1), np.inf)
    state[:, : dim + 1, :dim] = np.tile(starts, (n_problems, 1))[:, None, :]
    for k in range(dim):
        y = state[:, k + 1, k]
        state[:, k + 1, k] = np.where(y != 0, (1 + NONZDELT) * y, ZDELT)
    state[:, top, :dim] = 0.0
    final = state[:, top].copy()
    final_calls = np.zeros(n, dtype=int)
    ids = every = np.arange(n)
    stage = np.full(n, _INIT)
    left = np.full(n, max_evals)  # evaluations left
    # Per stage, the rank of each point among those it evaluates, or
    # max_evals for a point it skips; a simplex evaluates the ranks below ``left``.
    slots = np.arange(dim + 1)
    rank = np.full((_DONE + 1, dim + 2), max_evals)
    rank[_INIT, :-1], rank[_REFLECT:_SHRINK, cand], rank[_SHRINK, 1:-1] = slots, 0, slots[:-1]
    # What replaces the worst vertex (_WORST): itself, the candidate or the reflected point.
    replacement = np.array([dim, cand, xr])
    compared, bits = np.array([0, dim - 1, dim, xr]), np.array([1, 2, 4, 8])
    tolerance = np.array([XATOL] * dim + [FATOL])

    initial = True
    while True:
        ready = np.nonzero(stage == _REFLECT)[0]
        vertices = state[ready, : dim + 1]
        spread = np.abs(vertices[:, 1:] - vertices[:, :1])
        stage[ready[(spread <= tolerance).all(axis=(1, 2))]] = _DONE
        running = stage != _DONE
        n_running = np.count_nonzero(running)
        if n_running <= 0.75 * running.size:
            # Retire the finished simplices once a quarter of them is done.
            done = ~running
            final[ids[done]], final_calls[ids[done]] = state[done, top], max_evals - left[done]
            if not n_running:
                break
            ids, state, stage, left = ids[running], state[running], stage[running], left[running]
            every = np.arange(n_running)
        # The centroid stays put from a reflection to its expansion or contraction.
        xbar = np.add.reduce(state[:, :dim, :dim], 1) / dim
        c = _MOVES[stage]
        state[:, cand, :dim] = c[:, :1] * xbar + c[:, 1:] * state[:, dim, :dim]
        shrinking = stage == _SHRINK
        if shrinking.any():
            best_vertex = state[shrinking, :1, :dim]
            shrunk = best_vertex + SIGMA * (state[shrinking, 1 : dim + 1, :dim] - best_vertex)
            state[shrinking, 1 : dim + 1, :dim] = shrunk
        take = rank[stage] < left[:, None]
        rows, slot = np.nonzero(take)
        x = feasible(state[rows, slot, :dim])
        state[rows, slot, dim] = f = -objective(x, ids[rows] // restarts)
        left -= take.sum(axis=1)

        # The first of a simplex's evaluations that beats its best so far.
        scored = np.full(state.shape, np.inf)
        scored[rows, slot, :dim], scored[rows, slot, dim] = x, f
        first = scored[every, scored[..., dim].argmin(axis=1)]
        better = first[:, dim] < state[:, top, dim]
        state[better, top] = first[better]

        # A one-point stage's candidate decides what follows (_stage_table).
        fnew = state[:, cand, dim, None]
        code = (fnew < state[:, compared, dim]) @ bits + 16 * (fnew[:, 0] <= state[:, xr, dim])
        after = _AFTER[stage, code]
        reflect = stage == _REFLECT
        state[reflect, xr] = state[reflect, cand]
        state[:, dim] = state[every, replacement[_WORST[stage, code]]]
        if initial:  # every simplex evaluated its initial vertices; scipy sorts them twice
            _sort_vertices(state, every)
            initial = False
        _sort_vertices(state, np.nonzero(after == _REFLECT)[0])
        stage = np.where(left > 0, after, _DONE)

    # Per problem, the first restart that attains the best value.
    k = np.argmin(final[:, dim].reshape(n_problems, restarts), axis=1)
    best = final[:, :dim].reshape(n_problems, restarts, dim)[np.arange(n_problems), k]
    fidelity = objective(best, np.arange(n_problems))
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
    vectors = (family.vector_odd.components, family.vector_even.components)
    fidelities = functools.partial(fidelity_from_rows, target=cphase_signature(family.n_qubits))

    def objective(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        return alternating_amplitudes(*vectors, x[:, 0], x[:, 1], family.m_pulses, fidelities)

    lower, upper = zip(*bounds)
    return nelder_mead_constrained(objective, lower, upper, seed=seed, restarts=restarts)


def _optimize_pulse_vectors(areas, vectors, lower, upper, project, seed, restarts):
    """Best symmetric three-pulse protocol at each area pair of ``areas``, shape (..., 2).

    ``vectors(x)`` gives the odd and even pulse vectors, shape (R, 3), of parameter rows ``x``.
    Areas not finite raise :class:`EmptyGridError` before the search starts.
    """
    areas = np.asarray(areas, dtype=float)
    if not np.isfinite(areas).all():
        raise EmptyGridError("area pairs must be finite in radians")
    pairs = areas.reshape(-1, 2)
    fidelities = functools.partial(fidelity_from_rows, target=cphase_signature(3))

    def objective(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        return alternating_amplitudes(*vectors(x), *pairs[problem].T, reduce=fidelities)

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
        rows = np.empty(x.shape + (3,))
        rows[..., 0], rows[..., 1], rows[..., 2] = radius * np.cos(x), radius * np.sin(x), c_fixed
        return rows[:, 0], rows[:, 1]

    return _optimize_pulse_vectors(
        areas, vectors, [0.0, 0.0], [2.0 * math.pi] * 2, project, seed, restarts
    )
