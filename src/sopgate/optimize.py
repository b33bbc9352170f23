"""Constrained derivative-free optimization of pulse areas and geometrical factors.

Every problem maximizes the C-PHASE fidelity |Tr(T^dag U) / d|^2 by multistart
Nelder-Mead over a box of free parameters. Equality ties (symmetric third
pulse, orthogonality, unit normalization) are built into the parameterization
so every evaluated candidate satisfies them exactly; inequality bounds are
enforced by projecting proposals onto the feasible set. Runs are
deterministic for a given seed.

The search is a lockstep replay of scipy's ``minimize(method="Nelder-Mead")``
(Nelder & Mead, Comput. J. 7, 308 (1965); non-adaptive coefficients): every
restart of every problem, e.g. every point of an area grid, is one simplex,
and all simplices advance together, one stage per step: the initial vertices,
a reflection, an expansion, an outside contraction or a shrink. A reflection
evaluates its inside contraction along, and where its run would contract
inside, the simplex accepts that point or shrinks next, in the same step;
elsewhere the point is void, neither counted nor a best point. A step
gathers the points of all simplices into one batch objective call. Each
simplex makes exactly the moves, evaluations and ties of its own sequential
run, so the results equal those of one scipy run per restart and problem
bit for bit. A simplex's state is one array, one row per point (its
coordinates, then its negated value): the dim + 1 vertices, the stage's
candidate and the reflected point, whose slot holds the inside contraction
during a reflection. So a sort, a replacement of the worst vertex, a shrink
and a retirement are each one gather or one assignment, and what follows a
step is read from one table by stage and comparisons. The best point so far
is kept apart, as evaluated. Every evaluation of a step is one (simplex,
slot) pair, and one rule, applied batch by batch in each simplex's order of
evaluation, keeps the first that is below the best: a NaN never replaces a
number, and no update reads a value of an earlier step. A step of a
benchmark point job (16 restarts, about 19 rows) is one objective call and
about 55 numpy operations.
Every result holds arrays of the batch shape of its problems, 0-d for one.
Every optimizer evaluates its candidates by
:func:`~sopgate.fidelity.row_fidelities`, on the BLAS-free row kernel, so a
candidate's value depends on its own parameters alone, bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyGridError, GridTooLargeError, InfeasibleStartError, NotNormalizedError
from .fidelity import ProtocolFamily, row_fidelities
from .model import spectator_orthogonal_rows

# Not called here: bench/spans.py traces these names in this module.
from .fidelity import gate_fidelity  # noqa: F401
from .model import spectator_orthogonal_pair  # noqa: F401

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
# reflect (and contract inside), then expand or contract outside, then maybe shrink.
_INIT, _REFLECT, _EXPAND, _OUTSIDE, _SHRINK, _DONE = range(6)

#: The two points each stage computes, c_bar * centroid + c_worst * worst vertex, with
#: scipy's coefficients (x - y and x + (-y) round alike): a one-point stage's candidate,
#: then what the reflected point's slot holds. A reflection puts its inside contraction
#: there; an expansion or an outside contraction recomputes the reflected point, bit for
#: bit, as neither term has moved since; other stages' points go unused.
_MOVES = np.zeros((_DONE + 1, 2, 2))
_MOVES[:, 1] = 1 + RHO, -RHO
_MOVES[_REFLECT] = (1 + RHO, -RHO), (1 - PSI, PSI)
_MOVES[_EXPAND, 0], _MOVES[_OUTSIDE, 0] = (1 + RHO * CHI, -RHO * CHI), (1 + PSI * RHO, -PSI * RHO)


def _stage_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Next stage, what replaces the worst vertex, and whether the inside contraction is void.

    Each is given per stage and comparison code. The code's bits compare the negated
    value f of a one-point stage's candidate with the simplex's: 1 f < best, 2 f < second
    worst, 4 f < worst, 8 f < f(reflected point), 16 f <= f(reflected point); 32 the
    inside contraction's f < worst, and 64 the simplex evaluated more than one point. In
    the second table, 1 puts the candidate in the worst vertex's place and 2 the point
    in the reflected point's slot. A reflection below no vertex but the worst leads to
    the inside contraction, accepted or followed by a shrink at once; after any other
    reflection an evaluated inside contraction is void (the third table).
    """
    below_best, below_second, below_worst, below_xr, upto_xr, inside_below_worst, evaluated_more = (
        (np.arange(128) >> bit) & 1 == 1 for bit in range(7)
    )
    after = np.full((_DONE + 1, 128), _REFLECT)
    outcomes = [below_best, below_second, below_worst, inside_below_worst]
    after[_REFLECT] = np.select(outcomes, [_EXPAND, _REFLECT, _OUTSIDE, _REFLECT], _SHRINK)
    after[_OUTSIDE] = np.where(upto_xr, _REFLECT, _SHRINK)
    after[_DONE] = _DONE
    worst = np.zeros((_DONE + 1, 128), dtype=int)
    worst[_REFLECT] = np.select(outcomes, [0, 1, 0, 2], 0)
    worst[_EXPAND] = np.where(below_xr, 1, 2)
    worst[_OUTSIDE] = upto_xr
    void = np.zeros((_DONE + 1, 128), dtype=int)
    void[_REFLECT] = evaluated_more & (below_best | below_second | below_worst)
    return after, worst, void


_AFTER, _WORST, _VOID = _stage_table()


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
    attains its maximum; a NaN value never does, and a problem whose values
    are all NaN reports its first evaluated point. The reported fidelity is
    the objective re-evaluated at the best parameters, so it is reproducible
    bit-for-bit from the result. All restarts advance in lockstep (module
    docstring): a benchmark point job takes about 105 steps, each one objective
    call of about 19 rows.
    A box that is empty or not finite raises :class:`InfeasibleStartError`.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
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
        # np.clip's values, NaN included, without the cost of its Python wrapper.
        return project(np.minimum(np.maximum(x, lower), upper))

    dim = lower.size
    starts = feasible(_latin_hypercube(np.random.default_rng(seed), restarts, lower, upper))
    # Simplex i is restart i % restarts of problem i // restarts. Its state is one array
    # of points, each its dim coordinates followed by its negated value (scipy minimizes),
    # +inf until evaluated: the dim + 1 vertices, the stage's candidate and the reflected
    # point (during a reflection, the inside contraction). The best evaluated point so
    # far, as evaluated (clipped and projected), is kept apart, coordinates in ``best_x``
    # and negated value in ``best_f``; it starts as the first point the simplex evaluates,
    # its start, at +inf, so that a restart whose values are all NaN reports a point it
    # evaluated. The working arrays hold the simplices still running, ``ids`` their
    # numbers; the best points of finished ones go to ``final_x`` and ``final_f``.
    cand, xr = dim + 1, dim + 2
    state = np.full((n, dim + 3, dim + 1), np.inf)
    state[:, : dim + 1, :dim] = np.tile(starts, (n_problems, 1))[:, None, :]
    for k in range(dim):
        y = state[:, k + 1, k]
        state[:, k + 1, k] = np.where(y != 0, (1 + NONZDELT) * y, ZDELT)
    best_x, best_f = np.tile(feasible(starts), (n_problems, 1)), np.full(n, np.inf)
    final_x, final_f, final_calls = best_x.copy(), best_f.copy(), np.zeros(n, dtype=int)
    ids, problem = np.arange(n), np.arange(n) // restarts
    stage, left = np.full(n, _INIT), np.full(n, max_evals)  # ``left``: evaluations left
    # Per stage, the slots a simplex evaluates in order, as far as ``left`` allows: every vertex,
    # a one-point stage's candidate (and a reflection's inside contraction), the shrunk vertices.
    evaluates = [range(dim + 1), [cand, xr], [cand], [cand], range(1, dim + 1), []]
    count = np.array([len(slots) for slots in evaluates])
    slot_of = np.zeros((max(count), _DONE + 1), dtype=int)
    for s, slots in enumerate(evaluates):
        slot_of[: len(slots), s] = slots
    # Per stage and comparison code (_stage_table): the next stage, the slots whose points become
    # the worst vertex and the reflected point, and whether the inside contraction is void.
    moves = np.stack([_AFTER, np.array([dim, cand, xr])[_WORST], np.full(_WORST.shape, xr), _VOID], axis=-1)
    moves[_REFLECT, :, 2] = cand
    # The comparison code (_stage_table) as weights of one row of comparisons: the candidate's
    # value below each slot's value, then at most the reflected point's, then the inside
    # contraction's below the worst vertex's, then per j whether the simplex evaluates more
    # than j points (only j = 1 weighs).
    weights = np.zeros(xr + 3 + len(slot_of), dtype=np.uint8)
    for slot, bit in zip([0, dim - 1, dim, xr, xr + 1, xr + 2, xr + 4], [1, 2, 4, 8, 16, 32, 64]):
        weights[slot] += bit
    nth = np.arange(len(slot_of))[:, None]
    vertices = np.arange(dim + 1)
    tolerance = np.array([XATOL] * dim + [FATOL])

    def views(state: np.ndarray) -> tuple:
        """The parts of ``state`` a step reads and writes, made once per state array.

        Then the comparison buffer's columns (its last ones as rows j), its code
        view, and the column of simplex numbers that per-simplex gathers index with.
        """
        values = state[..., dim]
        compared = np.empty((len(state), len(weights)), dtype=bool)
        return (
            [state[:, k, :dim] for k in range(dim)], state[:, dim, None, :dim], state[:, cand : xr + 1, :dim],
            values[:, cand, None], values[:, dim, None], values[:, : xr + 1], values[:, xr : xr + 1],
            state[:, dim : xr + 1 : 2], state[:, : dim + 1], values[:, : dim + 1],
            state[:, :1], state[:, 1 : dim + 1], state[:, :1, :dim], state[:, 1 : dim + 1, :dim],
            compared[:, : xr + 1], compared[:, xr + 1 : xr + 2], compared[:, xr + 2 : xr + 3], compared[:, xr + 3 :].T,
            compared.view(np.uint8), np.arange(len(state))[:, None],
        )

    initial, shrinking, fresh = True, 0, True  # fresh: ``state`` is a new array
    while True:
        # A simplex that evaluates nothing, converged or out of budget, is done.
        evaluated = np.minimum(count[stage], left)
        if np.count_nonzero(evaluated) <= 0.75 * stage.size:
            # Retire the finished simplices once a quarter of them is done.
            done, rows = evaluated == 0, evaluated.nonzero()[0]
            final_x[ids[done]], final_f[ids[done]] = best_x[done], best_f[done]
            final_calls[ids[done]] = max_evals - left[done]
            if not rows.size:
                break
            ids, problem, state, stage, left, evaluated, best_x, best_f = (
                a[rows] for a in (ids, problem, state, stage, left, evaluated, best_x, best_f)
            )
            fresh = True
        if fresh:
            (leading, worst, candidates, fnew, worst_value, compared_values, xr_value, replaced,
             simplex, simplex_values, best_vertex, others, best_point, other_points, below, at_most, inside_below,
             more_than, comparisons, column) = views(state)
            fresh = False
        # The centroid stays put from a reflection to its expansion or contraction. Its
        # vertices are added in order, as np.add.reduce over them adds them.
        xbar = sum(leading[1:], leading[0]) / dim
        c = _MOVES[stage]
        np.add(c[..., :1] * xbar[:, None], c[..., 1:] * worst, out=candidates)
        if shrinking:
            shrunk = best_point + SIGMA * (other_points - best_point)
            np.copyto(other_points, shrunk, where=(stage == _SHRINK)[:, None, None])
        # Batch j holds the j-th point of every simplex that evaluates more than j,
        # in simplex order: evaluation k of the step is point nths[k] of simplex points[k].
        nths, points = np.less(nth, evaluated, out=more_than).nonzero()
        slots = slot_of[nths, stage[points]]
        x = feasible(state[points, slots, :dim])
        state[points, slots, dim] = f = -objective(x, problem[points])
        left -= evaluated

        # A one-point stage's candidate decides what follows (_stage_table).
        np.less(fnew, compared_values, out=below)
        np.less_equal(fnew, xr_value, out=at_most)
        np.less(xr_value, worst_value, out=inside_below)
        move = moves[stage, comparisons @ weights]
        after, void = move[:, 0], move[:, 3]
        replaced[...] = state[column, move[:, 1:3]]
        left += void
        # Each evaluation in turn replaces the best point if it is below it: a
        # simplex keeps the first of its evaluations that attains its minimum,
        # and a NaN or a void inside contraction never replaces a number.
        end = 0
        for j, size in enumerate(np.bincount(nths).tolist()):
            start, end = end, end + size
            r = points[start:end]
            better = f[start:end] < best_f[r]
            if j == 1:
                np.greater(better, void[r], out=better)
            won = r[better]
            if won.size:
                best_x[won], best_f[won] = x[start:end][better], f[start:end][better]
        # Simplices about to reflect order their vertices by value with scipy's np.argsort.
        if initial:  # every simplex evaluated its initial vertices; scipy sorts them twice
            simplex[...] = state[column, simplex_values.argsort(axis=1)]
            initial = False
        sorting = after == _REFLECT
        simplex[...] = state[column, np.where(sorting[:, None], simplex_values.argsort(axis=1), vertices)]
        # A simplex about to reflect stops once its vertices lie within the tolerances.
        spread = np.abs(others - best_vertex) <= tolerance
        after[sorting & np.logical_and.reduce(spread, (1, 2))] = _DONE
        stage = after
        shrinking = np.count_nonzero(stage == _SHRINK)

    # Per problem, the first restart that attains the best value.
    k = np.argmin(final_f.reshape(n_problems, restarts), axis=1)
    best = final_x.reshape(n_problems, restarts, dim)[np.arange(n_problems), k]
    fidelity = objective(best, np.arange(n_problems))
    evaluations = final_calls.reshape(n_problems, restarts).sum(axis=1)
    return OptimizationResult(best.reshape(shape + (dim,)), fidelity.reshape(shape), evaluations.reshape(shape))


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

    def objective(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        return row_fidelities(*vectors, x[:, 0], x[:, 1], family.m_pulses)

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

    def objective(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        # One problem's areas broadcast as scalars; more problems' are gathered per row.
        return row_fidelities(*vectors(x), *(pairs[0] if len(pairs) == 1 else pairs[problem].T))

    return nelder_mead_constrained(objective, lower, upper, project, seed=seed, restarts=restarts, shape=areas.shape[:-1])


def spectator_bounds(b: float, min_c2: float) -> tuple[float, float]:
    """Range (c_lo, c_hi) of |c| that :func:`optimize_third_qubit` searches; refuses an empty one."""
    if not 0.0 <= min_c2 <= 0.5:
        raise InfeasibleStartError(f"min_c2 = {min_c2} outside [0, 0.5]")
    # c^2 stays 1e-12 below 1 - b^2, so that the gate factor a of the odd vector is real.
    max_c2 = min(0.5, 1.0 - b * b - 1e-12)
    if max_c2 < min_c2:
        raise InfeasibleStartError(
            f"b^2 = {b * b!r} leaves c^2 <= {max_c2!r} < min_c2 = {min_c2!r}: no feasible spectator factor"
        )
    return math.sqrt(min_c2), math.sqrt(max_c2)


def gate_factor_arc(c_fixed: float, min_sq: float) -> tuple[float, float, float]:
    """Radius and arc (r, phi_lo, phi_hi) that :func:`optimize_all_factors` searches; refuses an empty arc."""
    r2 = 1.0 - c_fixed * c_fixed
    if r2 <= 0.0:
        raise NotNormalizedError("c_fixed leaves no weight for the gate qubits")
    if not 0.0 <= min_sq <= r2 / 2:
        raise InfeasibleStartError(f"min_sq = {min_sq} infeasible: both factors need min_sq <= (1 - c^2)/2 = {r2 / 2}")
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
        return signs * np.minimum(np.maximum(np.abs(x), c_lo), c_hi)

    def vectors(x: np.ndarray):
        return spectator_orthogonal_rows(b, x)

    return _optimize_pulse_vectors(areas, vectors, [-c_hi, -c_hi], [c_hi, c_hi], project, seed, restarts)


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
        return base - frac + np.minimum(np.maximum(frac, phi_lo), phi_hi)

    def vectors(x: np.ndarray):
        rows = np.empty(x.shape + (3,))
        rows[..., 0], rows[..., 1], rows[..., 2] = radius * np.cos(x), radius * np.sin(x), c_fixed
        return rows[:, 0], rows[:, 1]

    return _optimize_pulse_vectors(areas, vectors, [0.0, 0.0], [2.0 * math.pi] * 2, project, seed, restarts)
