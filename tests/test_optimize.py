import math

import numpy as np
import pytest

import sopgate.optimize
from oracles import dot, nelder_mead_sequential
from sopgate import (
    EmptyGridError,
    GridTooLargeError,
    InfeasibleStartError,
    ProtocolFamily,
    StructuralVector,
    gate_fidelity,
    optimize_all_factors,
    optimize_areas,
    optimize_third_qubit,
    sop_family,
    spectator_orthogonal_pair,
)
from sopgate.fidelity import fidelity_from_rows, pulse_areas
from sopgate.model import spectator_orthogonal_rows
from sopgate.propagator import alternating_row_amplitudes
from sopgate.optimize import (
    DEFAULT_MAX_EVALS,
    MAX_SIMPLICES,
    _latin_hypercube,
    gate_factor_arc,
    nelder_mead_constrained,
    spectator_bounds,
)

PI = math.pi
B_01 = math.sqrt(0.1)
C_01 = math.sqrt(0.1)


def sphere_problem():
    """Keyword arguments of :func:`nelder_mead_constrained` for a sphere over a box."""
    return dict(
        objective=lambda x, problem: 1.0 - np.vecdot(x, x),
        lower=np.array([0.1, 0.1]),
        upper=np.array([1.0, 1.0]),
    )


class TestNelderMead:
    def test_empty_batch_of_problems(self):
        result = nelder_mead_constrained(**sphere_problem(), restarts=2, shape=(0, 3))
        assert result.best_parameters.shape == (0, 3, 2)
        assert result.best_fidelity.shape == result.evaluations.shape == (0, 3)

    def test_bound_corner_optimum(self):
        result = nelder_mead_constrained(**sphere_problem(), seed=1, restarts=4)
        np.testing.assert_allclose(result.best_parameters, [0.1, 0.1], atol=1e-5)
        assert result.best_fidelity == pytest.approx(0.98, abs=1e-6)

    def test_reported_fidelity_reproducible_bit_for_bit(self):
        problem = sphere_problem()
        result = nelder_mead_constrained(**problem, seed=1, restarts=4)
        value = problem["objective"](result.best_parameters[None], np.zeros(1, dtype=int))
        assert value[0] == result.best_fidelity

    def test_deterministic_given_seed(self):
        a = nelder_mead_constrained(**sphere_problem(), seed=42, restarts=6)
        b = nelder_mead_constrained(**sphere_problem(), seed=42, restarts=6)
        np.testing.assert_array_equal(a.best_parameters, b.best_parameters)
        assert a.best_fidelity == b.best_fidelity
        assert a.evaluations == b.evaluations

    def test_empty_box_rejected(self):
        with pytest.raises(InfeasibleStartError):
            nelder_mead_constrained(lambda x: 0.0, np.array([1.0]), np.array([0.0]), seed=0)

    @pytest.mark.parametrize(
        "lower, upper", [([math.nan, 0.0], [1.0, 1.0]), ([0.0, -math.inf], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.inf])]
    )
    def test_box_not_finite_refused_before_any_evaluation(self, lower, upper):
        def refuse(x, problem):
            raise AssertionError("evaluated before the box check")

        with pytest.raises(InfeasibleStartError, match="not finite"):
            nelder_mead_constrained(refuse, lower, upper)
        with pytest.raises(InfeasibleStartError, match="not finite"):
            optimize_areas(sop_family(b2=0.1), tuple(zip(lower, upper)))

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(InfeasibleStartError):
            nelder_mead_constrained(**sphere_problem(), restarts=restarts)

    def test_evaluation_budget_respected(self):
        result = nelder_mead_constrained(**sphere_problem(), seed=3, restarts=2, max_evals=50)
        assert result.evaluations <= 2 * 55  # scipy may finish the final shrink

    def test_too_many_simplices_refused_before_any_evaluation(self):
        def refuse(x, problem):
            raise AssertionError("evaluated before the size check")

        with pytest.raises(GridTooLargeError):
            nelder_mead_constrained(refuse, [0.0], [1.0], restarts=MAX_SIMPLICES + 1)
        with pytest.raises(GridTooLargeError):
            nelder_mead_constrained(refuse, [0.0], [1.0], restarts=2, shape=(MAX_SIMPLICES // 2 + 1,))


def holed_sphere(x, problem=None):
    """A sphere centred at (0.5, 0.5) inside a hole of NaN values, x0 + x1 / 2 > 0.55."""
    d = x - 0.5
    return np.where(x[..., 0] + x[..., 1] / 2 > 0.55, np.nan, 1.0 - np.vecdot(d, d))


def holed_sphere_value(x):
    """:func:`holed_sphere` of one point as a float, by the same float64 operations and fewer calls."""
    if x[0] + x[1] / 2 > 0.55:
        return math.nan
    d = x - 0.5
    return 1.0 - float(np.vecdot(d, d))


class TestNaNValues:
    """Values that are NaN never become a best point, nor stale values of one."""

    def test_all_nan_reports_the_first_evaluated_start(self):
        seen = []

        def nan_everywhere(x, problem):
            seen.append(x.copy())
            return np.full(len(x), np.nan)

        got = nelder_mead_constrained(nan_everywhere, [0.5, 0.5], [1.0, 1.0], seed=0, restarts=2)
        seen = np.concatenate(seen)
        assert np.all((seen >= 0.5) & (seen <= 1.0)), "the objective saw an infeasible point"
        np.testing.assert_array_equal(got.best_parameters, seen[0])
        assert np.isnan(got.best_fidelity)

    def test_a_restart_with_a_number_wins_over_all_nan_restarts(self):
        # NaN where x0 < 0.75: restart 0 starts at x0 = 0.567 and evaluates only
        # its initial simplex, all NaN; restart 1 starts at x0 = 0.76.
        def left_nan(x, problem):
            return np.where(x[:, 0] < 0.75, np.nan, -np.vecdot(x, x))

        box = [0.5, 0.5], [1.0, 1.0]
        got = nelder_mead_constrained(left_nan, *box, seed=0, restarts=2, max_evals=3)
        want = nelder_mead_sequential(lambda x: float(left_nan(x[None], None)[0]), *box, seed=0, restarts=2, max_evals=3)
        assert got.best_parameters[0] >= 0.75 and np.isfinite(got.best_fidelity)
        assert_same_result(got, want)

    @pytest.mark.parametrize("restarts", [1, 3, 8])
    def test_holed_objective_equals_sequential(self, restarts):
        for seed in range(30):
            assert_same_holed_result(seed, restarts, DEFAULT_MAX_EVALS)

    @pytest.mark.parametrize("restarts", [3, 8])
    def test_budget_ending_inside_a_shrink(self, restarts):
        # 30 evaluations end inside a shrink for some of these restarts.
        got = assert_same_holed_result(0, restarts, 30)
        assert got.evaluations == 30 * restarts

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("max_evals", [5, 13, 200])
    def test_other_dimensions(self, dim, max_evals):
        # The hole makes contractions fail, so simplices shrink. A shrink evaluates
        # dim points: one in 1-D, where a shrinking step looks like a one-candidate
        # step, three in 3-D.
        def holed(x, problem=None):
            d = x - 0.5
            return np.where(x.mean(axis=-1) > 0.45, np.nan, 1.0 - np.vecdot(d, d))

        for seed in range(10):
            assert_same_holed_result(seed, 3, max_evals, holed, dim)


def assert_same_holed_result(seed, restarts, max_evals, objective=holed_sphere, dim=2, value=None):
    """Lockstep and sequential runs agree on ``objective`` over [-1, 1]^dim; returns the lockstep's result.

    The sequential runs evaluate ``value``, one point's objective as a float,
    by default ``objective`` of that point alone. Where no value is a number
    both report the first evaluated start, and its value, NaN.
    """
    if value is None:
        value = holed_sphere_value if objective is holed_sphere else lambda x: float(objective(x))
    box = [-1.0] * dim, [1.0] * dim
    runs = dict(seed=seed, restarts=restarts, max_evals=max_evals)
    got = nelder_mead_constrained(objective, *box, **runs)
    assert_same_result(got, nelder_mead_sequential(value, *box, **runs))
    return got


def assert_same_result(got, want):
    """Lockstep and sequential results agree bit for bit (a NaN fidelity equals a NaN)."""
    np.testing.assert_array_equal(got.best_parameters, want.best_parameters)
    np.testing.assert_array_equal(got.best_fidelity, want.best_fidelity)
    assert got.evaluations == want.evaluations


def third_qubit_problem(b, min_c2):
    """(lower, upper, project) of :func:`optimize_third_qubit`."""
    c_lo, c_hi = spectator_bounds(b, min_c2)

    def project(x):
        return np.where(x < 0, -1.0, 1.0) * np.clip(np.abs(x), c_lo, c_hi)

    return [-c_hi, -c_hi], [c_hi, c_hi], project


def all_factors_problem(c_fixed, min_sq):
    """(lower, upper, project) of :func:`optimize_all_factors`."""
    _, phi_lo, phi_hi = gate_factor_arc(c_fixed, min_sq)

    def project(x):
        base = np.mod(x, 2.0 * PI)
        frac = np.mod(base, 0.5 * PI)
        return base - frac + np.clip(frac, phi_lo, phi_hi)

    return [0.0, 0.0], [2.0 * PI] * 2, project


def third_qubit_family(b, x):
    """The family of third-qubit parameters x = (c_odd, c_even), from protocol objects."""
    return ProtocolFamily(*spectator_orthogonal_pair(b, x[0], x[1]))


def all_factors_family(c_fixed, x):
    """The family of all-factors parameters x = (phi_odd, phi_even), from protocol objects."""
    radius = gate_factor_arc(c_fixed, 0.0)[0]
    e_odd, e_even = (
        StructuralVector((radius * np.cos(phi), radius * np.sin(phi), c_fixed)) for phi in x
    )
    return ProtocolFamily(e_odd, e_even)


#: The largest |gate_fidelity - F| allowed between the protocols' gemm kernel and the
#: optimizers' row kernel, as against the mpmath truth (test_propagator.py).
KERNEL_GAP = 4e-15


def row_fidelity(protocol):
    """Fidelity of a protocol of alternating pulses, one row of the optimizers' row kernel.

    Its vectors and mixing angles are read off the protocol's first two pulses.
    """
    odd, even = protocol.pulses[0], protocol.pulses[1 % protocol.n_pulses]
    amplitudes = alternating_row_amplitudes(
        odd.vector.components, even.vector.components, odd.theta, even.theta, protocol.n_pulses
    )
    return float(fidelity_from_rows(amplitudes)[0])


def assert_row_fidelity(protocol, fidelity):
    """``fidelity`` is the protocol's row-kernel value bit for bit, and its gemm one within KERNEL_GAP."""
    assert row_fidelity(protocol) == fidelity
    assert abs(gate_fidelity(protocol) - fidelity) <= KERNEL_GAP


def third_qubit_fidelity(b, areas):
    """The scalar objective of one point, built from protocol objects."""
    return lambda x: row_fidelity(third_qubit_family(b, x).protocol(*areas))


def all_factors_fidelity(c_fixed, areas):
    return lambda x: row_fidelity(all_factors_family(c_fixed, x).protocol(*areas))


def grid_points(seed, n=40):
    """``n`` area pairs drawn from the default optimize grid -8:8:0.5 (radians)."""
    axis = PI * (-8.0 + 0.5 * np.arange(33))
    return np.random.default_rng(seed).choice(axis, size=(n, 2))


class TestLockstepEqualsSequential:
    """The lockstep replay against one scipy run per restart and point (``oracles.py``)."""

    @pytest.mark.parametrize(
        "seed, restarts, max_evals",
        [(1, 4, 2000), (42, 6, 2000), (3, 2, 50), (5, 3, 7), (0, 2, 2), (7, 1, 1), (0, 2, 23)],
    )
    def test_sphere(self, seed, restarts, max_evals):
        problem = sphere_problem()
        got = nelder_mead_constrained(**problem, seed=seed, restarts=restarts, max_evals=max_evals)
        want = nelder_mead_sequential(
            lambda x: 1.0 - float(x @ x),
            problem["lower"],
            problem["upper"],
            seed=seed,
            restarts=restarts,
            max_evals=max_evals,
        )
        assert_same_result(got, want)

    def test_batch_of_problems_keeps_its_shape(self):
        centers = np.random.default_rng(8).uniform(-1.0, 2.0, size=(2, 3, 2)).reshape(-1, 2)

        def objective(x, problem):
            d = x - centers[problem]
            return 1.0 - np.vecdot(d, d)

        got = nelder_mead_constrained(objective, [0.1, 0.1], [1.0, 1.0], seed=2, restarts=3, shape=(2, 3))
        assert got.best_parameters.shape == (2, 3, 2)
        assert got.best_fidelity.shape == got.evaluations.shape == (2, 3)
        for index, center in enumerate(centers):
            want = nelder_mead_sequential(
                lambda x: 1.0 - float((x - center) @ (x - center)), [0.1, 0.1], [1.0, 1.0], seed=2, restarts=3
            )
            i, j = divmod(index, 3)
            np.testing.assert_array_equal(got.best_parameters[i, j], want.best_parameters)
            assert got.best_fidelity[i, j] == want.best_fidelity
            assert got.evaluations[i, j] == want.evaluations

    def test_third_qubit_grid_points(self):
        areas = grid_points(seed=11)
        got = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=4, restarts=2)
        lower, upper, project = third_qubit_problem(B_01, 0.1)
        for k, point in enumerate(areas):
            want = nelder_mead_sequential(
                third_qubit_fidelity(B_01, point), lower, upper, project, seed=4, restarts=2
            )
            np.testing.assert_array_equal(got.best_parameters[k], want.best_parameters)
            assert (got.best_fidelity[k], got.evaluations[k]) == (want.best_fidelity, want.evaluations)

    def test_all_factors_grid_points(self):
        areas = grid_points(seed=12)
        got = optimize_all_factors(areas, c_fixed=C_01, min_sq=0.1, seed=5, restarts=2)
        lower, upper, project = all_factors_problem(C_01, 0.1)
        for k, point in enumerate(areas):
            want = nelder_mead_sequential(
                all_factors_fidelity(C_01, point), lower, upper, project, seed=5, restarts=2
            )
            np.testing.assert_array_equal(got.best_parameters[k], want.best_parameters)
            assert (got.best_fidelity[k], got.evaluations[k]) == (want.best_fidelity, want.evaluations)

    @pytest.mark.parametrize("what", ["third-qubit", "all-factors"])
    def test_benchmark_job_shape(self, what):
        # One grid point with 16 restarts, as the benchmark's point jobs run it:
        # batches of about 13 candidate rows against one-row evaluations.
        (point,) = grid_points(seed=14, n=1)
        if what == "third-qubit":
            got = optimize_third_qubit(point, b=B_01, min_c2=0.1, restarts=16)
            problem, fidelity = third_qubit_problem(B_01, 0.1), third_qubit_fidelity(B_01, point)
        else:
            got = optimize_all_factors(point, c_fixed=C_01, min_sq=0.1, restarts=16)
            problem, fidelity = all_factors_problem(C_01, 0.1), all_factors_fidelity(C_01, point)
        assert_same_result(got, nelder_mead_sequential(fidelity, *problem, restarts=16))

    def test_exhausted_budget_on_grid_points(self):
        # Every restart stops on max_evals, not on convergence.
        areas = grid_points(seed=13, n=8)
        lower, upper, project = third_qubit_problem(B_01, 0.1)

        def objective(x, problem):
            odd, even = spectator_orthogonal_rows(B_01, x)
            thetas = (0.5 * a for a in pulse_areas(areas[problem, 0], areas[problem, 1]))
            return fidelity_from_rows(alternating_row_amplitudes(odd, even, *thetas, 3))

        got = nelder_mead_constrained(
            objective, lower, upper, project, seed=6, restarts=3, max_evals=23, shape=(len(areas),)
        )
        assert np.all(got.evaluations == 3 * 23)
        for k, point in enumerate(areas):
            want = nelder_mead_sequential(
                third_qubit_fidelity(B_01, point), lower, upper, project, seed=6, restarts=3, max_evals=23
            )
            np.testing.assert_array_equal(got.best_parameters[k], want.best_parameters)
            assert (got.best_fidelity[k], got.evaluations[k]) == (want.best_fidelity, want.evaluations)

    @pytest.mark.parametrize(
        "optimize, factors, family",
        [
            (optimize_third_qubit, dict(b=B_01, min_c2=0.1), lambda x: third_qubit_family(B_01, x)),
            (optimize_all_factors, dict(c_fixed=C_01, min_sq=0.1), lambda x: all_factors_family(C_01, x)),
        ],
        ids=["third-qubit", "all-factors"],
    )
    def test_single_point_is_its_grid_row(self, optimize, factors, family):
        areas = grid_points(seed=14, n=3)
        grid = optimize(areas, **factors, seed=1, restarts=3)
        for k, point in enumerate(areas):
            single = optimize(tuple(point), **factors, seed=1, restarts=3)
            assert np.ndim(single.best_fidelity) == 0 and np.ndim(single.evaluations) == 0
            np.testing.assert_array_equal(single.best_parameters, grid.best_parameters[k])
            assert (single.best_fidelity, single.evaluations) == (grid.best_fidelity[k], grid.evaluations[k])
            assert_row_fidelity(family(single.best_parameters).protocol(*point), single.best_fidelity)


#: The one-dimensional box of :class:`TestInsideContractionInStep` and its first start, s,
#: at seed 2. The initial simplex is {s, 1.05 s}; its reflection is 0.95 s and the
#: inside contraction 1.025 s, all in the box.
LINE_BOX = [0.5], [2.0]
LINE_START = float(_latin_hypercube(np.random.default_rng(2), 1, *np.array(LINE_BOX))[0, 0])


def line_objectives():
    """Values on the line, by name, whose first reflection leads to an inside contraction.

    Each maps a point's coordinate x to its value: a parabola peaked at 1.02 s, whose
    inside contraction is accepted; one with a NaN around the inside contraction,
    which then shrinks; one NaN below s, so that the reflection is NaN and the inside
    contraction accepted; and a constant, whose inside contraction equals the worst
    vertex's value and so shrinks (scipy's strict <).
    """
    s = LINE_START

    def peak(x):
        return -((x - 1.02 * s) ** 2)

    return {
        "accepted": peak,
        "nan-inside": lambda x: np.where(abs(x - 1.025 * s) < 0.002 * s, np.nan, peak(x)),
        "nan-reflection": lambda x: np.where(x < s, np.nan, peak(x)),
        "equal-to-worst": lambda x: 0.0 * x,
    }


class TestInsideContractionInStep:
    """A reflection and its inside contraction share one step, with the bits of scipy's runs.

    The step evaluates the inside contraction with the reflection, so these cases
    hold the lockstep to :func:`oracles.nelder_mead_sequential` where that saves a
    step or where it must not count: a budget that ends right after the reflection,
    NaN values and ties. Like :class:`TestLockstepEqualsSequential` they compare
    runs of one objective, so CI runs them under the Prescott OpenBLAS core too.
    """

    @pytest.mark.parametrize("case", list(line_objectives()))
    def test_first_follow_up_is_the_inside_contraction(self, case):
        value = line_objectives()[case]
        seen = []

        def recorded(x):
            seen.append(float(x[0]))
            return float(value(x[0]))

        nelder_mead_sequential(recorded, *LINE_BOX, seed=2, restarts=1, max_evals=4)
        s = LINE_START
        vertex = (1 + 0.05) * s
        # The four evaluations, then the best point's re-evaluation.
        assert seen[:4] == [s, vertex, 2 * s - vertex, 0.5 * s + 0.5 * vertex] and len(seen) == 5

    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("max_evals", [3, 4, 5, 2000])
    @pytest.mark.parametrize("case", list(line_objectives()))
    def test_line_cases_equal_sequential(self, case, max_evals, restarts):
        # 3 evaluations end right after the first reflection, whose inside
        # contraction the sequential run never evaluates; with 4 it is the last.
        value = line_objectives()[case]
        runs = dict(seed=2, restarts=restarts, max_evals=max_evals)
        got = nelder_mead_constrained(lambda x, problem: value(x[:, 0]), *LINE_BOX, **runs)
        assert_same_result(got, nelder_mead_sequential(lambda x: float(value(x[0])), *LINE_BOX, **runs))

    @pytest.mark.parametrize("max_evals", [3, 4, 5, 2000])
    def test_void_inside_contraction_is_never_a_best_point(self, max_evals):
        # The first reflection climbs, so the run expands and never evaluates the
        # inside contraction, whose value would top every other.
        s = LINE_START
        inside = 0.5 * s + 0.5 * (1 + 0.05) * s

        def value(x):
            return np.where(x == inside, 1.0, -x)

        runs = dict(seed=2, restarts=1, max_evals=max_evals)
        got = nelder_mead_constrained(lambda x, problem: value(x[:, 0]), *LINE_BOX, **runs)
        assert_same_result(got, nelder_mead_sequential(lambda x: float(value(x[0])), *LINE_BOX, **runs))
        assert got.best_fidelity < 0.0

    @pytest.mark.parametrize("max_evals", [3, 4, 5, 6, 7, 9, 12, 17, 30])
    def test_holed_sphere_budgets(self, max_evals):
        for seed in range(8):
            assert_same_holed_result(seed, 4, max_evals)

    @pytest.mark.parametrize("max_evals", [4, 5, 6, 7, 9, 12, 17])
    @pytest.mark.parametrize("what", ["third-qubit", "all-factors"])
    def test_point_objectives_budgets(self, monkeypatch, what, max_evals):
        (point,) = grid_points(seed=15, n=1)
        if what == "third-qubit":
            (lower, upper, project), fidelity = third_qubit_problem(B_01, 0.1), third_qubit_fidelity(B_01, point)
            objective = lockstep_objective(monkeypatch, optimize_third_qubit, tuple(point), b=B_01)
        else:
            (lower, upper, project), fidelity = all_factors_problem(C_01, 0.1), all_factors_fidelity(C_01, point)
            objective = lockstep_objective(monkeypatch, optimize_all_factors, tuple(point), c_fixed=C_01)
        runs = dict(seed=3, restarts=4, max_evals=max_evals)
        got = nelder_mead_constrained(objective, lower, upper, project, **runs)
        assert_same_result(got, nelder_mead_sequential(fidelity, lower, upper, project, **runs))


#: Objective calls of the benchmark's point job at areas (-3.5, 2) pi with 16 restarts.
#: A step calls the objective once, and one last call re-evaluates the best points, so
#: these are the steps plus one; they were 133 and 142 with a step for each inside
#: contraction. They hold with the BLAS ddot that np.vecdot in fidelity_from_rows calls
#: on OpenBLAS' Nehalem to SkylakeX and Zen kernels; Core2's and Prescott's move last
#: bits and make 96 and 106.
POINT_JOB_CALLS = {"third-qubit": 94, "all-factors": 103}


class TestObjectiveRowsAndCalls:
    """What a benchmark point job hands its objective: feasible rows only, in a pinned number of calls."""

    @pytest.mark.parametrize("what", list(POINT_JOB_CALLS))
    def test_point_job(self, monkeypatch, what):
        calls = []

        def spy(objective, lower, upper, project, **options):
            def recorded(x, problem):
                # Inside contractions evaluated along with their reflection, even the
                # void ones, are clipped and projected like every other point.
                assert project(np.clip(x, lower, upper)).tobytes() == x.tobytes()
                calls.append(len(x))
                return objective(x, problem)

            return nelder_mead_constrained(recorded, lower, upper, project, **options)

        monkeypatch.setattr(sopgate.optimize, "nelder_mead_constrained", spy)
        areas = (-3.5 * PI, 2.0 * PI)
        if what == "third-qubit":
            got = optimize_third_qubit(areas, b=B_01, min_c2=0.1, restarts=16)
        else:
            got = optimize_all_factors(areas, c_fixed=C_01, min_sq=0.1, restarts=16)
        assert len(calls) == POINT_JOB_CALLS[what]
        # More rows than evaluations: the void inside contractions, and the last call.
        assert sum(calls) > got.evaluations + 1


def lockstep_objective(monkeypatch, optimize, *args, **kwargs):
    """The objective ``objective(x, problem)`` that ``optimize(*args, **kwargs)`` hands the lockstep."""
    handed = []
    with monkeypatch.context() as patch:
        patch.setattr(sopgate.optimize, "nelder_mead_constrained", lambda objective, *rest, **options: handed.append(objective))
        optimize(*args, **kwargs)
    return handed[0]


def composed_fidelities(odd, even, area_odd, area_even, m_pulses):
    """The plain composition: per-row vectors and angles, the row kernel, then the fidelity of each row."""
    thetas = [0.5 * a for a in pulse_areas(area_odd, area_even, m_pulses)]
    return fidelity_from_rows(alternating_row_amplitudes(odd, even, *thetas, m_pulses))


def candidate_rows(rng, n_rows, lower, upper):
    """Seeded parameter rows in the box, the second of them NaN."""
    x = rng.uniform(lower, upper, size=(n_rows, 2))
    x[1:2] = math.nan
    return x


class TestObjectiveEqualsRowKernel:
    """The optimizers' objectives, as the lockstep calls them, hold the plain row-kernel bits.

    Like :class:`TestLockstepEqualsSequential` they use no BLAS, so CI runs
    them under the Prescott OpenBLAS core too.
    """

    @pytest.mark.parametrize("n_rows", [1, 13])
    @pytest.mark.parametrize("m_pulses", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("b2, c2", [(0.0, 0.0), (0.1, 0.0), (0.1, 0.1)], ids=["zero-couplings", "2q", "3q"])
    def test_area_objective(self, monkeypatch, b2, c2, m_pulses, n_rows):
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        bounds = ((-8 * PI, 8 * PI), (-8 * PI, 8 * PI))
        objective = lockstep_objective(monkeypatch, optimize_areas, family, bounds)
        x = candidate_rows(np.random.default_rng(m_pulses), n_rows, -8 * PI, 8 * PI)
        got = objective(x, np.zeros(n_rows, dtype=int))
        vectors = [np.broadcast_to(v.components, (n_rows, family.n_qubits)) for v in (family.vector_odd, family.vector_even)]
        want = composed_fidelities(*vectors, x[:, 0], x[:, 1], m_pulses)
        assert got.shape == (n_rows,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_rows", [1, 13])
    @pytest.mark.parametrize("what", ["third-qubit", "all-factors"])
    def test_point_objectives(self, monkeypatch, what, n_rows):
        pairs = PI * np.array([[2.5, -1.5], [-7.0, 6.5], [0.5, 8.0]])
        if what == "third-qubit":
            optimize, factors, (lower, upper, _) = optimize_third_qubit, dict(b=B_01), third_qubit_problem(B_01, 0.1)
        else:
            optimize, factors, (lower, upper, _) = optimize_all_factors, dict(c_fixed=C_01), all_factors_problem(C_01, 0.1)
        x = candidate_rows(np.random.default_rng(n_rows), n_rows, lower, upper)
        if what == "all-factors" and n_rows > 2:
            x[2] = 0.0  # gate factors b = 0: a block of zero coupling
        # One problem's areas broadcast as scalars; in a run of three they are gathered per row.
        single = lockstep_objective(monkeypatch, optimize, tuple(pairs[1]), **factors)
        gathered = lockstep_objective(monkeypatch, optimize, pairs, **factors)
        got = single(x, np.zeros(n_rows, dtype=int))
        assert gathered(x, np.ones(n_rows, dtype=int)).tobytes() == got.tobytes()
        if what == "third-qubit":
            odd, even = spectator_orthogonal_rows(B_01, x)
        else:
            radius = gate_factor_arc(C_01, 0.1)[0]
            odd, even = (np.stack([radius * np.cos(phi), radius * np.sin(phi), np.full(n_rows, C_01)], axis=-1) for phi in x.T)
        want = composed_fidelities(odd, even, np.full(n_rows, pairs[1, 0]), np.full(n_rows, pairs[1, 1]), 3)
        assert got.shape == (n_rows,) and got.tobytes() == want.tobytes()
        assert np.isnan(got[1:2]).all() and not np.isnan(got[[0, *range(2, n_rows)]]).any()

    def test_batch_of_two_chunks(self, monkeypatch):
        import sopgate.fidelity
        import sopgate.propagator

        # More candidate rows than one chunk of the row kernel holds for three qubits.
        n_rows = sopgate.propagator._ROW_CHUNK_BYTES // (8 * 2 * 8 * (4 * 3 + 8)) + 100
        lower, upper, _ = third_qubit_problem(B_01, 0.1)
        objective = lockstep_objective(monkeypatch, optimize_third_qubit, (2.5 * PI, -1.5 * PI), b=B_01)
        x = candidate_rows(np.random.default_rng(9), n_rows, lower, upper)
        chunks = []

        def recorded(amplitudes):
            chunks.append(len(amplitudes))
            return fidelity_from_rows(amplitudes)

        with monkeypatch.context() as patch:
            patch.setattr(sopgate.fidelity, "fidelity_from_rows", recorded)
            got = objective(x, np.zeros(n_rows, dtype=int))
        assert len(chunks) == 2 and sum(chunks) == n_rows
        odd, even = spectator_orthogonal_rows(B_01, x)
        want = composed_fidelities(odd, even, np.full(n_rows, 2.5 * PI), np.full(n_rows, -1.5 * PI), 3)
        assert got.tobytes() == want.tobytes()


class TestOptimizeAreas:
    def test_finds_independent_qubit_optimum(self):
        family = sop_family(b2=0.0)
        result = optimize_areas(
            family, ((1.5 * PI, 2.5 * PI), (1.5 * PI, 2.5 * PI)), seed=2, restarts=6
        )
        assert result.best_fidelity > 1 - 1e-9
        np.testing.assert_allclose(result.best_parameters / PI, [2.0, 2.0], atol=1e-3)

    def test_high_overlap_regression_optimum(self):
        # displaced high-area optimum of the b^2 = 0.2 family
        family = sop_family(b2=0.2)
        bounds = [(c - 0.3 * PI, c + 0.3 * PI) for c in (-6.15 * PI, 0.9 * PI)]
        result = optimize_areas(family, bounds, seed=4, restarts=4)
        assert result.best_fidelity >= 0.98
        assert result.best_parameters[0] / PI == pytest.approx(-6.1, abs=0.2)
        assert result.best_parameters[1] / PI == pytest.approx(0.9, abs=0.2)

    def test_protocol_attached(self):
        # the family's protocol at the best areas has the reported fidelity
        family = sop_family(b2=0.1)
        bounds = [(c - 0.25 * PI, c + 0.25 * PI) for c in (2.45 * PI, 1.35 * PI)]
        result = optimize_areas(family, bounds, seed=5, restarts=2)
        assert_row_fidelity(family.protocol(*result.best_parameters), result.best_fidelity)


class TestOptimizeThirdQubit:
    def test_bounds_hold_exactly(self):
        result = optimize_third_qubit((2.4 * PI, 1.1 * PI), b=B_01, min_c2=0.1, seed=3, restarts=6)
        for c in result.best_parameters:
            assert c * c >= 0.1 - 1e-15
            assert c * c <= 0.5 + 1e-15

    def test_ties_hold_exactly(self):
        areas = (2.4 * PI, 1.1 * PI)
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=3, restarts=4)
        pulses = third_qubit_family(B_01, result.best_parameters).protocol(*areas).pulses
        assert pulses[2].vector == pulses[0].vector
        assert pulses[2].area == pulses[0].area
        assert abs(dot(pulses[0].vector, pulses[1].vector)) < 1e-12
        for pulse in pulses:
            assert math.fsum(c * c for c in pulse.vector.components) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_symmetric_area_split(self):
        # the third pulse repeats the first; together they carry the odd area
        areas = (2.4 * PI, 1.1 * PI)
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=3, restarts=2)
        protocol = third_qubit_family(B_01, result.best_parameters).protocol(*areas)
        assert [pulse.area for pulse in protocol.pulses] == [0.5 * areas[0], areas[1], 0.5 * areas[0]]
        assert_row_fidelity(protocol, result.best_fidelity)

    def test_clamped_spectator_reproduces_fixed_map_value(self):
        # evaluating the optimization manifold at c = sqrt(0.1) must equal the
        # plain three-qubit family fidelity at the same areas
        areas = (1.15 * PI, -2.45 * PI)
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas))
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=1, restarts=8)
        assert result.best_fidelity >= fixed - 1e-12

    def test_cannot_improve_top_of_map(self):
        # the spectator cannot be used to lift the best fixed-factor point
        areas = (1.15 * PI, -2.45 * PI)
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas))
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=1, restarts=8)
        assert result.best_fidelity == pytest.approx(fixed, abs=5e-3)

    def test_lifts_low_maxima(self):
        areas = (2.4 * PI, 1.1 * PI)
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas))
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=1, restarts=8)
        assert result.best_fidelity > fixed + 0.1

    def test_unconstrained_spectator_recovers_two_qubit_limit(self):
        # b = 0 and free (unbounded below) spectator: optimum at c = 0 is the
        # plain two-qubit gate
        result = optimize_third_qubit((2 * PI, 2 * PI), b=0.0, min_c2=0.0, seed=2, restarts=8)
        assert result.best_fidelity == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(result.best_parameters, [0.0, 0.0], atol=1e-3)

    def test_infeasible_bound(self):
        with pytest.raises(InfeasibleStartError):
            optimize_third_qubit((PI, PI), b=0.1, min_c2=0.7)

    @pytest.mark.parametrize("b, min_c2", [(1.0, 0.0), (math.sqrt(0.5), 0.5)])
    def test_empty_spectator_range_refused(self, b, min_c2):
        # c^2 <= 1 - b^2 - 1e-12 leaves no c with c^2 >= min_c2: at b = 1 the
        # bound is negative, at b^2 = 0.5 it lies just below min_c2 = 0.5.
        with pytest.raises(InfeasibleStartError):
            spectator_bounds(b, min_c2)
        with pytest.raises(InfeasibleStartError):
            optimize_third_qubit((2 * PI, 2 * PI), b=b, min_c2=min_c2, restarts=1)

    def test_spectator_range_may_be_one_point(self):
        c = math.sqrt(0.5)
        assert spectator_bounds(0.0, 0.5) == (c, c)


class TestOptimizeAllFactors:
    def test_bounds_hold_exactly(self):
        areas = (2.5 * PI, -1.5 * PI)
        result = optimize_all_factors(areas, c_fixed=C_01, min_sq=0.1, seed=5, restarts=8)
        for pulse in all_factors_family(C_01, result.best_parameters).protocol(*areas).pulses:
            a, b, c = pulse.vector.components
            assert a * a >= 0.1 - 1e-12
            assert b * b >= 0.1 - 1e-12
            assert c == C_01

    def test_symmetry_tie_holds(self):
        areas = (2.5 * PI, -1.5 * PI)
        result = optimize_all_factors(areas, c_fixed=C_01, min_sq=0.1, seed=5, restarts=4)
        pulses = all_factors_family(C_01, result.best_parameters).protocol(*areas).pulses
        assert pulses[2].vector == pulses[0].vector

    @pytest.mark.parametrize("areas", [(1.15 * PI, -2.45 * PI), (2.4 * PI, 1.1 * PI)])
    def test_improves_on_fixed_factors(self, areas):
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas))
        result = optimize_all_factors(areas, c_fixed=C_01, min_sq=0.1, seed=6, restarts=8)
        assert result.best_fidelity >= fixed - 1e-9

    def test_infeasible_min_sq(self):
        # both gate factors cannot exceed (1 - c^2)/2 each
        with pytest.raises(InfeasibleStartError):
            optimize_all_factors((PI, PI), c_fixed=C_01, min_sq=0.5)
        with pytest.raises(InfeasibleStartError):
            optimize_all_factors((PI, PI), c_fixed=0.0, min_sq=1.0)

    @pytest.mark.parametrize("target", ["third-qubit", "all-factors"])
    @pytest.mark.parametrize("areas", [(math.inf, 1.0), (1.0, math.nan), [(2.0, 2.0), (-math.inf, 1.0)]])
    def test_areas_not_finite_refused_before_the_search(self, monkeypatch, target, areas):
        calls = []
        monkeypatch.setattr(sopgate.optimize, "nelder_mead_constrained", lambda *a, **k: calls.append(a))
        with pytest.raises(EmptyGridError, match="finite in radians"):
            if target == "third-qubit":
                optimize_third_qubit(areas, b=B_01)
            else:
                optimize_all_factors(areas, c_fixed=C_01)
        assert calls == []

    def test_nan_min_sq_refused(self):
        with pytest.raises(InfeasibleStartError):
            gate_factor_arc(C_01, math.nan)

    def test_deterministic(self):
        a = optimize_all_factors((2 * PI, -2 * PI), c_fixed=C_01, seed=9, restarts=4)
        b = optimize_all_factors((2 * PI, -2 * PI), c_fixed=C_01, seed=9, restarts=4)
        np.testing.assert_array_equal(a.best_parameters, b.best_parameters)
        assert a.best_fidelity == b.best_fidelity
