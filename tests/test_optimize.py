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
    cphase_signature,
    gate_fidelity,
    nelder_mead_constrained,
    optimize_all_factors,
    optimize_areas,
    optimize_third_qubit,
    sop_family,
    spectator_orthogonal_pair,
)
from sopgate.fidelity import alternating_amplitudes, fidelity_from_rows
from sopgate.model import spectator_orthogonal_rows
from sopgate.optimize import MAX_SIMPLICES, gate_factor_arc, spectator_bounds

PI = math.pi
B_01 = math.sqrt(0.1)
C_01 = math.sqrt(0.1)
TARGET_3Q = cphase_signature(3)


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


def assert_same_result(got, want):
    """Lockstep and sequential results agree bit for bit."""
    np.testing.assert_array_equal(got.best_parameters, want.best_parameters)
    assert got.best_fidelity == want.best_fidelity
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


def third_qubit_fidelity(b, areas):
    """The scalar objective of one point, built from protocol objects."""
    return lambda x: gate_fidelity(third_qubit_family(b, x).protocol(*areas), TARGET_3Q)


def all_factors_fidelity(c_fixed, areas):
    return lambda x: gate_fidelity(all_factors_family(c_fixed, x).protocol(*areas), TARGET_3Q)


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
            odd, even = spectator_orthogonal_rows(B_01, x[:, 0], x[:, 1])
            amplitudes = alternating_amplitudes(odd, even, areas[problem, 0], areas[problem, 1])
            return fidelity_from_rows(amplitudes, TARGET_3Q)

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
            protocol = family(single.best_parameters).protocol(*point)
            assert gate_fidelity(protocol, TARGET_3Q) == single.best_fidelity


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
        protocol = family.protocol(*result.best_parameters)
        assert gate_fidelity(protocol, cphase_signature(2)) == result.best_fidelity


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
        assert protocol.areas == (0.5 * areas[0], areas[1], 0.5 * areas[0])
        assert gate_fidelity(protocol, cphase_signature(3)) == result.best_fidelity

    def test_clamped_spectator_reproduces_fixed_map_value(self):
        # evaluating the optimization manifold at c = sqrt(0.1) must equal the
        # plain three-qubit family fidelity at the same areas
        areas = (1.15 * PI, -2.45 * PI)
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas), cphase_signature(3))
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=1, restarts=8)
        assert result.best_fidelity >= fixed - 1e-12

    def test_cannot_improve_top_of_map(self):
        # the spectator cannot be used to lift the best fixed-factor point
        areas = (1.15 * PI, -2.45 * PI)
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas), cphase_signature(3))
        result = optimize_third_qubit(areas, b=B_01, min_c2=0.1, seed=1, restarts=8)
        assert result.best_fidelity == pytest.approx(fixed, abs=5e-3)

    def test_lifts_low_maxima(self):
        areas = (2.4 * PI, 1.1 * PI)
        family = sop_family(b2=0.1, c2=0.1, n_qubits=3)
        fixed = gate_fidelity(family.protocol(*areas), cphase_signature(3))
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
        fixed = gate_fidelity(family.protocol(*areas), cphase_signature(3))
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
