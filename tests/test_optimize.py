import math

import numpy as np
import pytest

from oracles import dot
from sopgate import (
    InfeasibleStartError,
    cphase_signature,
    gate_fidelity,
    nelder_mead_constrained,
    optimize_all_factors,
    optimize_areas,
    optimize_third_qubit,
    sop_family,
)

PI = math.pi
B_01 = math.sqrt(0.1)
C_01 = math.sqrt(0.1)


def sphere_problem():
    """Keyword arguments of :func:`nelder_mead_constrained` for a sphere over a box."""
    return dict(
        objective=lambda x: 1.0 - float(x @ x),
        lower=np.array([0.1, 0.1]),
        upper=np.array([1.0, 1.0]),
    )


class TestNelderMead:
    def test_bound_corner_optimum(self):
        result = nelder_mead_constrained(**sphere_problem(), seed=1, restarts=4)
        np.testing.assert_allclose(result.best_parameters, [0.1, 0.1], atol=1e-5)
        assert result.best_fidelity == pytest.approx(0.98, abs=1e-6)

    def test_reported_fidelity_reproducible_bit_for_bit(self):
        problem = sphere_problem()
        result = nelder_mead_constrained(**problem, seed=1, restarts=4)
        assert problem["objective"](result.best_parameters) == result.best_fidelity

    def test_deterministic_given_seed(self):
        a = nelder_mead_constrained(**sphere_problem(), seed=42, restarts=6)
        b = nelder_mead_constrained(**sphere_problem(), seed=42, restarts=6)
        np.testing.assert_array_equal(a.best_parameters, b.best_parameters)
        assert a.best_fidelity == b.best_fidelity
        assert a.evaluations == b.evaluations

    def test_empty_box_rejected(self):
        with pytest.raises(InfeasibleStartError):
            nelder_mead_constrained(lambda x: 0.0, np.array([1.0]), np.array([0.0]), seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(InfeasibleStartError):
            nelder_mead_constrained(**sphere_problem(), restarts=restarts)

    def test_evaluation_budget_respected(self):
        result = nelder_mead_constrained(**sphere_problem(), seed=3, restarts=2, max_evals=50)
        assert result.evaluations <= 2 * 55  # scipy may finish the final shrink


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
        family = sop_family(b2=0.1)
        bounds = [(c - 0.25 * PI, c + 0.25 * PI) for c in (2.45 * PI, 1.35 * PI)]
        result = optimize_areas(family, bounds, seed=5, restarts=2)
        assert result.best_protocol is not None
        assert gate_fidelity(result.best_protocol, cphase_signature(2)) == result.best_fidelity


class TestOptimizeThirdQubit:
    def test_bounds_hold_exactly(self):
        result = optimize_third_qubit((2.4 * PI, 1.1 * PI), b=B_01, min_c2=0.1, seed=3, restarts=6)
        for c in result.best_parameters:
            assert c * c >= 0.1 - 1e-15
            assert c * c <= 0.5 + 1e-15

    def test_ties_hold_exactly(self):
        result = optimize_third_qubit((2.4 * PI, 1.1 * PI), b=B_01, min_c2=0.1, seed=3, restarts=4)
        pulses = result.best_protocol.pulses
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
        assert result.best_protocol.areas == (0.5 * areas[0], areas[1], 0.5 * areas[0])
        assert gate_fidelity(result.best_protocol, cphase_signature(3)) == result.best_fidelity

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
        result = optimize_all_factors(
            (2.5 * PI, -1.5 * PI), c_fixed=C_01, min_sq=0.1, seed=5, restarts=8
        )
        for pulse in result.best_protocol.pulses:
            a, b, c = pulse.vector.components
            assert a * a >= 0.1 - 1e-12
            assert b * b >= 0.1 - 1e-12
            assert c == C_01

    def test_symmetry_tie_holds(self):
        result = optimize_all_factors(
            (2.5 * PI, -1.5 * PI), c_fixed=C_01, min_sq=0.1, seed=5, restarts=4
        )
        pulses = result.best_protocol.pulses
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

    def test_deterministic(self):
        a = optimize_all_factors((2 * PI, -2 * PI), c_fixed=C_01, seed=9, restarts=4)
        b = optimize_all_factors((2 * PI, -2 * PI), c_fixed=C_01, seed=9, restarts=4)
        np.testing.assert_array_equal(a.best_parameters, b.best_parameters)
        assert a.best_fidelity == b.best_fidelity
