import math

import numpy as np
import pytest
from scipy.integrate import quad

from sopgate import (
    Protocol,
    Pulse,
    PulseEnvelope,
    SopGateError,
    StepTooLargeError,
    StructuralVector,
    envelopes_for_protocol,
    integrate_block,
    sequence_amplitude,
    sop_family,
    validate_protocol,
)
from sopgate.propagator import block_decompose, star_propagator, u11v_esop, u11v_esop_exact
from sopgate.tdse import _pulse_steps

PI = math.pi


def jp_protocol():
    """The pi-2pi-pi protocol: the symmetric orthogonal family at b^2 = 0."""
    return sop_family(b2=0.0).protocol(2 * PI, 2 * PI)


def random_protocol(rng, n_qubits=None, n_pulses=None, max_area=8 * PI):
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


def sequential_rk4(block, envelopes, dt=None):
    """Reference integrator: classic RK4 advanced one step at a time.

    Same step counts and stage offsets as :func:`integrate_block`, no
    unitarity check.
    """
    dim = block.dimension
    u_tot = np.eye(dim, dtype=complex)
    for coupling, env in zip(block.couplings, envelopes):
        h_pattern = np.zeros((dim, dim))
        h_pattern[0, 1:] = -0.5 * coupling
        h_pattern[1:, 0] = -0.5 * coupling
        n_steps = _pulse_steps(env, dt)
        h = env.duration / n_steps
        stage_rabi = env.rabi_in_window(0.5 * h * np.arange(2 * n_steps + 1)).tolist()
        u_pulse = np.eye(dim, dtype=complex)
        for i in range(n_steps):
            rabi_start, rabi_mid, rabi_end = stage_rabi[2 * i : 2 * i + 3]
            k1 = -1j * rabi_start * (h_pattern @ u_pulse)
            k2 = -1j * rabi_mid * (h_pattern @ (u_pulse + 0.5 * h * k1))
            k3 = -1j * rabi_mid * (h_pattern @ (u_pulse + 0.5 * h * k2))
            k4 = -1j * rabi_end * (h_pattern @ (u_pulse + h * k3))
            u_pulse = u_pulse + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u_tot = u_pulse @ u_tot
    return u_tot


class TestEnvelopes:
    @pytest.mark.parametrize("shape", ["squared-sine", "gaussian"])
    @pytest.mark.parametrize("area", [PI, -6.1 * PI, 0.9 * PI])
    def test_area_normalization(self, shape, area):
        env = PulseEnvelope.from_area(shape, 0.0, 1.0, area)
        integral, _ = quad(lambda t: float(env.rabi(t)), 0.0, 1.0, limit=200)
        assert integral == pytest.approx(area, abs=1e-10)
        assert env.area == pytest.approx(area, abs=1e-10)

    def test_zero_outside_window(self):
        env = PulseEnvelope.from_area("gaussian", 1.0, 2.0, PI)
        assert env.rabi(0.99) == 0.0
        assert env.rabi(3.01) == 0.0

    def test_unknown_shape_rejected(self):
        with pytest.raises(SopGateError):
            PulseEnvelope.from_area("boxcar", 0.0, 1.0, PI)

    def test_protocol_envelopes_do_not_overlap(self):
        envelopes = envelopes_for_protocol(jp_protocol())
        for prev, nxt in zip(envelopes, envelopes[1:]):
            assert nxt.start_time >= prev.end_time

    def test_overlap_rejected(self):
        block = block_decompose(jp_protocol())[1]
        envs = [
            PulseEnvelope.from_area("squared-sine", 0.0, 1.0, PI),
            PulseEnvelope.from_area("squared-sine", 0.5, 1.0, 2 * PI),
            PulseEnvelope.from_area("squared-sine", 2.0, 1.0, PI),
        ]
        with pytest.raises(SopGateError):
            integrate_block(block, envs)


class TestIntegrateBlock:
    def test_pi_pulse_matches_analytic(self):
        block = block_decompose(jp_protocol())[1]  # |01>: coupling (1, 0, 1) per pulse
        single = type(block)(initial_state="01", zero_qubits=(0,), couplings=np.array([[1.0]]))
        env = [PulseEnvelope.from_area("squared-sine", 0.0, 1.0, PI)]
        u_num = integrate_block(single, env)
        np.testing.assert_allclose(u_num, star_propagator((1.0,), PI / 2), atol=1e-6)

    def test_truncated_gaussian_keeps_window_edge(self):
        # At these starts an accumulated t += h lands past end_time on the
        # last stage, where rabi() is zero; the 4-sigma edge value is not.
        block = block_decompose(jp_protocol())[1]
        single = type(block)(initial_state="01", zero_qubits=(0,), couplings=np.array([[1.0]]))
        area = 3.3 * PI
        results = []
        for start in (1.25, 3.75, 5.0):
            env = PulseEnvelope.from_area("gaussian", start, 1.0, area)
            assert env.rabi_in_window(env.duration) != 0.0
            u_num = integrate_block(single, [env])
            np.testing.assert_allclose(u_num, star_propagator((1.0,), area / 2), atol=1e-9)
            results.append(u_num)
        for u_num in results[1:]:
            np.testing.assert_array_equal(u_num, results[0])

    @pytest.mark.parametrize("shape", ["squared-sine", "gaussian"])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    @pytest.mark.parametrize(
        "n_steps, max_area",
        [(None, 8 * PI), (2, 0.004), (3, 0.004), (8, 0.08), (9, 0.08), (64, 1.0), (65, 1.0)],
        ids=["default-steps", "2-steps", "3-steps", "8-steps", "9-steps", "64-steps", "65-steps"],
    )
    def test_matches_sequential_loop(self, shape, n_qubits, n_steps, max_area):
        # n_steps None is the default resolution; otherwise dt is chosen so
        # that every pulse takes exactly n_steps steps (odd and even counts,
        # down to the 2-step floor), with areas small enough to pass the
        # unitarity check at that resolution
        dt = None if n_steps is None else 1.0 / (n_steps - 0.5)
        rng = np.random.default_rng(1000 * n_qubits + (n_steps or 0))
        protocol = random_protocol(rng, n_qubits=n_qubits, n_pulses=3, max_area=max_area)
        envelopes = envelopes_for_protocol(protocol, shape=shape)
        if n_steps is not None:
            assert {_pulse_steps(env, dt) for env in envelopes} == {n_steps}
        for block in block_decompose(protocol):
            np.testing.assert_allclose(
                integrate_block(block, envelopes, dt=dt),
                sequential_rk4(block, envelopes, dt=dt),
                rtol=0,
                atol=1e-12,
            )

    def test_one_dimensional_block_is_identity(self):
        protocol = sop_family(b2=0.09, c2=0.04).protocol(2 * PI, 2 * PI)
        block = [b for b in block_decompose(protocol) if b.initial_state == "111"][0]
        assert block.dimension == 1
        envelopes = envelopes_for_protocol(protocol, shape="gaussian")
        u_num = integrate_block(block, envelopes)
        np.testing.assert_array_equal(u_num, sequential_rk4(block, envelopes))
        np.testing.assert_array_equal(u_num, np.eye(1))

    def test_output_unitary(self):
        protocol = sop_family(b2=0.1).protocol(2 * PI, 2 * PI)
        block = block_decompose(protocol)[0]
        u_num = integrate_block(block, envelopes_for_protocol(protocol))
        np.testing.assert_allclose(u_num.conj().T @ u_num, np.eye(3), atol=1e-8)

    def test_step_too_large(self):
        protocol = sop_family(b2=0.0).protocol(16 * PI, 16 * PI)
        block = block_decompose(protocol)[0]
        with pytest.raises(StepTooLargeError):
            integrate_block(block, envelopes_for_protocol(protocol), dt=1.0 / 12)

    def test_fourth_order_convergence(self):
        protocol = sop_family(b2=0.2).protocol(4.4 * PI, 1.1 * PI)
        block = block_decompose(protocol)[0]
        envelopes = envelopes_for_protocol(protocol)
        exact = sequence_amplitude(protocol, "00")
        errors = [
            abs(integrate_block(block, envelopes, dt=dt)[0, 0] - exact)
            for dt in (1 / 100, 1 / 200)
        ]
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25)


class TestValidateProtocol:
    def test_symmetric_orthogonal_protocol(self):
        report = validate_protocol(sop_family(b2=0.1).protocol(2 * PI, 2 * PI))
        assert report.passed
        assert report.max_deviation < 1e-6

    def test_all_ones_state_exact(self):
        report = validate_protocol(sop_family(b2=0.09, c2=0.04).protocol(2 * PI, 2 * PI))
        assert report.deviations["111"] == 0.0

    def test_envelope_shape_independence(self):
        protocol = sop_family(b2=0.1).protocol(2.6 * PI, 0.7 * PI)
        blocks = block_decompose(protocol)
        env_sin = envelopes_for_protocol(protocol, shape="squared-sine")
        env_gau = envelopes_for_protocol(protocol, shape="gaussian")
        for block in blocks:
            amp_sin = integrate_block(block, env_sin)[0, 0]
            amp_gau = integrate_block(block, env_gau)[0, 0]
            assert abs(amp_sin - amp_gau) < 1e-6

    def test_random_protocols(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            report = validate_protocol(random_protocol(rng))
            assert report.passed, report.deviations

    def test_report_fields(self):
        report = validate_protocol(jp_protocol(), tolerance=1e-6)
        data = report.to_json_dict()
        assert set(data) == {
            "max_deviation",
            "tolerance",
            "passed",
            "per_state_deviation",
            "settings",
        }
        assert set(data["per_state_deviation"]) == {"00", "01", "10", "11"}


class TestEsopGroundTruth:
    """Settle which M = 4, 5 expression the dynamics actually follows."""

    @pytest.mark.parametrize("m", [4, 5])
    def test_time_domain_follows_matrix_product_not_printed_form(self, m):
        # per-pulse areas 0.9 pi (odd) and 1.3 pi (even)
        family = sop_family(b2=0.1, m_pulses=m)
        protocol = family.protocol(0.9 * PI * ((m + 1) // 2), 1.3 * PI * (m // 2))
        theta_odd, theta_even = 0.45 * PI, 0.65 * PI
        block = [b for b in block_decompose(protocol) if b.initial_state == "00"][0]
        numeric = integrate_block(block, envelopes_for_protocol(protocol))[0, 0]
        exact = u11v_esop_exact(m, theta_odd, theta_even)
        printed = u11v_esop(m, theta_odd, theta_even)
        assert abs(numeric.real - exact) < 1e-6
        assert abs(numeric.real - printed) > 0.1
