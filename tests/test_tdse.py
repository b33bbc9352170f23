import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from sopgate import (
    Protocol,
    Pulse,
    SopGateError,
    StepTooLargeError,
    StructuralVector,
    sop_family,
    validate_protocol,
)
from oracles import jp_protocol, random_protocol, u11v_esop, u11v_esop_exact
import sopgate.propagator
from sopgate.propagator import block_decompose, diagonal_amplitudes, sequence_amplitude, star_propagator
from sopgate.tdse import (
    ENVELOPE_SHAPES,
    PULSE_DURATION,
    PulseEnvelope,
    _integrate,
    _pairwise_product,
    _pulse_steps,
    _register_patterns,
    envelopes_for_protocol,
    integrate_block,
)

PI = math.pi


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
        h = PULSE_DURATION / n_steps
        stage_rabi = env.rabi(0.5 * h * np.arange(2 * n_steps + 1)).tolist()
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
        env = PulseEnvelope.from_area(shape, area)
        integral, _ = quad(lambda t: float(env.rabi(t)), 0.0, PULSE_DURATION, limit=200)
        assert integral == pytest.approx(area, abs=1e-10)
        assert env.area == pytest.approx(area, abs=1e-10)

    def test_unknown_shape_rejected(self):
        with pytest.raises(SopGateError):
            PulseEnvelope.from_area("boxcar", PI)

    @pytest.mark.parametrize(
        "shape, peak_rabi",
        [("squared-sine", math.inf), ("gaussian", -math.inf), ("squared-sine", math.nan)],
    )
    def test_non_finite_refused(self, shape, peak_rabi):
        with pytest.raises(SopGateError, match="must be finite"):
            PulseEnvelope(shape, peak_rabi)


def star_patterns(couplings):
    """Star patterns of a stack of blocks: ground to each Rydberg level by -coupling / 2."""
    dim = 1 + couplings.shape[1]
    patterns = np.zeros((len(couplings), dim, dim))
    patterns[:, 0, 1:] = patterns[:, 1:, 0] = -0.5 * couplings
    return patterns


def register_pattern(rng):
    """The 8 x 8 pattern of one pulse on a 2-qubit register, shape (1, 8, 8).

    It is not star-shaped, and its eigenvalues are degenerate: the dark
    all-|1> state and the dark state of the |00> block share 0.
    """
    return _register_patterns(random_protocol(rng, n_qubits=2, n_pulses=1))


def explicit_step_coefficients(env, n_steps):
    """Coefficients of all ``n_steps`` RK4 steps of a pulse from its whole stage grid, ``(5, n_steps)``."""
    h = PULSE_DURATION / n_steps
    stage_rabi = env.rabi(0.5 * h * np.arange(2 * n_steps + 1))
    a, b, c = stage_rabi[0:-1:2], stage_rabi[1::2], stage_rabi[2::2]
    return np.array([
        np.ones(n_steps),
        h / 6.0 * (a + 4.0 * b + c),
        h**2 / 6.0 * (a * b + b * b + b * c),
        h**3 / 12.0 * (a * b * b + b * b * c),
        h**4 / 24.0 * a * b * b * c,
    ])


def step_matrix_product(pattern, coeffs):
    """Left-to-right product of the explicit step matrices sum_k c_k X^k, X = -i P."""
    x = -1j * pattern
    product = np.eye(len(x), dtype=complex)
    for c in coeffs.T:
        product = sum(c[k] * np.linalg.matrix_power(x, k) for k in range(5)) @ product
    return product


def mirror_ulps(rabi, n_steps):
    """Largest |rabi(tau) - rabi(PULSE_DURATION - tau)| on an n-step stage grid, in ulps of the largest |rabi|."""
    stage_rabi = rabi(0.5 * PULSE_DURATION / n_steps * np.arange(2 * n_steps + 1))
    return np.abs(stage_rabi - stage_rabi[::-1]).max() / np.spacing(np.abs(stage_rabi).max())


class TestMirroredPulse:
    """A pulse is formed from the first half of its steps, mirrored."""

    @pytest.mark.parametrize("shape", ENVELOPE_SHAPES)
    @pytest.mark.parametrize("n_steps", [2, 3, 400, 401, 4857])
    @pytest.mark.parametrize("area", [0.3 * PI, -7.7 * PI])
    def test_envelopes_are_mirror_symmetric(self, shape, n_steps, area):
        # Every shape reads the same at tau and T - tau on the stage grid,
        # to a few ulp of the peak; the mirrored half relies on it
        env = PulseEnvelope.from_area(shape, area)
        assert mirror_ulps(env.rabi, n_steps) <= 8

    @pytest.mark.parametrize("n_steps", [2, 3, 400, 401, 4857])
    def test_asymmetric_envelope_fails_the_mirror_check(self, n_steps):
        env = PulseEnvelope.from_area("squared-sine", PI)
        assert mirror_ulps(lambda tau: env.rabi(tau) * (1.0 + 1e-6 * tau), n_steps) > 1e3

    @pytest.mark.parametrize("shape", ENVELOPE_SHAPES)
    @pytest.mark.parametrize(
        "n_steps, area",
        [(2, 0.001), (3, 0.001), (8, 0.02), (9, 0.02), (256, 3.0), (257, 3.0), (400, 3.0), (513, 2 * PI)],
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pulse_equals_product_of_every_step(self, shape, n_steps, area, d):
        # One pulse integrated from its mirrored first half equals the
        # left-to-right product of all n explicit step matrices, whose
        # coefficients come from the whole stage grid, for three d x d star
        # patterns and a register's pattern
        rng = np.random.default_rng(n_steps)
        env = PulseEnvelope.from_area(shape, area)
        dt = 1.0 / (n_steps - 0.5)
        assert _pulse_steps(env, dt) == n_steps
        want_coeffs = explicit_step_coefficients(env, n_steps)
        for pattern in [*star_patterns(rng.normal(size=(3, d - 1))), *register_pattern(rng)]:
            got = _integrate(pattern[None], [env], dt)
            np.testing.assert_allclose(got, step_matrix_product(pattern, want_coeffs), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", ENVELOPE_SHAPES)
    @pytest.mark.parametrize("dt", [None, 1.0 / 7.5, 1.0 / 8.5])
    def test_rabi_reads_the_first_half_stage_grid(self, monkeypatch, shape, dt):
        # One rabi call per pulse, at the 2 ceil(n/2) + 1 half-step offsets
        # 0, h/2, ..., ceil(n/2) h of the first half; dt 1/7.5 and 1/8.5
        # give 8 and 9 steps
        calls = []
        rabi = PulseEnvelope.rabi

        def spy(self, tau):
            calls.append(np.array(tau))
            return rabi(self, tau)

        protocol = random_protocol(np.random.default_rng(7), n_qubits=3, n_pulses=4, max_area=0.01)
        envelopes = envelopes_for_protocol(protocol, shape=shape)
        monkeypatch.setattr(PulseEnvelope, "rabi", spy)
        _integrate(_register_patterns(protocol), envelopes, dt)
        steps = [_pulse_steps(env, dt) for env in envelopes]
        assert len(calls) == len(envelopes)
        for tau, env, n_steps in zip(calls, envelopes, steps):
            n_half = math.ceil(n_steps / 2)
            assert len(tau) == 2 * n_half + 1
            np.testing.assert_array_equal(tau, 0.5 * (PULSE_DURATION / n_steps) * np.arange(2 * n_half + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 4097])
def test_pairwise_product_equals_sequential_product(n):
    # Step factors are commuting scalars near the unit circle; the pairwise
    # product in place equals the sequential one to round-off
    rng = np.random.default_rng(n)
    steps = np.exp(1j * rng.uniform(-0.1, 0.1, size=(n, 3))) * (1.0 + rng.uniform(-1e-3, 1e-3, size=(n, 3)))
    want = np.prod(steps, axis=0)
    work = steps.copy()
    got = _pairwise_product(work)
    assert np.shares_memory(got, work)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_integrate_holds_one_step_array():
    # A 3-qubit 8 pi Gaussian pulse: the register has 20 states and the
    # pulse thousands of steps. Only the first half of the steps is formed:
    # its step factors and their pairwise product (half a step array of
    # (n_steps, 20) complex values), its step coefficients and stage values
    # (under a tenth of one) fit in 0.625 step arrays
    protocol = Protocol((Pulse(8 * PI, StructuralVector((0.6, 0.0, 0.8))),), 3)
    envelopes = envelopes_for_protocol(protocol, shape="gaussian")
    patterns = _register_patterns(protocol)
    step_array_bytes = _pulse_steps(envelopes[0], None) * patterns.shape[-1] * 16
    assert patterns.shape[-1] == 20
    _integrate(patterns, envelopes, None)
    tracemalloc.start()
    try:
        _integrate(patterns, envelopes, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.625 * step_array_bytes


class TestIntegrateBlock:
    def test_pi_pulse_matches_analytic(self):
        block = block_decompose(jp_protocol())[1]  # |01>: coupling (1, 0, 1) per pulse
        single = type(block)(initial_state="01", zero_qubits=(0,), couplings=np.array([[1.0]]))
        env = [PulseEnvelope.from_area("squared-sine", PI)]
        u_num = integrate_block(single, env)
        np.testing.assert_allclose(u_num, star_propagator((1.0,), PI / 2), atol=1e-6)

    def test_truncated_gaussian_keeps_window_edge(self):
        # The 4-sigma edge value is not zero, and an offset that round-off
        # puts just past the window still reads it.
        block = block_decompose(jp_protocol())[1]
        single = type(block)(initial_state="01", zero_qubits=(0,), couplings=np.array([[1.0]]))
        area = 3.3 * PI
        env = PulseEnvelope.from_area("gaussian", area)
        assert env.rabi(PULSE_DURATION) != 0.0
        assert env.rabi(np.nextafter(PULSE_DURATION, 2.0)) == env.rabi(PULSE_DURATION)
        u_num = integrate_block(single, [env])
        np.testing.assert_allclose(u_num, star_propagator((1.0,), area / 2), atol=1e-9)

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
        # unitarity check at that resolution. The default-steps gaussian
        # case with 2 qubits has a pulse of 4857 steps, a long step product
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

    def test_one_kernel_call_per_protocol(self, monkeypatch):
        calls = []
        kernel = sopgate.propagator.register_amplitudes

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sopgate.propagator, "register_amplitudes", counted)
        report = validate_protocol(sop_family(b2=0.09, c2=0.04).protocol(2 * PI, 2 * PI))
        assert len(report.deviations) == 8
        assert len(calls) == 1

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_one_eigendecomposition_per_protocol(self, monkeypatch, n_qubits):
        # One eigh call decomposes the patterns of all pulses
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        protocol = random_protocol(np.random.default_rng(n_qubits), n_qubits=n_qubits, n_pulses=5)
        assert validate_protocol(protocol, shape="gaussian").passed
        dim = {2: 8, 3: 20}[n_qubits]
        assert calls == [(5, dim, dim)]

    def test_wrong_analytic_kernel_fails(self, monkeypatch):
        # The integration shares no code with star_propagator, so a kernel
        # whose pulse angles are off by 1e-3 is caught
        kernel = sopgate.propagator.star_propagator

        def stretched(coupling, theta):
            return kernel(coupling, np.asarray(theta) * (1 + 1e-3))

        protocol = sop_family(b2=0.1).protocol(2 * PI, 2 * PI)
        assert validate_protocol(protocol).passed
        monkeypatch.setattr(sopgate.propagator, "star_propagator", stretched)
        assert not validate_protocol(protocol).passed

    def test_wrong_block_decomposition_fails(self, monkeypatch):
        # The register is built from the basis labels, not from the blocks
        # of the analytic kernel, so a kernel whose blocks read every label
        # reversed is caught
        zero_positions = sopgate.propagator._zero_positions
        sopgate.propagator._blocks_by_dimension.cache_clear()
        monkeypatch.setattr(
            sopgate.propagator, "_zero_positions", lambda label, n: zero_positions(label[::-1], n)
        )
        try:
            rng = np.random.default_rng(23)
            for _ in range(10):
                assert not validate_protocol(random_protocol(rng, n_qubits=3, n_pulses=3)).passed
        finally:
            monkeypatch.undo()
            sopgate.propagator._blocks_by_dimension.cache_clear()

    @pytest.mark.parametrize("shape", ["squared-sine", "gaussian"])
    def test_stacked_blocks_equal_one_block_integration(self, shape):
        # The register's deviations equal those of the blocks integrated one
        # by one, within round-off, for random 2- and 3-qubit protocols with
        # 2 to 5 pulses, and the pi-2pi-pi protocol, whose |01> and |10>
        # blocks are dark to one pulse
        rng = np.random.default_rng(20)
        protocols = [jp_protocol()] + [
            random_protocol(rng, n_qubits=n_qubits, n_pulses=n_pulses)
            for n_qubits in (2, 3)
            for n_pulses in (2, 3, 4, 5)
        ]
        for protocol in protocols:
            envelopes = envelopes_for_protocol(protocol, shape=shape)
            blocks = block_decompose(protocol)
            want = {
                block.initial_state: float(abs(analytic - integrate_block(block, envelopes)[0, 0]))
                for block, analytic in zip(blocks, diagonal_amplitudes(protocol))
            }
            got = validate_protocol(protocol, shape=shape).deviations
            assert list(got) == list(want)
            np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=0, atol=1e-13)
        assert want["1" * protocol.n_qubits] == 0.0

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
