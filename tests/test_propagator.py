import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import (
    LengthMismatchError,
    NoDarkSubspaceError,
    UnsupportedPulseCountError,
    dark_state,
    rotate_areas,
    u11alpha,
    u11v_esop,
    u11v_esop_exact,
    u11v_sop,
    u11v_threepulse,
)
from sopgate import (
    DimensionMismatchError,
    NotNormalizedError,
    Protocol,
    Pulse,
    StructuralVector,
    basis_labels,
    cphase_signature,
    make_structural_vector,
    sop_family,
)
from sopgate.fidelity import alternating_amplitudes, family_diagonal_grid, fidelity_from_rows, pulse_areas
from sopgate.propagator import (
    block_decompose,
    diagonal_amplitudes,
    register_amplitudes,
    sequence_amplitude,
    star_propagator,
)

PI = math.pi
A_01 = math.sqrt(0.9)
B_01 = math.sqrt(0.1)


def jp_protocol():
    """The pi-2pi-pi protocol: the symmetric orthogonal family at b^2 = 0."""
    return sop_family(b2=0.0).protocol(2 * PI, 2 * PI)


def sop_protocol(b2, area_odd=2 * PI, area_even=2 * PI, c2=0.0):
    return sop_family(b2=b2, c2=c2).protocol(area_odd, area_even)


def expm_reference(coupling, theta):
    """Independent propagator: exponentiate the constant-Rabi Hamiltonian.

    With Omega = 1 the mixing angle theta = area/2 accumulates over a duration
    of 2*theta.
    """
    v = np.atleast_1d(np.asarray(coupling, dtype=float))
    dim = v.size + 1
    h_mat = np.zeros((dim, dim))
    h_mat[0, 1:] = -0.5 * v
    h_mat[1:, 0] = -0.5 * v
    return expm(-1j * h_mat * 2.0 * theta)


class TestStarPropagator:
    def test_first_row_entries(self):
        u = star_propagator((A_01, B_01), PI / 2)
        np.testing.assert_allclose(u[0, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(u[0, 1], 1j * A_01, atol=1e-15)
        np.testing.assert_allclose(u[0, 2], 1j * B_01, atol=1e-15)

    def test_empty_coupling_is_identity(self):
        u = star_propagator((), 1.234)
        assert u.shape == (1, 1)
        assert u[0, 0] == 1.0

    def test_zero_coupling_is_identity(self):
        np.testing.assert_array_equal(star_propagator((0.0, 0.0), 2.0), np.eye(3))

    def test_broadcast_over_couplings_equals_rows(self):
        rng = np.random.default_rng(3)
        couplings = rng.normal(size=(5, 4, 3))
        couplings[1, 2] = 0.0  # a zero row gives the identity
        thetas = rng.uniform(-8 * PI, 8 * PI, size=(5, 1))
        batch = star_propagator(couplings, thetas)
        assert batch.shape == (5, 4, 4, 4)
        for i, j in itertools.product(range(5), range(4)):
            np.testing.assert_array_equal(batch[i, j], star_propagator(couplings[i, j], thetas[i, 0]))
        np.testing.assert_array_equal(batch[1, 2], np.eye(4))

    def test_matches_matrix_exponential(self):
        # oracle: direct exponentiation of the star Hamiltonian
        u = star_propagator((0.6, 0.8, 0.0), PI)
        np.testing.assert_allclose(u, expm_reference((0.6, 0.8, 0.0), PI), atol=1e-12)

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=-8 * PI, max_value=8 * PI),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitary_and_matches_expm(self, dim, theta, raw_seed):
        rng = np.random.default_rng(raw_seed)
        v = rng.normal(size=dim)
        u = star_propagator(v, theta)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(dim + 1), atol=1e-12)
        np.testing.assert_allclose(u, expm_reference(v, theta), atol=1e-11)

    def test_two_level_reduction_exact(self):
        # one-dimensional coupling alpha: rotation angle alpha * theta, exactly
        for alpha in (0.37, -0.8, 1.0):
            for theta in (0.3, -2.0, PI):
                u = star_propagator((alpha,), theta)
                angle = abs(alpha) * theta
                assert u[0, 0] == math.cos(angle)
                expected_off = 1j * math.copysign(1.0, alpha) * math.sin(angle)
                assert u[0, 1] == expected_off

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_exactly_symmetric(self, n):
        # register_amplitudes carries ground columns as rows: U == U^T bit for bit.
        rng = np.random.default_rng(20 + n)
        couplings = rng.normal(size=(6, 1, n))
        couplings[2] = 0.0
        thetas = rng.uniform(-8 * PI, 8 * PI, size=(1, 5))
        for u in (
            star_propagator(couplings, thetas),
            star_propagator(couplings[0, 0], 0.4),
            star_propagator(np.zeros(n), 1.3),
        ):
            np.testing.assert_array_equal(u, np.swapaxes(u, -1, -2))

    def test_batch_matches_scalar(self):
        thetas = np.linspace(-2 * PI, 2 * PI, 12).reshape(3, 4)
        for coupling in ((0.6, 0.8), (0.3, -0.2, 0.5), (0.0, 0.0), ()):
            batch = star_propagator(coupling, thetas)
            dim = len(coupling) + 1
            assert batch.shape == (3, 4, dim, dim)
            for i, j in np.ndindex(thetas.shape):
                np.testing.assert_array_equal(
                    batch[i, j], star_propagator(coupling, float(thetas[i, j]))
                )


class TestDarkState:
    def test_two_dim_convention(self):
        np.testing.assert_allclose(dark_state((1.0, 0.0)), [[0.0, 1.0]], atol=0)
        a, b = 0.6, 0.8
        np.testing.assert_allclose(dark_state((a, b)), [[-b, a]], atol=1e-15)

    def test_invariance_under_propagation(self):
        d = dark_state((0.6, 0.8))[0]
        u = star_propagator((0.6, 0.8), 1.234)
        vec = np.concatenate([[0.0], d])
        np.testing.assert_allclose(u @ vec, vec, atol=1e-12)

    @given(
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=-6 * PI, max_value=6 * PI),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_dark_subspace_pointwise_fixed(self, dim, theta, raw_seed):
        rng = np.random.default_rng(raw_seed)
        v = rng.normal(size=dim)
        if np.linalg.norm(v) < 1e-3:
            return
        basis = dark_state(v)
        assert basis.shape == (dim - 1, dim)
        np.testing.assert_allclose(basis @ basis.T, np.eye(dim - 1), atol=1e-12)
        u = star_propagator(v, theta)
        for row in basis:
            vec = np.concatenate([[0.0], row])
            np.testing.assert_allclose(u @ vec, vec, atol=1e-12)

    def test_needs_two_dimensions(self):
        with pytest.raises(NoDarkSubspaceError):
            dark_state((1.0,))


class TestBlockDecompose:
    def test_two_qubit_blocks(self):
        p = sop_protocol(0.1)
        blocks = {b.initial_state: b for b in block_decompose(p)}
        assert blocks["00"].zero_qubits == (0, 1)
        np.testing.assert_allclose(blocks["00"].couplings[0], (A_01, B_01), atol=1e-15)
        assert blocks["01"].zero_qubits == (0,)
        np.testing.assert_allclose(blocks["01"].couplings[:, 0], (A_01, -B_01, A_01), atol=1e-15)
        assert blocks["11"].zero_qubits == ()
        assert blocks["11"].dimension == 1

    def test_three_qubit_mixed_block(self):
        p = sop_protocol(0.1, c2=0.1)
        blocks = {b.initial_state: b for b in block_decompose(p)}
        block = blocks["010"]
        assert block.zero_qubits == (0, 2)
        assert block.dimension == 3
        # couplings are (a_k, c_k): strictly inside the unit ball
        norms = np.linalg.norm(block.couplings, axis=1)
        assert np.all(norms < 1.0)

    def test_coupling_norm_bounded(self):
        p = sop_protocol(0.3, c2=0.2)
        for block in block_decompose(p):
            norms = np.linalg.norm(block.couplings, axis=1)
            assert np.all(norms <= 1 + 1e-12)


def full_register_propagator(protocol):
    """Propagator of the whole register, built without block_decompose.

    The basis is {0, 1, r}^n with every multiply-excited state projected out
    (perfect blockade). Within one pulse H(t) = Omega(t) P_full with constant
    P_full, and Hamiltonians at different times commute, so the pulse
    propagator is exactly expm(-i * area * P_full).
    """
    n = protocol.n_qubits
    states = ["".join(s) for s in itertools.product("01r", repeat=n) if s.count("r") <= 1]
    index = {s: i for i, s in enumerate(states)}
    u_tot = np.eye(len(states), dtype=complex)
    for pulse in protocol.pulses:
        p_full = np.zeros((len(states), len(states)))
        for state in states:
            if "r" in state:
                continue
            for q, (ch, v_q) in enumerate(zip(state, pulse.vector.components)):
                if ch == "0":
                    excited = index[state[:q] + "r" + state[q + 1 :]]
                    p_full[excited, index[state]] = p_full[index[state], excited] = -0.5 * v_q
        u_tot = expm(-1j * pulse.area * p_full) @ u_tot
    return u_tot, index


class TestFullRegister:
    """Check the block decomposition against the undecomposed register.

    Both the per-state amplitudes of :func:`sequence_amplitude` and the
    blocks of :func:`block_decompose` must reproduce the full-register
    return amplitudes.
    """

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_return_amplitudes_match_blocks(self, n_qubits):
        rng = np.random.default_rng(77 + n_qubits)
        labels = ["".join(bits) for bits in itertools.product("01", repeat=n_qubits)]
        for _ in range(10):
            pulses = []
            for _ in range(int(rng.integers(2, 6))):
                v = rng.normal(size=n_qubits)
                v /= np.linalg.norm(v)
                pulses.append(
                    Pulse(float(rng.uniform(-8 * PI, 8 * PI)), StructuralVector(tuple(v)))
                )
            protocol = Protocol(tuple(pulses), n_qubits)
            u_full, index = full_register_propagator(protocol)
            assert len(index) == {2: 8, 3: 20}[n_qubits]
            computational = u_full[np.ix_([index[s] for s in labels], [index[s] for s in labels])]
            expected = np.diag([sequence_amplitude(protocol, s) for s in labels])
            np.testing.assert_allclose(computational, expected, rtol=0, atol=1e-9)
            for block in block_decompose(protocol):
                u_block = np.eye(block.dimension, dtype=complex)
                for coupling, pulse in zip(block.couplings, protocol.pulses):
                    u_block = star_propagator(coupling, pulse.theta) @ u_block
                full_amp = u_full[index[block.initial_state], index[block.initial_state]]
                assert abs(u_block[0, 0] - full_amp) < 1e-9


def random_protocol(rng, n_qubits, n_pulses):
    pulses = []
    for _ in range(n_pulses):
        v = rng.normal(size=n_qubits)
        v /= np.linalg.norm(v)
        pulses.append(Pulse(float(rng.uniform(-8 * PI, 8 * PI)), StructuralVector(tuple(v))))
    return Protocol(tuple(pulses), n_qubits)


def scalar_composition(protocol, label):
    """Reference: the per-state loop the kernel replaced, :func:`matrix_chain` of one protocol."""
    vectors = [pulse.vector.components for pulse in protocol.pulses]
    return complex(matrix_chain(vectors, [pulse.theta for pulse in protocol.pulses], label))


def matrix_chain(vectors, thetas, label):
    """U[0, 0] of the d×d chain U = P_M ⋯ P_1 of the block of ``label``, over broadcast angles.

    One star propagator per pulse, each multiplied onto the product so far,
    starting from the identity.
    """
    zq = [i for i, ch in enumerate(label) if ch == "0"]
    u_mat = np.eye(1 + len(zq), dtype=complex)
    for vector, theta in zip(vectors, thetas):
        u_mat = star_propagator(np.asarray(vector, dtype=float)[zq], theta) @ u_mat
    return u_mat[..., 0, 0]


class TestBlockAmplitudes:
    @pytest.mark.parametrize("n_qubits", [2, 3])
    @pytest.mark.parametrize("n_pulses", [1, 2, 3, 4, 5])
    def test_matches_scalar_composition_bitwise(self, n_qubits, n_pulses):
        rng = np.random.default_rng(100 * n_qubits + n_pulses)
        labels = basis_labels(n_qubits)
        for _ in range(30):
            protocol = random_protocol(rng, n_qubits, n_pulses)
            expected = [scalar_composition(protocol, label) for label in labels]
            np.testing.assert_array_equal(diagonal_amplitudes(protocol), expected)
            for label, amp in zip(labels, expected):
                assert sequence_amplitude(protocol, label) == amp

    def test_broadcasts_over_angle_arrays(self):
        rng = np.random.default_rng(5)
        couplings = rng.normal(size=(3, 2))
        grid = rng.uniform(-3 * PI, 3 * PI, size=(2, 4, 5))
        thetas = [grid[0], 0.7, grid[1]]
        amps = register_amplitudes(couplings, thetas)
        assert amps.shape == (4, 5, 4)
        for i, j in np.ndindex(4, 5):
            point = [float(grid[0, i, j]), 0.7, float(grid[1, i, j])]
            np.testing.assert_array_equal(amps[i, j], register_amplitudes(couplings, point))

    def test_one_star_propagator_per_angle_shape(self, monkeypatch):
        import sopgate.propagator

        calls = []
        original = sopgate.propagator.star_propagator

        def counted(coupling, theta):
            calls.append(np.ravel(theta).tolist())
            return original(coupling, theta)

        monkeypatch.setattr(sopgate.propagator, "star_propagator", counted)
        register_amplitudes([(0.6, 0.8), (-0.8, 0.6), (0.6, 0.8)], [0.1, 0.2, 0.3])
        # Pulses with angles of one shape share one call, which covers blocks 00, 01 and 10.
        assert calls == [[0.1, 0.2, 0.3]]

    def test_large_stack_built_per_block_dimension(self, monkeypatch):
        import sopgate.propagator

        widths = []
        original = sopgate.propagator.star_propagator

        def counted(coupling, theta):
            widths.append(np.shape(coupling)[-1])
            return original(coupling, theta)

        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(2, 80, 3))
        thetas = [rng.uniform(-8 * PI, 8 * PI, size=80) for _ in range(2)]
        monkeypatch.setattr(sopgate.propagator, "star_propagator", counted)
        amps = register_amplitudes(vectors, thetas, [0, 1, 0])
        # 2 pulses x 7 blocks x 80 rows is over _ONE_BUILD: one call per block dimension.
        assert widths == [1, 2, 3]
        for row in (0, 41, 79):
            widths.clear()
            alone = register_amplitudes(vectors[:, row], [t[row] for t in thetas], [0, 1, 0])
            assert widths == [3]
            np.testing.assert_array_equal(amps[row], alone)

    def test_register_amplitudes_equal_blocks_row_by_row(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(4, 6, 3))  # pulse, row, qubit
        vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
        thetas = [rng.uniform(-8 * PI, 8 * PI, size=6) for _ in range(4)]
        amps = register_amplitudes(vectors, thetas)
        assert amps.shape == (6, 8)
        for row in range(6):
            # Area 2 theta halves back to theta exactly.
            pulses = tuple(
                Pulse(2.0 * t[row], StructuralVector(tuple(v[row]))) for v, t in zip(vectors, thetas)
            )
            protocol = Protocol(pulses, 3)
            expected = [scalar_composition(protocol, label) for label in basis_labels(3)]
            np.testing.assert_array_equal(amps[row], expected)

    def test_empty_sequence_is_identity(self):
        np.testing.assert_array_equal(register_amplitudes(np.zeros((0, 2)), []), [1, 1, 1, 1])
        np.testing.assert_array_equal(diagonal_amplitudes(Protocol((), 2)), [1, 1, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            register_amplitudes([(0.6, 0.8), (0.8, 0.6)], [0.1])


class TestSmallBatches:
    """Batches of 1 to 40 rows, the optimizer's sizes, equal their rows called one at a time."""

    @pytest.mark.parametrize("n_qubits", [2, 3])
    @pytest.mark.parametrize("m_pulses", [1, 2, 3, 4, 5, 6])
    def test_rows_equal_one_row_calls_bitwise(self, n_qubits, m_pulses):
        rng = np.random.default_rng(10 * n_qubits + m_pulses)
        target = cphase_signature(n_qubits)

        def fidelities(amplitudes):
            return fidelity_from_rows(amplitudes, target)

        for n_rows in range(1, 41):
            odd, even = rng.normal(size=(2, n_rows, n_qubits))
            areas = rng.uniform(-8 * PI, 8 * PI, size=(2, n_rows))
            batch = alternating_amplitudes(odd, even, *areas, m_pulses)
            reduced = alternating_amplitudes(odd, even, *areas, m_pulses, fidelities)
            assert batch.shape == (n_rows, 2**n_qubits) and reduced.shape == (n_rows,)
            for row in range(n_rows):
                alone = (odd[row], even[row], areas[0, row], areas[1, row], m_pulses)
                assert batch[row].tobytes() == alternating_amplitudes(*alone).tobytes()
                assert reduced[row].tobytes() == alternating_amplitudes(*alone, fidelities).tobytes()


def _batch_shapes():
    """Inputs (vectors, thetas, order) of the kernel's batch shapes, 30 or 20 rows long."""
    rng = np.random.default_rng(24)
    angles = rng.uniform(-8 * PI, 8 * PI, size=(4, 30))
    return {
        # Optimizer candidates: vector rows with per-row angles.
        "candidates": (rng.normal(size=(2, 30, 3)), [angles[0], angles[1]], [0, 1, 0]),
        # A b scan: vector rows, scalar angles.
        "b-scan": (rng.normal(size=(2, 30, 2)), [1.1 * PI, 0.6 * PI], [0, 1, 0]),
        # A robustness scan: shared vectors, angle rows.
        "robustness": (rng.normal(size=(4, 2)), list(angles), None),
        # A map: 20 odd rows, the even axis broadcast along them.
        "map": (rng.normal(size=(2, 3)), [angles[0, :20, None], angles[1, None, :9]], [0, 1, 0, 1, 0]),
    }


class TestBuildChunks:
    @pytest.mark.parametrize("kind", ["candidates", "b-scan", "robustness", "map"])
    def test_chunked_batch_equals_whole_batch_bytewise(self, kind, monkeypatch):
        import sopgate.propagator

        vectors, thetas, order = _batch_shapes()[kind]
        whole = register_amplitudes(vectors, thetas, order)
        # A budget under 4 rows still gets chunks of 4 rows.
        monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", 1)
        chunked = register_amplitudes(vectors, thetas, order)
        assert chunked.shape == whole.shape
        assert chunked.tobytes() == whole.tobytes()
        # Both are contiguous, basis axis last.
        assert chunked.flags.c_contiguous and whole.flags.c_contiguous
        # Each chunk's amplitudes, basis axis last, reduce to its rows of the result.
        chunks = []

        def ground_state(amplitudes):
            chunks.append(amplitudes.shape[0])
            return amplitudes[..., 0]

        reduced = register_amplitudes(vectors, thetas, order, ground_state)
        n_rows = len(whole)
        assert chunks == [4] * (n_rows // 4) + [n_rows % 4] * (n_rows % 4 > 0)
        assert reduced.tobytes() == whole[..., 0].tobytes()

    def test_star_propagator_never_sees_more_rows_than_the_bound(self, monkeypatch):
        import sopgate.propagator

        rows, chunks = [], []
        original = sopgate.propagator.star_propagator

        def counted(coupling, theta):
            # Built stacks are (pulse, block, *batch): the first batch axis is axis 2.
            rows.append(np.broadcast_shapes(np.shape(coupling)[:-1], np.shape(theta))[2])
            return original(coupling, theta)

        def recorded(amplitudes):
            chunks.append(amplitudes.shape[0])
            return amplitudes[..., 0]

        rng = np.random.default_rng(64)
        odd, even = rng.normal(size=(2, 1000, 3))
        areas = rng.uniform(-8 * PI, 8 * PI, size=(2, 1000))
        monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", 2**18)
        monkeypatch.setattr(sopgate.propagator, "star_propagator", counted)
        assert alternating_amplitudes(odd, even, *areas, reduce=recorded).shape == (1000,)
        assert len(chunks) > 1 and sum(chunks) == 1000
        assert rows and max(rows) <= max(chunks)

    def test_optimizer_batch_fills_the_budget_with_built_propagators(self, monkeypatch):
        import sopgate.propagator

        # A 3-qubit candidate row holds 8 amplitudes, 16 carried entries and
        # two varying pulses' propagators: 3 blocks of 2×2, 3 of 3×3 and one 4×4.
        row_bytes = 16 * (8 + 16 + 2 * (3 * 4 + 3 * 9 + 16))
        rows_per_chunk = 4 * (sopgate.propagator._CHUNK_BYTES // (4 * row_bytes))
        built, per_chunk = [], []
        original = sopgate.propagator.star_propagator

        def counted(coupling, theta):
            propagators = original(coupling, theta)
            built.append(propagators.nbytes)
            return propagators

        def recorded(amplitudes):
            per_chunk.append(sum(built))
            built.clear()
            return amplitudes[..., 0]

        rng = np.random.default_rng(75)
        odd, even = rng.normal(size=(2, 2 * rows_per_chunk, 3))
        areas = rng.uniform(-8 * PI, 8 * PI, size=(2, 2 * rows_per_chunk))
        monkeypatch.setattr(sopgate.propagator, "star_propagator", counted)
        alternating_amplitudes(odd, even, *areas, reduce=recorded)
        assert len(per_chunk) == 2
        assert min(per_chunk) >= 0.75 * sopgate.propagator._CHUNK_BYTES


class TestGroundRows:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 642, 1282])
    def test_stacked_rows_step_as_product_columns_bitwise(self, dim, m):
        # m running products U share one propagator P; their ground columns,
        # stacked as the rows of one gemm, must step as column 0 of P @ U.
        rng = np.random.default_rng(10 * dim + m)
        u = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
        p = star_propagator(rng.normal(size=dim - 1), rng.uniform(-8 * PI, 8 * PI))
        rows = np.ascontiguousarray(u[:, :, 0])
        np.testing.assert_array_equal(rows @ p, (p @ u)[:, :, 0])

    @pytest.mark.parametrize("n_odd, n_even", [(1, 1), (1, 7), (7, 1), (3, 641)])
    @pytest.mark.parametrize("m_pulses", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("b2, c2", [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)])
    def test_map_equals_matrix_chain_bitwise(self, n_odd, n_even, m_pulses, b2, c2):
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, n_odd)
        even = np.linspace(-7.9 * PI, 7.7 * PI, n_even)
        diag = family_diagonal_grid(family, odd, even)
        areas = pulse_areas(odd[:, None], even[None, :], m_pulses)
        vectors = [(family.vector_odd, family.vector_even)[k % 2].components for k in range(m_pulses)]
        thetas = [0.5 * areas[k % 2] for k in range(m_pulses)]
        protocol = family.protocol(odd[0], even[0])
        for s, label in enumerate(basis_labels(family.n_qubits)):
            amps = diag[..., s]
            chain = np.broadcast_to(matrix_chain(vectors, thetas, label), amps.shape)
            np.testing.assert_array_equal(amps, chain)
            assert amps[0, 0] == scalar_composition(protocol, label)

    @pytest.mark.parametrize("m_pulses", [2, 3, 5])
    def test_four_qubit_grid_equals_its_points_bitwise(self, m_pulses):
        # Blocks of dimension 5 can differ from the d x d product order in the
        # last bit, but a grid still equals its single points.
        rng = np.random.default_rng(m_pulses)
        odd_vector, even_vector = rng.normal(size=(2, 4))
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 9)
        even = np.linspace(-7.9 * PI, 7.7 * PI, 11)
        vectors, order = [odd_vector, even_vector], [k % 2 for k in range(m_pulses)]
        grid = register_amplitudes(vectors, [odd[:, None], even[None, :]], order)
        assert grid.shape == (9, 11, 16)
        for i, j in np.ndindex(9, 11):
            point = register_amplitudes(vectors, [odd[i], even[j]], order)
            np.testing.assert_array_equal(grid[i, j], point)


class TestSequenceAmplitude:
    def test_jp_flips_ground_state(self):
        p = jp_protocol()
        assert sequence_amplitude(p, "00") == pytest.approx(-1.0, abs=1e-15)

    def test_all_ones_is_inert(self):
        for p in (jp_protocol(), sop_protocol(0.04, c2=0.09)):
            label = "1" * p.n_qubits
            assert sequence_amplitude(p, label) == 1.0 + 0.0j

    def test_sop_example_value(self):
        # theta1 = theta2 = (a+b)*pi/2, the smallest rotated optimum; the
        # expected value is frozen from the closed form evaluated directly
        theta = (A_01 + B_01) * PI / 2
        p = sop_protocol(0.1, 4 * theta, 2 * theta)
        amp = sequence_amplitude(p, "00")
        assert amp.imag == pytest.approx(0.0, abs=1e-14)
        assert amp.real == pytest.approx(-0.9026545669182094, abs=1e-12)
        assert amp.real == pytest.approx(u11v_sop(theta, theta), abs=1e-12)

    def test_diagonal_amplitudes_order(self):
        p = jp_protocol()
        diag = diagonal_amplitudes(p)
        np.testing.assert_allclose(diag, [-1, -1, -1, 1], atol=1e-14)


class TestClosedForms:
    def test_threepulse_orthogonal_reduces_to_sop(self):
        e1 = make_structural_vector((A_01, B_01))
        e2 = make_structural_vector((-B_01, A_01))
        for th1, th2 in [(0.3, 1.1), (PI / 2, 0.77), (2.0, -1.3)]:
            value = u11v_threepulse(e1, e2, e1, th1, th2, th1)
            assert value == pytest.approx(u11v_sop(th1, th2), abs=1e-14)

    def test_half_pi_first_pulse_locks_inversion(self):
        e1 = make_structural_vector((A_01, B_01))
        e2 = make_structural_vector((-B_01, A_01))
        for th2 in np.linspace(-PI, PI, 11):
            assert u11v_threepulse(e1, e2, e1, PI / 2, th2, PI / 2) == pytest.approx(
                -1.0, abs=1e-12
            )
            assert u11v_sop(PI / 2, th2) == pytest.approx(-1.0, abs=1e-12)

    def test_threepulse_matches_matrix_product(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            vecs = []
            for _ in range(3):
                v = rng.normal(size=dim)
                vecs.append(make_structural_vector(v))
            thetas = rng.uniform(-2 * PI, 2 * PI, size=3)
            u_tot = np.eye(dim + 1, dtype=complex)
            for vec, theta in zip(vecs, thetas):
                u_tot = star_propagator(vec.as_array(), theta) @ u_tot
            closed = u11v_threepulse(*vecs, *thetas)
            assert abs(u_tot[0, 0].imag) < 1e-12
            assert closed == pytest.approx(u_tot[0, 0].real, abs=1e-12)

    def test_threepulse_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            u11v_threepulse(
                make_structural_vector((1, 0)),
                make_structural_vector((1, 0, 0)),
                make_structural_vector((0, 1)),
                1.0,
                1.0,
                1.0,
            )

    def test_sop_value_at_rounded_angles(self):
        # frozen from direct evaluation of the closed form
        assert u11v_sop(0.63245 * PI, 0.63245 * PI) == pytest.approx(
            -0.9026596261540086, abs=1e-12
        )

    def test_sop_quartic_error_expansion(self):
        d1, d2 = 0.1, 0.2
        value = u11v_sop(PI / 2 + d1, PI + d2)
        assert value == pytest.approx(-0.9998013293405202, abs=1e-12)
        quartic = -1 + (2 * d2**2 - d1**2) * d1**2 / 4
        assert value == pytest.approx(quartic, abs=3e-5)

    def test_quartic_robustness_slope(self):
        deltas = np.logspace(-3, -1, 20)
        residual = np.abs(u11v_sop(PI / 2 + deltas, PI + 2 * deltas) + 1.0)
        slope = np.polyfit(np.log(deltas), np.log(residual), 1)[0]
        assert 3.8 <= slope <= 4.2

    def test_sop_b_independence(self):
        th1, th2 = 0.8, 1.9
        values = []
        for b2 in np.linspace(0.0, 0.5, 11):
            p = sop_protocol(b2, 4 * th1, 2 * th2)
            values.append(sequence_amplitude(p, "00").real)
        assert np.ptp(values) < 1e-12


class TestU11Alpha:
    def test_independent_qubits(self):
        p = jp_protocol()
        assert u11alpha(p, (1.0, 0.0, 1.0)) == pytest.approx(-1.0, abs=1e-15)
        assert u11alpha(p, (0.0, 1.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_sop_subsystem_value(self):
        # cos((a - b) * pi), frozen from direct evaluation
        p = sop_protocol(0.1)
        value = u11alpha(p, (A_01, -B_01, A_01))
        assert value == pytest.approx(math.cos((A_01 - B_01) * PI), abs=1e-14)
        assert value == pytest.approx(-0.40421582074717644, abs=1e-12)

    def test_rotated_areas_recover_inversion(self):
        area_odd = 2 * PI * (A_01 + B_01)
        area_even = 2 * PI * (A_01 - B_01)
        p = sop_protocol(0.1, area_odd, area_even)
        assert u11alpha(p, (A_01, -B_01, A_01)) == pytest.approx(-1.0, abs=1e-12)
        assert u11alpha(p, (B_01, A_01, B_01)) == pytest.approx(-1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            u11alpha(jp_protocol(), (1.0, 0.0))


class TestRotateAreas:
    def test_identity_at_b0(self):
        assert rotate_areas(1.0, 0.0, 1.7, -0.4) == (1.7, -0.4)

    def test_maps_displaced_point_to_lattice(self):
        rotated = rotate_areas(A_01, B_01, 2 * PI * (A_01 + B_01), 2 * PI * (A_01 - B_01))
        np.testing.assert_allclose(rotated, (2 * PI, 2 * PI), atol=1e-12)

    def test_inverse_is_transpose(self):
        x, y = 1.3, -2.7
        forward = rotate_areas(A_01, B_01, x, y)
        back = rotate_areas(A_01, -B_01, *forward)
        np.testing.assert_allclose(back, (x, y), atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            rotate_areas(0.9, 0.1, 1.0, 1.0)


class TestEsopClosedForms:
    def test_m3_equals_sop(self):
        thetas = np.linspace(-PI, PI, 9)
        for to in thetas:
            for te in thetas:
                assert u11v_esop(3, to, te) == pytest.approx(u11v_sop(to, te), abs=1e-14)

    def test_m2_example(self):
        assert u11v_esop(2, PI, 0.0) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3])
    def test_low_m_printed_forms_are_exact(self, m):
        to = np.linspace(-PI, PI, 41)
        te = np.linspace(-PI, PI, 41)
        grid_o, grid_e = np.meshgrid(to, te)
        np.testing.assert_allclose(
            u11v_esop(m, grid_o, grid_e), u11v_esop_exact(m, grid_o, grid_e), atol=1e-12
        )

    @pytest.mark.parametrize("m", [4, 5])
    def test_high_m_printed_forms_disagree_with_product(self, m):
        # The compact published expressions for M = 4, 5 are not the matrix
        # product: they leave [-1, 1] away from the optima. The product is
        # ground truth (it is unitary and matches the time-domain integration).
        to = np.linspace(-PI, PI, 41)
        te = np.linspace(-PI, PI, 41)
        grid_o, grid_e = np.meshgrid(to, te)
        printed = u11v_esop(m, grid_o, grid_e)
        exact = u11v_esop_exact(m, grid_o, grid_e)
        assert np.max(np.abs(printed - exact)) > 0.5
        assert printed.min() < -1.5
        assert np.all(np.abs(exact) <= 1 + 1e-12)

    def test_exact_matches_star_composition(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 4, 5, 7):
            to, te = rng.uniform(-PI, PI, size=2)
            u_odd = star_propagator((1.0, 0.0), to)
            u_even = star_propagator((0.0, 1.0), te)
            u_tot = np.eye(3, dtype=complex)
            for k in range(m):
                u_tot = (u_odd if k % 2 == 0 else u_even) @ u_tot
            assert u11v_esop_exact(m, to, te) == pytest.approx(u_tot[0, 0].real, abs=1e-12)

    def test_unsupported_pulse_count(self):
        with pytest.raises(UnsupportedPulseCountError):
            u11v_esop(6, 1.0, 1.0)
