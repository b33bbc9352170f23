import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sopgate.propagator
from oracles import negated
from sopgate import (
    EmptyGridError,
    FidelityMap,
    GridSpec,
    GridTooLargeError,
    NoMaximaFoundError,
    ProtocolFamily,
    SignatureMismatchError,
    StructuralVector,
    b_scan,
    basis_labels,
    cphase_signature,
    fidelity_from_amplitudes,
    fidelity_map,
    gate_fidelity,
    lattice_analysis,
    map_maxima,
    optimize_third_qubit,
    robustness_scan,
    sop_family,
)
from sopgate.fidelity import (
    _CSV_BLOCK_CELLS,
    FIDELITY_DEFINITIONS,
    MAX_GRID_POINTS,
    alternating_amplitudes,
    family_diagonal_grid,
    fidelity_from_rows,
    lattice_report_dict,
    map_csv_text,
)
from sopgate.propagator import diagonal_amplitudes

PI = math.pi
TARGET_2Q = cphase_signature(2)


def jp_protocol():
    """The pi-2pi-pi protocol: the symmetric orthogonal family at b^2 = 0."""
    return sop_family(b2=0.0).protocol(2 * PI, 2 * PI)


def per_cell_map_csv_text(fmap):
    """Reference CSV rendering: one formatted line per grid point."""
    buf = io.StringIO()
    buf.write("a_odd_over_pi,a_even_over_pi,fidelity\n")
    odd_pi = fmap.axis_odd / math.pi
    even_pi = fmap.axis_even / math.pi
    for i, ao in enumerate(odd_pi):
        row = fmap.values[i]
        for j, ae in enumerate(even_pi):
            buf.write(f"{ao:.9g},{ae:.9g},{row[j]:.9g}\n")
    return buf.getvalue()


@pytest.fixture(scope="module")
def map_b2_01():
    return fidelity_map(sop_family(b2=0.1))


class TestGateFidelity:
    def test_jp_is_exact(self):
        assert gate_fidelity(jp_protocol(), TARGET_2Q) == pytest.approx(1.0, abs=1e-15)

    def test_single_even_pulse_calibration(self):
        # frozen from the closed forms: F = ((cos(1.21 pi) + 2 cos(sqrt(0.5)*1.21 pi) + 1)/4)^2
        family = sop_family(b2=0.5)
        fid = gate_fidelity(family.protocol(0.0, 2.42 * PI), TARGET_2Q)
        assert fid == pytest.approx(0.8045476980875096, abs=1e-12)
        # odd-pulses-only variant has the same total area and fidelity
        fid_odd = gate_fidelity(family.protocol(2.42 * PI, 0.0), TARGET_2Q)
        assert fid_odd == pytest.approx(fid, abs=1e-12)

    def test_rotated_lattice_point_value(self):
        a, b = math.sqrt(0.9), math.sqrt(0.1)
        family = sop_family(b2=0.1)
        fid = gate_fidelity(family.protocol(2 * PI * (a + b), 2 * PI * (a - b)), TARGET_2Q)
        assert fid == pytest.approx(0.9519195417929724, abs=1e-12)

    def test_signature_length_checked(self):
        with pytest.raises(SignatureMismatchError):
            gate_fidelity(jp_protocol(), cphase_signature(3))

    def test_global_sign_flip_invariance(self):
        p = sop_family(b2=0.3).protocol(2.6 * PI, 0.8 * PI)
        flipped = type(p)(
            pulses=tuple(type(q)(q.area, negated(q.vector)) for q in p.pulses),
            n_qubits=p.n_qubits,
        )
        assert gate_fidelity(flipped, TARGET_2Q) == pytest.approx(
            gate_fidelity(p, TARGET_2Q), abs=1e-12
        )

    def test_alternate_definitions_ordering(self):
        p = sop_family(b2=0.2).protocol(2.2 * PI, 0.6 * PI)
        diag = diagonal_amplitudes(p)
        trace_sq = fidelity_from_amplitudes(diag, TARGET_2Q, "trace-sq")
        trace = fidelity_from_amplitudes(diag, TARGET_2Q, "trace")
        average = fidelity_from_amplitudes(diag, TARGET_2Q, "average")
        assert trace == pytest.approx(math.sqrt(trace_sq), abs=1e-12)
        assert 0.0 <= trace_sq <= average <= 1.0


class TestFidelityFromRows:
    @pytest.mark.parametrize("definition", FIDELITY_DEFINITIONS)
    def test_each_row_is_its_gate_fidelity(self, definition):
        family = sop_family(b2=0.1, c2=0.1)
        target = cphase_signature(3)
        areas = np.random.default_rng(2).uniform(-8 * PI, 8 * PI, size=(20, 2))
        rows = fidelity_from_rows(family.amplitudes(areas[:, 0], areas[:, 1]), target, definition)
        assert rows.shape == (20,)
        for (area_odd, area_even), value in zip(areas, rows):
            assert value == gate_fidelity(family.protocol(area_odd, area_even), target, definition)

    def test_signature_length_checked(self):
        with pytest.raises(SignatureMismatchError):
            fidelity_from_rows(np.ones((3, 4)), cphase_signature(3))

    @pytest.mark.parametrize("definition", FIDELITY_DEFINITIONS)
    def test_row_layout_leaves_bits_unchanged(self, definition):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(500, 8)) + 1j * rng.normal(size=(500, 8))
        strided = np.asfortranarray(rows)
        got = fidelity_from_rows(strided, cphase_signature(3), definition)
        assert got.tobytes() == fidelity_from_rows(rows, cphase_signature(3), definition).tobytes()

    def test_float_power_squares_as_math_pow(self):
        rng = np.random.default_rng(9)
        edges = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-160, 1e154, 0.5, 2.0]
        edges += [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0 - 2**-30, 1.0 + 2**-30]
        values = np.concatenate(
            [edges, rng.uniform(0.0, 1.0, 20000), rng.uniform(0.999, 1.0, 20000),
             np.exp(rng.uniform(-370.0, 354.0, 20000))]
        )
        expected = np.array([math.pow(v, 2.0) for v in values.tolist()])
        assert np.float_power(values, 2.0).tobytes() == expected.tobytes()


class TestFidelityMap:
    def test_grid_spec(self):
        grid = GridSpec(-8, 8, 0.05)
        assert grid.n_points == 321
        values = grid.values_pi()
        assert values[0] == -8.0 and values[-1] == pytest.approx(8.0)
        with pytest.raises(EmptyGridError):
            GridSpec(1, 0, 0.1)
        with pytest.raises(EmptyGridError):
            GridSpec(0, 1, -0.1)
        for bad in [(0, 1, 0), (0, math.inf, 1), (math.nan, 1, 1), (0, 1, math.nan), (0, 1, math.inf)]:
            with pytest.raises(EmptyGridError):
                GridSpec(*bad)
        assert GridSpec(0, MAX_GRID_POINTS - 1, 1).n_points == MAX_GRID_POINTS
        with pytest.raises(GridTooLargeError):
            GridSpec(0, MAX_GRID_POINTS, 1)
        with pytest.raises(GridTooLargeError):
            GridSpec(0, 1e9, 0.001)
        # each axis under the cap, the map over it
        with pytest.raises(GridTooLargeError):
            fidelity_map(sop_family(b2=0.0), GridSpec(0, 2100, 1))

    def test_independent_qubit_lattice_is_exact(self):
        fmap = fidelity_map(sop_family(b2=0.0))
        maxima = map_maxima(fmap, 0.999999999999)
        assert len(maxima) == 16
        odd_over_pi = sorted(set(np.round(maxima[:, 0] / PI, 9)))
        even_over_pi = sorted(set(np.round(maxima[:, 1] / PI, 9)))
        assert odd_over_pi == [-6.0, -2.0, 2.0, 6.0]
        assert even_over_pi == [-6.0, -2.0, 2.0, 6.0]
        np.testing.assert_allclose(maxima[:, 2], 1.0, atol=1e-12)

    def test_map_values_in_range_and_shape(self, map_b2_01):
        assert map_b2_01.values.shape == (321, 321)
        assert map_b2_01.values.min() >= 0.0
        assert map_b2_01.values.max() <= 1.0 + 1e-9

    def test_map_even_under_area_negation(self, map_b2_01):
        np.testing.assert_allclose(
            map_b2_01.values, map_b2_01.values[::-1, ::-1], atol=1e-12
        )

    def test_minimal_area_optimum_displacement(self, map_b2_01):
        # best point with A_T <= 5 pi sits at larger A_odd, smaller A_even
        # than the independent-qubit optimum (2 pi, 2 pi)
        area_o, area_e = np.meshgrid(map_b2_01.axis_odd, map_b2_01.axis_even, indexing="ij")
        quadrant = (area_o > 0) & (area_e > 0) & (area_o + area_e <= 5 * PI)
        masked = np.where(quadrant, map_b2_01.values, -1.0)
        i, j = np.unravel_index(np.argmax(masked), masked.shape)
        assert masked[i, j] == pytest.approx(0.9634, abs=0.002)
        assert map_b2_01.axis_odd[i] > 2 * PI
        assert map_b2_01.axis_even[j] < 2 * PI

    def test_maxima_density_conserved(self):
        # counts compared on a window large enough that boundary clipping of
        # the rotated lattices is subdominant
        grid = GridSpec(-12, 12, 0.05)
        counts = []
        for b2 in (0.0, 0.1, 0.2, 0.5):
            fmap = fidelity_map(sop_family(b2=b2), grid)
            counts.append(len(map_maxima(fmap, 0.7)))
        mean = np.mean(counts)
        assert np.all(np.abs(np.array(counts) - mean) <= 0.2 * mean)

    @pytest.mark.parametrize("m_pulses", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("b2, c2", [(0.1, 0.0), (0.1, 0.1)])
    def test_grid_matches_pointwise_amplitudes_bitwise(self, m_pulses, b2, c2):
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 4)
        even = np.linspace(-2.9 * PI, 7.7 * PI, 3)
        diag = family_diagonal_grid(family, odd, even)
        assert diag.shape == (len(basis_labels(family.n_qubits)), 4, 3)
        for i, j in np.ndindex(4, 3):
            point = diagonal_amplitudes(family.protocol(odd[i], even[j]))
            np.testing.assert_array_equal(diag[:, i, j], point)


    @pytest.mark.parametrize("n_odd, n_even", [(7, 3), (2, 9)])
    def test_propagators_built_on_axes(self, monkeypatch, n_odd, n_even):
        sizes = []
        original = sopgate.propagator.star_propagator

        def counted(coupling, theta):
            sizes.append(np.size(theta))
            return original(coupling, theta)

        monkeypatch.setattr(sopgate.propagator, "star_propagator", counted)
        family = sop_family(b2=0.1, c2=0.1, m_pulses=4)
        odd = np.linspace(-PI, 3 * PI, n_odd)
        even = np.linspace(-2 * PI, PI, n_even)
        diag = family_diagonal_grid(family, odd, even)
        assert diag.shape == (8, n_odd, n_even)
        # One call per distinct pulse, each on its axis, covering every block dimension.
        assert sizes == [n_odd, n_even]


class TestMapKernelRowsAndChunks:
    @pytest.mark.parametrize("m_pulses", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("b2, c2", [(0.1, 0.0), (0.1, 0.1)])
    @pytest.mark.parametrize("n_odd, n_even", [(1, 7), (7, 1), (2, 9), (9, 2), (3, 641)])
    def test_non_square_grid_matches_pointwise_bitwise(self, m_pulses, b2, c2, n_odd, n_even):
        # Odd pulses take the rows of one odd row, even pulses those of one even column.
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, n_odd)
        even = np.linspace(-7.9 * PI, 7.7 * PI, n_even)
        diag = family_diagonal_grid(family, odd, even)
        assert diag.shape == (2**family.n_qubits, n_odd, n_even)
        for i, j in np.ndindex(n_odd, n_even):
            np.testing.assert_array_equal(diag[:, i, j], family.amplitudes(odd[i], even[j]))

    @pytest.mark.parametrize("m_pulses", [2, 3, 4, 5])
    @pytest.mark.parametrize("b2, c2", [(0.1, 0.0), (0.1, 0.1)])
    def test_row_chunks_keep_every_bit(self, monkeypatch, m_pulses, b2, c2):
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 20)
        even = np.linspace(-2.9 * PI, 7.7 * PI, 13)
        default = family_diagonal_grid(family, odd, even)
        dim = family.n_qubits + 1  # the largest block
        rows_seen = []
        original = sopgate.propagator._row_product

        def recorded(rows, propagators):
            product = original(rows, propagators)
            if product.shape[-1] == dim:
                rows_seen.append(product.shape[1])
            return product

        monkeypatch.setattr(sopgate.propagator, "_row_product", recorded)
        for rows in (1, 2, 7):
            # Two ground rows of dim entries per grid point.
            budget = rows * 16 * 2 * dim * len(even)
            monkeypatch.setattr(sopgate.propagator, "_PRODUCT_BYTES", budget)
            rows_seen.clear()
            np.testing.assert_array_equal(family_diagonal_grid(family, odd, even), default)
            assert max(rows_seen) == rows

    @pytest.mark.parametrize("m_pulses", [2, 3, 4, 5])
    @pytest.mark.parametrize("b2, c2", [(0.1, 0.0), (0.1, 0.1)])
    def test_last_chunk_of_one_odd_row_keeps_every_bit(self, monkeypatch, m_pulses, b2, c2):
        # The largest block's 15 odd rows go in chunks of 7, 7 and 1: one
        # ground row per point, then two for the lone odd row, whose first
        # product shares no propagator.
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 15)
        even = np.linspace(-2.9 * PI, 7.7 * PI, 13)
        dim = family.n_qubits + 1
        chunks = []
        original = sopgate.propagator._row_product

        def recorded(rows, propagators):
            product = original(rows, propagators)
            if product.shape[-1] == dim:
                chunks.append((product.shape[1], product.shape[-2]))
            return product

        monkeypatch.setattr(sopgate.propagator, "_row_product", recorded)
        monkeypatch.setattr(sopgate.propagator, "_PRODUCT_BYTES", 7 * 16 * 2 * dim * len(even))
        diag = family_diagonal_grid(family, odd, even)
        assert sorted(set(chunks)) == [(1, 2), (7, 1)]
        for i, j in np.ndindex(len(odd), len(even)):
            np.testing.assert_array_equal(diag[:, i, j], family.amplitudes(odd[i], even[j]))

    def test_wide_three_qubit_map_stays_in_budget(self, monkeypatch):
        sizes = []
        original = sopgate.propagator._row_product

        def recorded(rows, propagators):
            product = original(rows, propagators)
            sizes.extend((rows.nbytes, product.nbytes))
            return product

        monkeypatch.setattr(sopgate.propagator, "_row_product", recorded)
        axis = GridSpec(-16, 16, 0.05).values_radians()
        assert len(axis) == 641
        family_diagonal_grid(sop_family(b2=0.1, c2=0.1), axis, axis)
        assert 0 < max(sizes) <= sopgate.propagator._PRODUCT_BYTES

    @pytest.mark.parametrize("n_odd, n_even", [(0, 3), (3, 0)])
    def test_empty_axis_gives_empty_grid(self, n_odd, n_even):
        diag = family_diagonal_grid(sop_family(b2=0.1), np.zeros(n_odd), np.ones(n_even))
        assert diag.shape == (4, n_odd, n_even)

    def test_empty_scans_give_empty_curves(self):
        assert b_scan((2, 1), []).shape == (0,)
        curves = robustness_scan(sop_family(b2=0.1).protocol(2 * PI, 2 * PI), [])
        for curve in (curves.delta_area, curves.u11v, curves.u11a, curves.u11b):
            assert curve.shape == (0,)


class TestCarriedRows:
    """One ground row per point, copied to two from the first product whose gemm holds one row.

    Two rows where one would do cost the kernel half its speed but no bit.
    """

    @pytest.fixture
    def carried(self, monkeypatch):
        seen = set()
        original = sopgate.propagator._row_product

        def recorded(rows, propagators):
            product = original(rows, propagators)
            seen.add(product.shape[-2])
            return product

        monkeypatch.setattr(sopgate.propagator, "_row_product", recorded)
        return seen

    @pytest.mark.parametrize("n_odd, n_even", [(2, 2), (2, 9), (9, 2), (321, 321)])
    @pytest.mark.parametrize("b2, c2", [(0.1, 0.0), (0.1, 0.1)])
    def test_map_carries_one_row(self, carried, n_odd, n_even, b2, c2):
        family = sop_family(b2=b2, c2=c2, m_pulses=4)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, n_odd)
        even = np.linspace(-2.9 * PI, 7.7 * PI, n_even)
        family_diagonal_grid(family, odd, even)
        assert carried == {1}

    @pytest.mark.parametrize(
        "n_odd, n_even, rows",
        [(1, 7, {2}), (7, 1, {1, 2}), (1, 1, {2})],
        ids=["1-7", "7-1", "1-1"],
    )
    def test_single_row_or_column_map_carries_two(self, carried, n_odd, n_even, rows):
        # A 7×1 map stacks its 7 points in the first (even) product, then
        # no odd product shares a propagator.
        family = sop_family(b2=0.1, c2=0.1, m_pulses=4)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, n_odd)
        even = np.linspace(-2.9 * PI, 7.7 * PI, n_even)
        family_diagonal_grid(family, odd, even)
        assert carried == rows

    def test_b_scan_carries_two(self, carried):
        b_scan((2, -1.5), np.linspace(0.0, 0.5, 11))
        assert carried == {2}

    def test_robustness_scan_carries_two(self, carried):
        robustness_scan(sop_family(b2=0.1).protocol(2 * PI, 2 * PI), np.linspace(-0.1, 0.1, 11))
        assert carried == {2}

    def test_optimizer_batch_carries_two(self, carried):
        optimize_third_qubit((2.4 * PI, 1.1 * PI), b=math.sqrt(0.1), seed=3, restarts=2)
        assert carried == {2}

    def test_single_protocol_carries_two(self, carried):
        diagonal_amplitudes(sop_family(b2=0.1, c2=0.1).protocol(2 * PI, 2 * PI))
        assert carried == {2}


class TestAlternatingAmplitudes:
    @pytest.mark.parametrize("m_pulses", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_rows_are_their_family_amplitudes_bitwise(self, m_pulses, n_qubits):
        rng = np.random.default_rng(10 * m_pulses + n_qubits)
        rows = rng.normal(size=(2, 6, n_qubits))
        odd, even = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
        area_odd, area_even = rng.uniform(-8 * PI, 8 * PI, size=(2, 6))
        per_row = alternating_amplitudes(odd, even, area_odd, area_even, m_pulses)
        shared = alternating_amplitudes(odd, even, 2.5 * PI, -1.5 * PI, m_pulses)
        assert per_row.shape == shared.shape == (6, 2**n_qubits)
        for r in range(6):
            vectors = (StructuralVector(tuple(v[r].tolist())) for v in (odd, even))
            family = ProtocolFamily(*vectors, m_pulses)
            np.testing.assert_array_equal(per_row[r], family.amplitudes(area_odd[r], area_even[r]))
            np.testing.assert_array_equal(shared[r], family.amplitudes(2.5 * PI, -1.5 * PI))


class TestLatticeAnalysis:
    def test_independent_qubit_geometry(self):
        report = lattice_analysis(fidelity_map(sop_family(b2=0.0)), 0.7)
        assert report.rotation_angle == pytest.approx(0.0, abs=math.radians(0.5))
        assert report.nn_spacing == pytest.approx(4 * PI, abs=0.05 * PI)
        fids = report.maxima[:, 2]
        assert np.all(np.diff(fids) <= 1e-15)

    @pytest.mark.parametrize("b2", [0.1, 0.2, 0.5])
    def test_rotation_tracks_overlap_angle(self, b2):
        fmap = fidelity_map(sop_family(b2=b2))
        report = lattice_analysis(fmap, 0.9)
        expected = math.atan2(math.sqrt(b2), math.sqrt(1 - b2))
        delta = abs(report.rotation_angle - expected) % (PI / 2)
        delta = min(delta, PI / 2 - delta)
        assert delta <= math.radians(3.0)

    def test_no_maxima_raises(self):
        fmap = fidelity_map(sop_family(b2=0.1), GridSpec(0.2, 1.0, 0.1))
        with pytest.raises(NoMaximaFoundError):
            lattice_analysis(fmap, 0.99)

    def test_report_dict_units(self):
        report = lattice_analysis(fidelity_map(sop_family(b2=0.0)), 0.7)
        data = lattice_report_dict(report)
        assert data["nn_spacing_over_pi"] == pytest.approx(4.0, abs=0.05)
        assert data["rotation_angle_deg"] == pytest.approx(0.0, abs=0.5)
        assert data["n_maxima"] == len(data["maxima"])


class TestRobustnessScan:
    def test_all_inverted_at_zero_error(self):
        curves = robustness_scan(jp_protocol(), np.array([0.0]))
        assert curves.u11v[0] == pytest.approx(-1.0, abs=1e-15)
        assert curves.u11a[0] == pytest.approx(-1.0, abs=1e-15)
        assert curves.u11b[0] == pytest.approx(-1.0, abs=1e-15)

    def test_curves_match_pointwise_amplitudes_bitwise(self):
        protocol = sop_family(b2=0.2, m_pulses=4).protocol(2.3 * PI, 1.7 * PI)
        deltas = np.linspace(-0.4 * PI, 0.4 * PI, 7)
        curves = robustness_scan(protocol, deltas)
        for i, delta in enumerate(deltas):
            bumped = type(protocol)(
                pulses=tuple(
                    type(p)(p.area + (delta if k % 2 == 0 else 2.0 * delta), p.vector)
                    for k, p in enumerate(protocol.pulses)
                ),
                n_qubits=2,
            )
            amps = diagonal_amplitudes(bumped)
            assert (curves.u11v[i], curves.u11a[i], curves.u11b[i]) == tuple(amps[:3].real)

    @pytest.mark.parametrize(
        "areas, deltas, pulse",
        [
            ((0.0, 0.0), [0.0, 1e308], 2),  # the even pulse's 2 * delta overflows
            ((-1.6e308, 0.0), [-1e308, 0.0], 1),  # -8e307 - 1e308 overflows
        ],
    )
    def test_shifted_area_past_a_finite_float_refused(self, areas, deltas, pulse):
        protocol = sop_family(b2=0.1).protocol(*areas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyGridError, match=f"pulse {pulse} past a finite area"):
                robustness_scan(protocol, deltas)

    @pytest.mark.parametrize("b2", [0.0, 0.1, 0.5])
    def test_ground_state_curve_is_quartically_flat(self, b2):
        deltas = np.logspace(-3, -1, 12)
        curves = robustness_scan(sop_family(b2=b2).protocol(2 * PI, 2 * PI), deltas)
        slope = np.polyfit(np.log(deltas), np.log(np.abs(curves.u11v + 1.0)), 1)[0]
        assert 3.8 <= slope <= 4.2

    def test_single_qubit_minima_disalign_with_overlap(self):
        deltas = np.linspace(-0.5 * PI, 0.5 * PI, 401)
        gaps = {}
        for b2 in (0.0, 0.1):
            curves = robustness_scan(sop_family(b2=b2).protocol(2 * PI, 2 * PI), deltas)
            gaps[b2] = abs(deltas[np.argmin(curves.u11a)] - deltas[np.argmin(curves.u11b)])
        assert gaps[0.0] == pytest.approx(0.0, abs=1e-12)
        assert gaps[0.1] > 0.1


class TestBScan:
    def test_independent_qubits_are_perfect(self):
        assert b_scan((2, 2), [0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_beats_mirrored_everywhere(self):
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f_orth = b_scan((2, 2), b2_grid, orthogonal=True)
        f_non = b_scan((2, 2), b2_grid, orthogonal=False)
        assert np.all(f_orth >= f_non)
        assert np.max(f_orth - f_non) > 0.03

    def test_large_area_protocol_decays_faster_then_recovers(self):
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f_22 = b_scan((2, 2), b2_grid)
        f_26 = b_scan((2, 6), b2_grid)
        near_zero = b2_grid <= 0.05
        assert np.all(f_26[near_zero] < f_22[near_zero])
        assert f_26.max() > 0.99

    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_equals_pointwise_gate_fidelity(self, orthogonal):
        b2_grid = np.arange(0.0, 0.5001, 0.05)
        scan = b_scan((2.5, -1.5), b2_grid, orthogonal=orthogonal, definition="average")
        for value, b2 in zip(scan, b2_grid):
            protocol = sop_family(b2=b2, orthogonal=orthogonal).protocol(2.5 * PI, -1.5 * PI)
            assert value == gate_fidelity(protocol, TARGET_2Q, "average")

    def test_second_pulse_free_protocol(self):
        # (14, 0): no even pulse at all, still high fidelities at some b
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f = b_scan((14, 0), b2_grid)
        assert f.max() > 0.95


class TestCsvOutput:
    def test_header_and_formatting(self):
        fmap = fidelity_map(sop_family(b2=0.0), GridSpec(-1, 1, 1))
        text = map_csv_text(fmap)
        lines = text.strip().split(b"\n")
        assert lines[0] == b"a_odd_over_pi,a_even_over_pi,fidelity"
        assert len(lines) == 1 + 9
        first = lines[1].split(b",")
        assert first[0] == b"-1" and first[1] == b"-1"
        # nine significant digits
        value = float(first[2])
        assert f"{value:.9g}".encode() == first[2]

    def test_row_major_order(self):
        fmap = fidelity_map(sop_family(b2=0.0), GridSpec(0, 1, 0.5))
        rows = [line.split(b",")[:2] for line in map_csv_text(fmap).strip().split(b"\n")[1:]]
        odd_sequence = [float(r[0]) for r in rows]
        assert odd_sequence == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "family, grid_odd, grid_even",
        [
            (sop_family(b2=0.1), GridSpec(-2, 2, 0.1), None),
            (sop_family(b2=0.1, c2=0.1), GridSpec(-2, 2, 0.1), None),
            (sop_family(b2=0.25, m_pulses=5), GridSpec(-2, 2, 0.1), None),
            (sop_family(b2=0.1), GridSpec(1.5, 1.5, 1), GridSpec(-3, 3, 0.25)),
            (sop_family(b2=0.1), GridSpec(-3, 3, 0.25), GridSpec(1.5, 1.5, 1)),
            (sop_family(b2=0.1), GridSpec(-1, 1, 1), GridSpec(-3, 3, 1)),
        ],
    )
    def test_matches_per_cell_rendering(self, family, grid_odd, grid_even):
        fmap = fidelity_map(family, grid_odd, grid_even)
        shape = (grid_odd.n_points, (grid_even or grid_odd).n_points)
        assert fmap.values.shape == shape
        text = map_csv_text(fmap)
        assert text.count(b"\n") == 1 + shape[0] * shape[1]
        assert text == per_cell_map_csv_text(fmap).encode()

    def test_special_values_match_per_cell_rendering(self):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300]
        # values that round up or down at the 9th significant digit
        rounding = [0.9999999995, 0.99999999949, 1.0000000005, 0.12345678949, 9.9999999951e-5]
        values = np.array(specials + rounding + [123456789.5]).reshape(3, 4)
        axis_odd = np.array([-0.0, 5e-324, 2.0000000005 * PI])
        axis_even = np.array([math.nan, math.inf, -1e-300, 0.99999999949 * PI])
        fmap = FidelityMap(axis_odd=axis_odd, axis_even=axis_even, values=values)
        text = map_csv_text(fmap)
        assert text == per_cell_map_csv_text(fmap).encode()
        assert text.splitlines()[1:5] == [
            b"-0,nan,nan",
            b"-0,inf,inf",
            b"-0,-3.18309886e-301,-inf",
            b"-0,0.999999999,-0",
        ]
        empty = FidelityMap(axis_odd=axis_odd, axis_even=axis_even[:0], values=values[:, :0])
        assert map_csv_text(empty) == per_cell_map_csv_text(empty).encode()

    @pytest.mark.parametrize("m_pulses", [2, 3, 4, 5])
    def test_b2_zero_maps_match_per_cell_rendering(self, m_pulses):
        # These maps hold exact binary ties, F >= 1 and |F| < 1e-15 cells.
        fmap = fidelity_map(sop_family(b2=0.0, m_pulses=m_pulses), GridSpec(-2, 2, 0.05))
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()

    def test_partial_last_block_matches_per_cell_rendering(self):
        n_even = 7
        block = _CSV_BLOCK_CELLS // n_even
        n_odd = 2 * block + 5
        values = 10.0 ** np.random.default_rng(5).uniform(-6, 0.01, (n_odd, n_even))
        fmap = FidelityMap(
            axis_odd=np.linspace(-PI, PI, n_odd), axis_even=np.arange(n_even) * 0.3, values=values
        )
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()


def one_row_map(values):
    values = np.asarray(values, dtype=float)
    return FidelityMap(axis_odd=np.zeros(1), axis_even=np.zeros(values.size), values=values[None, :])


def halfway_values():
    """9th-digit halfway values in each decade of [1e-4, 1), with both float neighbours."""
    digits = np.array([100000000, 123456789, 352539062, 500000000, 999999998, 999999999]) + 0.5
    halfway = np.concatenate([digits / 10.0 ** (9 + zeros) for zeros in range(4)])
    return np.concatenate([halfway, np.nextafter(halfway, 0), np.nextafter(halfway, 1)])


ADVERSARIAL_FIDELITIES = [
    # exact binary ties at the 9th digit (361/1024 rounds down, 527/1024 up), decade edges
    0.3525390625,
    0.5146484375,
    *[1e-4, 9.9999999995e-5, 0.9999999995, 0.99999999949, 0.1, 0.01, 0.001],
    *np.nextafter([1e-4, 1e-3, 1e-2, 0.1, 1.0], 0).tolist(),
    *[0.0, -0.0, 1.0, 1.0000000000000002, 5e-324, 1e-17],
    *[-0.5, -1e-4, -0.3525390625, math.nan, math.inf, -math.inf],
]


class TestFidelityText:
    """The fidelity column against ``f"{F:.9g}"``, byte for byte."""

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=1e-4, max_value=1, exclude_max=True),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_floats(self, values):
        fmap = one_row_map(values)
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()

    @pytest.mark.parametrize(
        "values", [halfway_values(), ADVERSARIAL_FIDELITIES], ids=["halfway", "adversarial"]
    )
    def test_adversarial_values(self, values):
        fmap = one_row_map(values)
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()
