import math

import numpy as np
import pytest

from sopgate import (
    EmptyGridError,
    GridSpec,
    NoMaximaFoundError,
    SignatureMismatchError,
    b_scan,
    basis_labels,
    cphase_signature,
    fidelity_from_amplitudes,
    fidelity_map,
    gate_fidelity,
    lattice_analysis,
    map_maxima,
    robustness_scan,
    sop_family,
)
from sopgate.fidelity import family_diagonal_grid, lattice_report_dict, map_csv_text
from sopgate.propagator import diagonal_amplitudes

PI = math.pi
TARGET_2Q = cphase_signature(2)


def jp_protocol():
    """The pi-2pi-pi protocol: the symmetric orthogonal family at b^2 = 0."""
    return sop_family(b2=0.0).protocol(2 * PI, 2 * PI)


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
            pulses=tuple(type(q)(q.area, q.vector.negated()) for q in p.pulses),
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

    def test_meta_recorded(self, map_b2_01):
        family = map_b2_01.meta["family"]
        assert family["n_qubits"] == 2 and family["m_pulses"] == 3
        a, b = math.sqrt(0.9), math.sqrt(0.1)
        assert family["vector_odd"] == pytest.approx([a, b], abs=1e-15)
        assert family["vector_even"] == pytest.approx([-b, a], abs=1e-15)
        assert map_b2_01.meta["fidelity_definition"] == "trace-sq"

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

    def test_second_pulse_free_protocol(self):
        # (14, 0): no even pulse at all, still high fidelities at some b
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f = b_scan((14, 0), b2_grid)
        assert f.max() > 0.95


class TestCsvOutput:
    def test_header_and_formatting(self):
        fmap = fidelity_map(sop_family(b2=0.0), GridSpec(-1, 1, 1))
        text = map_csv_text(fmap)
        lines = text.strip().split("\n")
        assert lines[0] == "a_odd_over_pi,a_even_over_pi,fidelity"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert first[0] == "-1" and first[1] == "-1"
        # nine significant digits
        value = float(first[2])
        assert f"{value:.9g}" == first[2]

    def test_row_major_order(self):
        fmap = fidelity_map(sop_family(b2=0.0), GridSpec(0, 1, 0.5))
        rows = [line.split(",")[:2] for line in map_csv_text(fmap).strip().split("\n")[1:]]
        odd_sequence = [float(r[0]) for r in rows]
        assert odd_sequence == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
