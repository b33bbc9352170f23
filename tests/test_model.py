import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dot
from sopgate import (
    DimensionMismatchError,
    EmptyGridError,
    NotNormalizedError,
    Protocol,
    ProtocolFamily,
    Pulse,
    SopGateError,
    StructuralVector,
    basis_labels,
    sop_family,
    spectator_orthogonal_pair,
)
from sopgate.model import cphase_signature, spectator_orthogonal_rows

PI = math.pi
# The pi-2pi-pi protocol of Jaksch et al. with single-site beams: the
# symmetric orthogonal family at b^2 = 0.
JP_FAMILY = ProtocolFamily(StructuralVector((1.0, 0.0)), StructuralVector((0.0, 1.0)))


def jp_protocol():
    return JP_FAMILY.protocol(2 * PI, 2 * PI)


def pulse_areas(protocol):
    return tuple(pulse.area for pulse in protocol.pulses)


class TestStructuralVector:
    def test_direct_construction_requires_unit_norm(self):
        with pytest.raises(NotNormalizedError):
            StructuralVector((0.5, 0.5))

    def test_nan_component_refused(self):
        # a NaN norm is not within the tolerance of 1
        with pytest.raises(NotNormalizedError):
            StructuralVector((math.nan, 0.6, 0.8))

    @given(st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_orthogonal_complement_dot_zero(self, b2):
        family = sop_family(b2=b2)
        # (a, b) . (-b, a) cancels exactly in floating point
        assert dot(family.vector_odd, family.vector_even) == 0.0

    def test_orthogonal_complement_convention(self):
        assert sop_family(b2=0.0).vector_even.components == (0.0, 1.0)
        b = math.sqrt(0.1)
        a = math.sqrt(1.0 - b * b)
        assert sop_family(b2=0.1).vector_odd.components == (a, b)
        assert sop_family(b2=0.1).vector_even.components == (-b, a)


class TestProtocols:
    def test_jp_default(self):
        p = jp_protocol()
        assert p.n_qubits == 2
        assert pulse_areas(p) == (PI, 2 * PI, PI)
        assert p.pulses[0].vector.components == (1.0, 0.0)
        assert p.pulses[1].vector.components == (0.0, 1.0)
        assert p.pulses[2].vector.components == (1.0, 0.0)
        # the symmetric orthogonal family at b^2 = 0 has the same layout
        assert sop_family(b2=0.0).protocol(2 * PI, 2 * PI) == p

    def test_jp_custom_areas(self):
        p = JP_FAMILY.protocol(6 * PI, 2 * PI)
        assert pulse_areas(p) == (3 * PI, 2 * PI, 3 * PI)
        assert p.pulses[0].vector.components == (1.0, 0.0)

    def test_theta_is_half_area(self):
        p = jp_protocol()
        assert [pl.theta for pl in p.pulses] == [PI / 2, PI, PI / 2]

    def test_sop_reduces_to_jp_at_b0(self):
        sop = sop_family(b2=0.0).protocol(2 * PI, 2 * PI)
        jp = jp_protocol()
        for ps, pj in zip(sop.pulses, jp.pulses):
            assert ps.area == pj.area
            assert ps.vector.components == pj.vector.components

    def test_sop_vectors(self):
        b = math.sqrt(0.1)
        p = sop_family(b2=0.1).protocol(2 * PI, 2 * PI)
        a = math.sqrt(0.9)
        assert p.pulses[0].vector.components == pytest.approx((a, b), abs=1e-15)
        assert p.pulses[1].vector.components == pytest.approx((-b, a), abs=1e-15)
        assert p.pulses[2].vector == p.pulses[0].vector
        assert pulse_areas(p) == (PI, 2 * PI, PI)

    def test_sop_half_overlap_rotation_angle(self):
        p = sop_family(b2=0.5).protocol(2 * PI, 2 * PI)
        a, b = p.pulses[0].vector.components
        assert math.atan2(b, a) == pytest.approx(PI / 4, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_esop_alternation(self, m):
        family = sop_family(b2=0.1, m_pulses=m)
        p = family.protocol(1.1 * PI * ((m + 1) // 2), 0.7 * PI * (m // 2))
        assert p.n_pulses == m
        assert p.pulses[0].area == pytest.approx(1.1 * PI, abs=1e-15)
        assert p.pulses[1].area == pytest.approx(0.7 * PI, abs=1e-15)
        for k in range(m - 1):
            assert abs(dot(p.pulses[k].vector, p.pulses[k + 1].vector)) < 1e-12
        for k in range(m - 2):
            assert p.pulses[k].vector == p.pulses[k + 2].vector
            assert p.pulses[k].area == p.pulses[k + 2].area

    def test_esop_m3_matches_sop_structure(self):
        a, b = math.sqrt(0.9), math.sqrt(0.1)
        esop = ProtocolFamily(StructuralVector((a, b)), StructuralVector((-b, a)), m_pulses=3)
        sop = sop_family(b2=0.1)
        esop_pulses = esop.protocol(2 * PI, 2 * PI).pulses
        for pe, ps in zip(esop_pulses, sop.protocol(2 * PI, 2 * PI).pulses):
            assert pe.area == ps.area
            assert pe.vector.components == pytest.approx(ps.vector.components, abs=1e-15)

    def test_esop_two_pulses(self):
        p = sop_family(b2=0.0, m_pulses=2).protocol(PI, 2 * PI)
        assert pulse_areas(p) == (PI, 2 * PI)
        assert p.pulses[1].vector.components == (0.0, 1.0)

    def test_single_pulse_family(self):
        p = sop_family(b2=0.1, m_pulses=1).protocol(1.5 * PI, 7.0)
        assert pulse_areas(p) == (1.5 * PI,)
        assert p.pulses[0].vector == sop_family(b2=0.1).vector_odd

    def test_family_needs_a_pulse(self):
        with pytest.raises(EmptyGridError):
            sop_family(m_pulses=0)

    def test_family_vectors_share_dimension(self):
        with pytest.raises(DimensionMismatchError):
            ProtocolFamily(StructuralVector((1.0, 0.0)), StructuralVector((0.0, 1.0, 0.0)))
        family = sop_family(b2=0.1, c2=0.1)
        assert family.n_qubits == 3
        assert family.protocol(PI, PI).n_qubits == 3

    def test_non_orthogonal_family_mirrors(self):
        b = math.sqrt(0.2)
        a = math.sqrt(1.0 - b * b)
        family = sop_family(b2=0.2, orthogonal=False)
        assert family.vector_odd.components == (a, b)
        assert family.vector_even.components == (b, a)
        family3 = sop_family(b2=0.2, c2=0.1, orthogonal=False)
        a3, b3, c3 = family3.vector_odd.components
        assert family3.vector_even.components == (b3, a3, c3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b2": -0.1},
            {"b2": math.nan},
            {"b2": math.inf},
            {"c2": -0.1, "n_qubits": 3},
            {"c2": math.nan, "n_qubits": 3},
            {"b2": 0.6, "c2": 0.5},
            {"b2": 0.5, "c2": 0.5 + 2**-52, "orthogonal": False},
            {"b2": 0.1, "c2": 0.5000001},
        ],
    )
    def test_sop_family_rejects_bad_squares(self, kwargs):
        with pytest.raises(NotNormalizedError) as info:
            sop_family(**kwargs)
        assert isinstance(info.value, SopGateError)

    def test_sop_family_register_checks(self):
        with pytest.raises(DimensionMismatchError):
            sop_family(b2=0.1, c2=0.1, n_qubits=2)
        with pytest.raises(DimensionMismatchError):
            sop_family(n_qubits=4)
        with pytest.raises(NotNormalizedError):
            sop_family(b2=0.1, c2=0.6, n_qubits=3)

    def test_orthogonal_spectator_family_at_its_limit(self):
        # c^2 = 0.5 is allowed as given, though sqrt(0.5)**2 rounds above it.
        assert math.sqrt(0.5) ** 2 > 0.5
        family = sop_family(b2=0.1, c2=0.5)
        assert abs(dot(family.vector_odd, family.vector_even)) < 1e-12

    @pytest.mark.parametrize("b2", [0.18, 0.5, 0.7, 0.83])
    def test_squares_summing_to_one_are_accepted(self, b2):
        # b2 + c2 is exactly 1, but the roots square back to just above it.
        c2 = 1.0 - b2
        assert b2 + c2 == 1.0
        assert math.sqrt(b2) ** 2 + math.sqrt(c2) ** 2 > 1.0
        family = sop_family(b2=b2, c2=c2, orthogonal=False)
        b, c = math.sqrt(b2), math.sqrt(c2)
        assert family.vector_odd.components == (0.0, b, c)
        assert family.vector_even.components == (b, 0.0, c)

    def test_protocol_vector_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            Protocol((Pulse(PI, StructuralVector((1.0, 0.0, 0.0))),), n_qubits=2)

    def test_sop3_unit_and_orthogonal(self):
        b = c = math.sqrt(0.1)
        p = sop_family(b2=0.1, c2=0.1).protocol(2 * PI, 2 * PI)
        e1, e2 = p.pulses[0].vector, p.pulses[1].vector
        assert e1.components == pytest.approx((math.sqrt(0.8), b, c), abs=1e-15)
        assert abs(dot(e1, e2)) < 1e-12
        assert e2.components[2] == pytest.approx(c, abs=1e-15)
        assert p.pulses[2].vector == e1
        # the even vector is the spectator-orthogonal partner of the odd one
        pair = spectator_orthogonal_pair(b, c, c)
        assert e1.components == pytest.approx(pair[0].components, abs=1e-15)
        assert e2 == pair[1]

    def test_spectator_pair_reduces_to_planar_convention(self):
        b = math.sqrt(0.3)
        e_odd, e_even = spectator_orthogonal_pair(b, 0.0, 0.0)
        a = math.sqrt(0.7)
        assert e_odd.components == pytest.approx((a, b, 0.0), abs=1e-15)
        assert e_even.components == pytest.approx((-b, a, 0.0), abs=1e-12)

    @pytest.mark.parametrize("i", range(50, 100))
    def test_orthogonal_family_with_squares_summing_to_one(self, i):
        # b2 = i/100, c2 = 1 - b2: the odd gate factor a is 0 up to the
        # root of round-off. The roots of 0.5/0.5, 0.7/0.3 and 0.83/0.17
        # square back to a sum just above 1; for others, such as 0.53/0.47,
        # 1 - b^2 - c^2 rounds below 0.
        b2 = i / 100
        c2 = 1.0 - b2
        family = sop_family(b2=b2, c2=c2)
        e_odd, e_even = family.vector_odd, family.vector_even
        assert 0.0 <= e_odd.components[0] < 2e-8
        assert e_odd.components[1:] == (math.sqrt(b2), math.sqrt(c2))
        for vector in (e_odd, e_even):
            assert abs(math.sqrt(dot(vector, vector)) - 1.0) <= 1e-15
        assert abs(dot(e_odd, e_even)) <= 1e-15

    def test_spectator_rows_clamp_the_gate_factor_at_zero(self):
        # 1 - b^2 - c^2 rounds to -1.1e-16 here; a is 0, not NaN, and no
        # rows that exist change
        b, c = math.sqrt(0.53), math.sqrt(0.47)
        assert 1.0 - b * b - c * c < 0.0
        with np.errstate(invalid="raise"):
            e_odd, e_even = spectator_orthogonal_rows(b, (c, c))
        assert e_odd.tolist() == [0.0, b, c]
        assert np.isfinite(e_even).all()
        b = np.sqrt(np.linspace(0.0, 0.5, 11))
        got_odd, _ = spectator_orthogonal_rows(b, (0.3, 0.2))
        np.testing.assert_array_equal(got_odd[:, 0], np.sqrt(1.0 - b * b - 0.09))

    def test_spectator_pair_infeasible(self):
        with pytest.raises(NotNormalizedError):
            spectator_orthogonal_pair(0.1, 0.8, 0.8)

    @pytest.mark.parametrize("b", [0.0, math.sqrt(0.1), -0.3, 0.5])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spectator_pair_at_clamp_bound(self, b, sign):
        # sqrt(0.5)^2 + sqrt(0.5)^2 rounds to 1.0000000000000002
        c = math.sqrt(0.5)
        assert c * c + c * c > 1.0
        e_odd, e_even = spectator_orthogonal_pair(b, c, sign * c)
        assert e_odd.components[1:] == (b, c)
        assert e_even.components[2] == sign * c
        assert dot(e_odd, e_even) == pytest.approx(0.0, abs=1e-15)


class TestSignatures:
    def test_two_qubit_cphase(self):
        assert cphase_signature(2).tolist() == [-1, -1, -1, 1]

    def test_three_qubit_cphase(self):
        # +1 exactly on the two states with both gate qubits in |1>
        assert cphase_signature(3).tolist() == [-1, -1, -1, -1, -1, -1, 1, 1]
        labels = basis_labels(3)
        assert labels == ("000", "010", "100", "001", "101", "011", "110", "111")
        assert labels[6] == "110" and labels[7] == "111"

    def test_signature_is_one_read_only_array(self):
        phases = cphase_signature(3)
        assert phases is cphase_signature(3)
        assert phases.dtype == float and not phases.flags.writeable
        with pytest.raises(DimensionMismatchError):
            cphase_signature(1)

    def test_basis_labels_two_qubits(self):
        assert basis_labels(2) == ("00", "01", "10", "11")
