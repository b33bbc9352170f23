import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopgate import (
    AsymmetricAreasError,
    DimensionMismatchError,
    GateSignature,
    NotNormalizedError,
    Protocol,
    Pulse,
    SignatureMismatchError,
    StructuralVector,
    ZeroVectorError,
    basis_labels,
    build_esop_protocol,
    build_jp_protocol,
    build_sop3_protocol,
    build_sop_protocol,
    cphase_signature,
    make_structural_vector,
    orthogonal_complement_2d,
    spectator_orthogonal_pair,
)

PI = math.pi


class TestStructuralVector:
    def test_already_normalized_passthrough(self):
        sv = make_structural_vector((1.0, 0.0))
        assert sv.components == (1.0, 0.0)

    def test_three_four_five(self):
        sv = make_structural_vector((3.0, 4.0))
        assert sv.components == (0.6, 0.8)

    def test_signs_preserved(self):
        # expected values computed directly: (-sqrt(0.1), sqrt(0.9)) is unit
        sv = make_structural_vector((-math.sqrt(0.1), math.sqrt(0.9)))
        assert sv.components[0] == pytest.approx(-0.31622776601683794, abs=1e-15)
        assert sv.components[1] == pytest.approx(0.9486832980505138, abs=1e-15)
        assert math.fsum(c * c for c in sv.components) == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            make_structural_vector((0.0, 1e-16))

    def test_direct_construction_requires_unit_norm(self):
        with pytest.raises(NotNormalizedError):
            StructuralVector((0.5, 0.5))

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10).filter(lambda x: abs(x) > 1e-6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_normalization_idempotent(self, components):
        once = make_structural_vector(components)
        twice = make_structural_vector(once.components)
        assert once.components == twice.components

    @given(st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_orthogonal_complement_dot_zero(self, x, y):
        if abs(x) < 1e-6 and abs(y) < 1e-6:
            return
        sv = make_structural_vector((x, y))
        orth = orthogonal_complement_2d(sv)
        # (a, b) . (-b, a) cancels exactly in floating point
        assert sv.dot(orth) == 0.0

    def test_orthogonal_complement_convention(self):
        assert orthogonal_complement_2d(StructuralVector((1.0, 0.0))).components == (0.0, 1.0)
        a, b = math.sqrt(0.9), math.sqrt(0.1)
        orth = orthogonal_complement_2d(StructuralVector((a, b)))
        assert orth.components == (-b, a)

    def test_orthogonal_complement_needs_2d(self):
        with pytest.raises(DimensionMismatchError):
            orthogonal_complement_2d(make_structural_vector((1.0, 0.0, 0.0)))


class TestProtocols:
    def test_jp_default(self):
        p = build_jp_protocol()
        assert p.n_qubits == 2
        assert p.areas == (PI, 2 * PI, PI)
        assert p.pulses[0].vector.components == (1.0, 0.0)
        assert p.pulses[1].vector.components == (0.0, 1.0)
        assert p.pulses[2].vector.components == (1.0, 0.0)

    def test_jp_custom_areas(self):
        p = build_jp_protocol(areas=(3 * PI, 2 * PI, 3 * PI))
        assert p.area_odd == pytest.approx(6 * PI)
        assert p.area_even == pytest.approx(2 * PI)
        assert p.pulses[0].vector.components == (1.0, 0.0)

    def test_theta_is_half_area(self):
        p = build_jp_protocol()
        assert [pl.theta for pl in p.pulses] == [PI / 2, PI, PI / 2]

    def test_sop_reduces_to_jp_at_b0(self):
        sop = build_sop_protocol(0.0)
        jp = build_jp_protocol()
        for ps, pj in zip(sop.pulses, jp.pulses):
            assert ps.area == pj.area
            assert ps.vector.components == pj.vector.components

    def test_sop_vectors(self):
        b = math.sqrt(0.1)
        p = build_sop_protocol(b)
        a = math.sqrt(0.9)
        assert p.pulses[0].vector.components == pytest.approx((a, b), abs=1e-15)
        assert p.pulses[1].vector.components == pytest.approx((-b, a), abs=1e-15)
        assert p.pulses[2].vector == p.pulses[0].vector

    def test_sop_half_overlap_rotation_angle(self):
        p = build_sop_protocol(math.sqrt(0.5))
        a, b = p.pulses[0].vector.components
        assert math.atan2(b, a) == pytest.approx(PI / 4, abs=1e-12)

    def test_sop_rejects_asymmetric_areas(self):
        with pytest.raises(AsymmetricAreasError):
            build_sop_protocol(0.2, (PI, 2 * PI, 1.5 * PI))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_esop_alternation(self, m):
        e_odd = make_structural_vector((math.sqrt(0.9), math.sqrt(0.1)))
        p = build_esop_protocol(m, e_odd, (1.1 * PI, 0.7 * PI))
        assert p.n_pulses == m
        for k in range(m - 1):
            assert abs(p.pulses[k].vector.dot(p.pulses[k + 1].vector)) < 1e-12
        for k in range(m - 2):
            assert p.pulses[k].vector == p.pulses[k + 2].vector
            assert p.pulses[k].area == p.pulses[k + 2].area

    def test_esop_m3_matches_sop_structure(self):
        b = math.sqrt(0.1)
        e_odd = make_structural_vector((math.sqrt(0.9), b))
        esop = build_esop_protocol(3, e_odd, (PI, 2 * PI))
        sop = build_sop_protocol(b)
        for pe, ps in zip(esop.pulses, sop.pulses):
            assert pe.vector.components == pytest.approx(ps.vector.components, abs=1e-15)

    def test_esop_two_pulses(self):
        p = build_esop_protocol(2, StructuralVector((1.0, 0.0)), (PI, 2 * PI))
        assert p.areas == (PI, 2 * PI)
        assert p.pulses[1].vector.components == (0.0, 1.0)

    def test_esop_rejects_single_pulse(self):
        from sopgate import InvalidPulseCountError

        with pytest.raises(InvalidPulseCountError):
            build_esop_protocol(1, StructuralVector((1.0, 0.0)), (PI, PI))

    def test_protocol_vector_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            Protocol((Pulse(PI, StructuralVector((1.0, 0.0, 0.0))),), n_qubits=2)

    def test_sop3_unit_and_orthogonal(self):
        b = c = math.sqrt(0.1)
        p = build_sop3_protocol(b, c)
        e1, e2 = p.pulses[0].vector, p.pulses[1].vector
        assert e1.components == pytest.approx((math.sqrt(0.8), b, c), abs=1e-15)
        assert abs(e1.dot(e2)) < 1e-12
        assert e2.components[2] == pytest.approx(c, abs=1e-15)
        assert p.pulses[2].vector == e1

    def test_spectator_pair_reduces_to_planar_convention(self):
        b = math.sqrt(0.3)
        e_odd, e_even = spectator_orthogonal_pair(b, 0.0, 0.0)
        a = math.sqrt(0.7)
        assert e_odd.components == pytest.approx((a, b, 0.0), abs=1e-15)
        assert e_even.components == pytest.approx((-b, a, 0.0), abs=1e-12)

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
        assert e_odd.dot(e_even) == pytest.approx(0.0, abs=1e-15)


class TestSerialization:
    @pytest.mark.parametrize(
        "protocol",
        [
            build_jp_protocol(),
            build_sop_protocol(math.sqrt(0.2), (-6.1 * PI / 2, 0.9 * PI, -6.1 * PI / 2)),
            build_sop3_protocol(math.sqrt(0.1), math.sqrt(0.1)),
        ],
    )
    def test_json_round_trip(self, protocol):
        restored = Protocol.from_json(protocol.to_json())
        assert restored.n_qubits == protocol.n_qubits
        for p0, p1 in zip(protocol.pulses, restored.pulses):
            assert p1.area == pytest.approx(p0.area, rel=1e-15, abs=0.0)
            for c0, c1 in zip(p0.vector.components, p1.vector.components):
                assert c1 == pytest.approx(c0, rel=1e-15, abs=1e-15)

    def test_json_schema(self):
        data = json.loads(build_jp_protocol().to_json())
        assert set(data) == {"n_qubits", "pulses"}
        assert data["n_qubits"] == 2
        assert data["pulses"][0] == {"area_over_pi": 1.0, "vector": [1.0, 0.0]}


class TestSignatures:
    def test_two_qubit_cphase(self):
        assert cphase_signature(2).phases == (-1, -1, -1, 1)

    def test_three_qubit_cphase(self):
        # +1 exactly on the two states with both gate qubits in |1>
        assert cphase_signature(3).phases == (-1, -1, -1, -1, -1, -1, 1, 1)
        labels = basis_labels(3)
        assert labels == ("000", "010", "100", "001", "101", "011", "110", "111")
        assert labels[6] == "110" and labels[7] == "111"

    def test_signature_validation(self):
        with pytest.raises(SignatureMismatchError):
            GateSignature((1, -1, 1))
        with pytest.raises(SignatureMismatchError):
            GateSignature((1, -1, 2, 1))

    def test_basis_labels_two_qubits(self):
        assert basis_labels(2) == ("00", "01", "10", "11")
