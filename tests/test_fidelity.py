import decimal
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sopgate.fidelity
import sopgate.propagator
import mpmath
from oracles import (
    MP_DIGITS,
    cell_fidelity,
    jp_protocol,
    mp_amplitudes,
    mp_fidelity,
    negated,
    padded_map_maxima,
    per_row_csv_text,
)
from sopgate import (
    DimensionMismatchError,
    EmptyGridError,
    GridSpec,
    GridTooLargeError,
    NoMaximaFoundError,
    NotNormalizedError,
    Protocol,
    ProtocolFamily,
    Pulse,
    SignatureMismatchError,
    StructuralVector,
    b_scan,
    basis_labels,
    fidelity_map,
    gate_fidelity,
    lattice_analysis,
    optimize_third_qubit,
    robustness_scan,
    sop_family,
)
from sopgate.fidelity import (
    _CSV_BLOCK_LINES,
    DEFAULT_GRID,
    MAX_GRID_POINTS,
    FidelityMap,
    alternating_amplitudes,
    csv_text,
    family_diagonal_grid,
    family_vectors,
    fidelity_from_amplitudes,
    fidelity_from_rows,
    lattice_report_dict,
    map_csv_text,
    map_maxima,
    pulse_areas,
)
from sopgate.model import cphase_signature
from sopgate.propagator import diagonal_amplitudes

PI = math.pi


def map_row_bytes(n_qubits, n_even):
    """Bytes the kernel counts per odd row of a map (``_CHUNK_BYTES``).

    Per point, 2^n amplitudes and two carried ground rows of the largest
    block, in a product and its operand; per odd row, the odd pulse's
    propagators, one d×d matrix per block of dimension d = k + 1 with k |0> qubits.
    """
    propagators = sum(math.comb(n_qubits, k) * (k + 1) ** 2 for k in range(1, n_qubits + 1))
    return 16 * (n_even * (2**n_qubits + 4 * (n_qubits + 1)) + propagators)


def family_amplitudes(family, area_odd, area_even):
    """A family's amplitudes at total areas (radians, broadcasting), basis axis last."""
    vectors = (family.vector_odd.components, family.vector_even.components)
    return alternating_amplitudes(*vectors, area_odd, area_even, family.m_pulses)


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
        assert gate_fidelity(jp_protocol()) == pytest.approx(1.0, abs=1e-15)

    def test_single_even_pulse_calibration(self):
        # frozen from the closed forms: F = ((cos(1.21 pi) + 2 cos(sqrt(0.5)*1.21 pi) + 1)/4)^2
        family = sop_family(b2=0.5)
        fid = gate_fidelity(family.protocol(0.0, 2.42 * PI))
        assert fid == pytest.approx(0.8045476980875096, abs=1e-12)
        # odd-pulses-only variant has the same total area and fidelity
        fid_odd = gate_fidelity(family.protocol(2.42 * PI, 0.0))
        assert fid_odd == pytest.approx(fid, abs=1e-12)

    def test_rotated_lattice_point_value(self):
        a, b = math.sqrt(0.9), math.sqrt(0.1)
        family = sop_family(b2=0.1)
        fid = gate_fidelity(family.protocol(2 * PI * (a + b), 2 * PI * (a - b)))
        assert fid == pytest.approx(0.9519195417929724, abs=1e-12)

    def test_one_qubit_protocol_refused(self):
        # A C-PHASE gate needs two qubits; the register size comes from the amplitude count.
        protocol = Protocol((Pulse(PI, StructuralVector((1.0,))),), n_qubits=1)
        with pytest.raises(SignatureMismatchError):
            gate_fidelity(protocol)

    def test_global_sign_flip_invariance(self):
        p = sop_family(b2=0.3).protocol(2.6 * PI, 0.8 * PI)
        flipped = type(p)(
            pulses=tuple(type(q)(q.area, negated(q.vector)) for q in p.pulses),
            n_qubits=p.n_qubits,
        )
        assert gate_fidelity(flipped) == pytest.approx(gate_fidelity(p), abs=1e-12)


class TestFidelityFromRows:
    def test_each_row_is_its_gate_fidelity(self):
        family = sop_family(b2=0.1, c2=0.1)
        areas = np.random.default_rng(2).uniform(-8 * PI, 8 * PI, size=(20, 2))
        rows = fidelity_from_rows(family_amplitudes(family, areas[:, 0], areas[:, 1]))
        assert rows.shape == (20,)
        for (area_odd, area_even), value in zip(areas, rows):
            assert value == gate_fidelity(family.protocol(area_odd, area_even))

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 12])
    def test_amplitude_count_checked(self, d):
        with pytest.raises(SignatureMismatchError):
            fidelity_from_rows(np.ones((3, d)))
        with pytest.raises(SignatureMismatchError):
            fidelity_from_amplitudes(np.ones((3, d)))

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_register_size_read_from_the_amplitude_count(self, n_qubits):
        # F = 1 exactly on the C-PHASE diagonal of the register the count names.
        phases = cphase_signature(n_qubits).astype(complex)
        assert fidelity_from_rows(phases[None]).tolist() == [1.0]
        assert fidelity_from_amplitudes(phases[None]).tolist() == [1.0]

    def test_row_layout_leaves_bits_unchanged(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(500, 8)) + 1j * rng.normal(size=(500, 8))
        strided = np.asfortranarray(rows)
        got = fidelity_from_rows(strided)
        assert got.tobytes() == fidelity_from_rows(rows).tobytes()
        # A kernel chunk is a basis-last view of a basis-first scratch array; the
        # map formula gives it, a contiguous copy and a Fortran copy the bytes of
        # its explicit order, cell by cell.
        for n_qubits, shape in ((2, (37, 13)), (3, (37, 13)), (3, (500,))):
            phases, d = cphase_signature(n_qubits), 2**n_qubits
            scratch = rng.normal(size=(d,) + shape) + 1j * rng.normal(size=(d,) + shape)
            view = np.moveaxis(scratch, 0, -1)
            got = fidelity_from_amplitudes(view)
            for copy in (np.ascontiguousarray(view), np.asfortranarray(view)):
                assert fidelity_from_amplitudes(copy).tobytes() == got.tobytes()
            cells = [cell_fidelity(row, phases) for row in view.reshape(-1, d).tolist()]
            assert got.tobytes() == np.array(cells).reshape(shape).tobytes()

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


#: Families the map paths are checked on: both registers, the paper's b^2 = 0.5
#: point, and each with the orthogonal and the mirrored (non-orthogonal) even vector.
MAP_FAMILIES = pytest.mark.parametrize(
    "b2, c2, orthogonal",
    [(b2, c2, orthogonal) for b2, c2 in [(0.1, 0.0), (0.1, 0.1), (0.5, 0.0)] for orthogonal in (True, False)],
)


class TestMapFormula:
    """``fidelity_from_amplitudes`` sums in its own order: the bits of a cell
    depend on its amplitudes alone, on every core."""

    @MAP_FAMILIES
    def test_chunk_copy_gives_the_view_bits(self, monkeypatch, b2, c2, orthogonal):
        family = sop_family(b2=b2, c2=c2, m_pulses=4, orthogonal=orthogonal)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 23)
        even = np.linspace(-2.9 * PI, 7.7 * PI, 13)
        monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", 5 * map_row_bytes(family.n_qubits, 13))
        chunks = []

        def reduce(chunk):
            view = fidelity_from_amplitudes(chunk)
            copy = fidelity_from_amplitudes(np.ascontiguousarray(chunk))
            chunks.append(copy.tobytes() == view.tobytes())
            return view

        family_diagonal_grid(family, odd, even, reduce)
        assert len(chunks) == 5 and all(chunks)

    def test_reduces_a_map_chunk_without_blas(self, monkeypatch):
        family = sop_family(b2=0.1, c2=0.1, m_pulses=4)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 9)
        even = np.linspace(-2.9 * PI, 7.7 * PI, 7)

        def refused(*args, **kwargs):
            raise AssertionError("fidelity_from_amplitudes called a BLAS product")

        def reduce(chunk):
            with monkeypatch.context() as patch:
                for name in ("tensordot", "dot", "matmul", "vecdot", "einsum"):
                    patch.setattr(np, name, refused)
                return fidelity_from_amplitudes(chunk)

        values = family_diagonal_grid(family, odd, even, reduce)
        expected = fidelity_from_amplitudes(family_diagonal_grid(family, odd, even))
        assert values.tobytes() == expected.tobytes()

    def test_map_bits_do_not_depend_on_blas_threads(self):
        # The thread count is read when OpenBLAS loads, so each count gets its own process.
        code = (
            "import hashlib, sopgate; "
            "print(hashlib.sha256(sopgate.fidelity_map(sopgate.sop_family(b2=0.05, c2=0.2)).values.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(sopgate.fidelity.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        fmap = fidelity_map(sop_family(b2=0.05, c2=0.2))
        assert digests == [hashlib.sha256(fmap.values.tobytes()).hexdigest() + "\n"] * 2

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_row_gives_the_bits_of_a_one_point_batch(self, n_qubits):
        # A 1-D row's overlap is a numpy scalar, which ``** 2`` would square by libm pow.
        rng = np.random.default_rng(30 + n_qubits)
        d = 2**n_qubits
        rows = rng.normal(size=(5000, d)) + 1j * rng.normal(size=(5000, d))
        alone = [fidelity_from_amplitudes(row) for row in rows]
        batched = [fidelity_from_amplitudes(row[None])[0] for row in rows]
        assert np.array(alone).tobytes() == np.array(batched).tobytes()


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
        assert diag.shape == (4, 3, len(basis_labels(family.n_qubits)))
        for i, j in np.ndindex(4, 3):
            point = diagonal_amplitudes(family.protocol(odd[i], even[j]))
            np.testing.assert_array_equal(diag[i, j], point)


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
        assert diag.shape == (n_odd, n_even, 8)
        # One build per distinct pulse, each on its axis: the odd pulse, remade per
        # chunk, and the even pulse, made once, take one call per block dimension each.
        assert sizes == [n_odd] * 3 + [n_even] * 3


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
        assert diag.shape == (n_odd, n_even, 2**family.n_qubits)
        for i, j in np.ndindex(n_odd, n_even):
            np.testing.assert_array_equal(diag[i, j], family_amplitudes(family, odd[i], even[j]))

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
        for rows in (1, 2, 3, 4, 5, 7, 8, 12):
            budget = rows * map_row_bytes(family.n_qubits, len(even))
            monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", budget)
            rows_seen.clear()
            np.testing.assert_array_equal(family_diagonal_grid(family, odd, even), default)
            # About equal chunks of 20 odd rows, none over the budget.
            assert max(rows_seen) == -(-20 // -(-20 // rows))
            assert max(rows_seen) - min(rows_seen) <= 1

    @pytest.mark.parametrize("m_pulses", [2, 3, 4, 5])
    @pytest.mark.parametrize("b2, c2", [(0.1, 0.0), (0.1, 0.1)])
    @pytest.mark.parametrize("budget_rows, expected", [(1, [(1, 2)]), (2, [(1, 2), (2, 1)])])
    def test_chunks_of_one_odd_row_keep_every_bit(self, monkeypatch, m_pulses, b2, c2, budget_rows, expected):
        # 13 odd rows go in chunks of one row each, or of 1, 2, 2, 2, 2, 2
        # and 2 rows: one ground row per point of a chunk of two odd rows,
        # two for a lone odd row, whose first product shares no propagator.
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses)
        odd = np.linspace(-5.3 * PI, 6.1 * PI, 13)
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
        budget = budget_rows * map_row_bytes(family.n_qubits, len(even))
        monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", budget)
        diag = family_diagonal_grid(family, odd, even)
        assert sorted(set(chunks)) == expected
        for i, j in np.ndindex(len(odd), len(even)):
            np.testing.assert_array_equal(diag[i, j], family_amplitudes(family, odd[i], even[j]))

    def test_wide_three_qubit_map_stays_in_budget(self, monkeypatch):
        carried, amplitudes = [], []
        original = sopgate.propagator._row_product

        def recorded(rows, propagators):
            product = original(rows, propagators)
            carried.append(rows.nbytes + product.nbytes)
            return product

        def reduce(chunk):
            amplitudes.append(chunk.nbytes)
            return chunk[..., 0]

        monkeypatch.setattr(sopgate.propagator, "_row_product", recorded)
        axis = GridSpec(-16, 16, 0.05).values_radians()
        assert len(axis) == 641
        family_diagonal_grid(sop_family(b2=0.1, c2=0.1), axis, axis, reduce)
        assert len(amplitudes) > 1
        assert max(amplitudes) + max(carried) <= sopgate.propagator._CHUNK_BYTES

    @pytest.mark.parametrize("n_odd, n_even", [(0, 3), (3, 0)])
    def test_empty_axis_gives_empty_grid(self, n_odd, n_even):
        diag = family_diagonal_grid(sop_family(b2=0.1), np.zeros(n_odd), np.ones(n_even))
        assert diag.shape == (n_odd, n_even, 4)

    def test_empty_scans_give_empty_curves(self):
        assert b_scan((2 * PI, 1 * PI), []).shape == (0,)
        curves = robustness_scan(sop_family(b2=0.1).protocol(2 * PI, 2 * PI), [])
        for curve in (curves.delta_area, curves.u11v, curves.u11a, curves.u11b):
            assert curve.shape == (0,)


#: Largest |F - truth| of a map cell, about 6x the largest error measured.
TRUTH_BOUND = 4e-15


def nine_digit_rounding(truth):
    """The truth rounded to 9 significant digits, as a Decimal, or None within TRUTH_BOUND of a boundary."""
    with mpmath.workdps(MP_DIGITS):
        if truth == 0:
            return decimal.Decimal(0)
        exponent = int(mpmath.floor(mpmath.log10(abs(truth)))) - 8
        scale = mpmath.mpf(10) ** exponent
        lower = mpmath.floor(truth / scale)
        if abs(truth - (lower + 0.5) * scale) <= TRUTH_BOUND:
            return None
        digits = int(lower) + (truth - lower * scale > scale / 2)
        return decimal.Decimal(digits).scaleb(exponent)


class TestMpTruth:
    """Sampled map cells against a 40-digit mpmath truth (``oracles.mp_amplitudes``)."""

    @pytest.mark.parametrize(
        "b2, c2, m_pulses, orthogonal, n_cells",
        [
            (0.1, 0.0, 3, True, 100),
            (0.1, 0.1, 5, True, 100),
            (0.1, 0.1, 2, True, 40),
            (0.1, 0.0, 4, True, 40),
            (0.1, 0.1, 6, True, 40),
            (0.0, 0.0, 3, True, 40),  # zero couplings
            (0.5, 0.5, 3, False, 40),  # the mirrored 3-qubit family
        ],
        ids=["2q-M3", "3q-M5", "3q-M2", "2q-M4", "3q-M6", "b2=0", "mirrored-3q"],
    )
    def test_map_cells_within_bound_and_spelled_digits(self, b2, c2, m_pulses, orthogonal, n_cells):
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses, orthogonal=orthogonal)
        fmap = fidelity_map(family)
        lines = map_csv_text(fmap).split(b"\n")
        n_even = fmap.axis_even.size
        vectors = (family.vector_odd.components, family.vector_even.components)
        order = [k % 2 for k in range(m_pulses)]
        cells = np.random.default_rng(39).choice(fmap.values.size, n_cells, replace=False)
        for i, j in zip(*np.unravel_index(cells, fmap.values.shape)):
            # The half-areas the kernel computes, in its float64 operations.
            thetas = [0.5 * a for a in pulse_areas(fmap.axis_odd[i], fmap.axis_even[j], m_pulses)]
            truth = mp_fidelity(mp_amplitudes(vectors, thetas, order))
            value = fmap.values[i, j]
            assert abs(mpmath.mpf(float(value)) - truth) <= TRUTH_BOUND, (i, j, value, truth)
            spelled = lines[1 + i * n_even + j].split(b",")[2]
            rounded = nine_digit_rounding(truth)
            assert rounded is None or decimal.Decimal(spelled.decode()) == rounded, (i, j, spelled, truth)

    @pytest.mark.parametrize(
        "b2, c2, m_pulses, orthogonal",
        [(0.1, 0.0, 3, True), (0.3, 0.0, 4, True), (0.1, 0.1, 5, True), (0.5, 0.5, 3, False)],
        ids=["2q-M3", "2q-M4", "3q-M5", "mirrored-3q"],
    )
    def test_cells_where_a_block_returns_within_bound(self, b2, c2, m_pulses, orthogonal):
        # A block of coupling norm s_b returns to its ground state after each pulse of
        # area 2πk/s_b: such odd and even areas on both axes, and two sampled areas each.
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses, orthogonal=orthogonal)
        vectors = (family.vector_odd.components, family.vector_even.components)
        rng = np.random.default_rng(48)
        axes = []
        for vector, n_pulses in zip(vectors, ((m_pulses + 1) // 2, m_pulses // 2)):
            zeros = [z for r in range(1, len(vector) + 1) for z in itertools.combinations(vector, r)]
            norms = {math.sqrt(sum(x * x for x in z)) for z in zeros} - {0.0}
            returns = [n_pulses * 2 * PI * k / s for s in sorted(norms) for k in (-1, 1, 2)]
            axes.append(np.concatenate([returns, rng.uniform(-8 * PI, 8 * PI, 2)]))
        values = family_diagonal_grid(family, *axes, fidelity_from_amplitudes)
        order = [k % 2 for k in range(m_pulses)]
        for i, j in np.ndindex(values.shape):
            thetas = [0.5 * a for a in pulse_areas(axes[0][i], axes[1][j], m_pulses)]
            truth = mp_fidelity(mp_amplitudes(vectors, thetas, order))
            assert abs(mpmath.mpf(float(values[i, j])) - truth) <= TRUTH_BOUND, (i, j, values[i, j], truth)


class TestScanTruth:
    """Seeded robustness and b-scan rows against the mpmath truth, within ``TRUTH_BOUND``.

    Robustness curves cross zero, so near δ = ±0.5π a value may carry only a
    few correct digits; the bound is absolute.
    """

    @pytest.mark.parametrize("b2, areas", [(0.0, (2.0, 2.0)), (0.1, (2.5, -1.5))], ids=["default", "b2=0.1"])
    def test_robustness_rows_within_bound(self, b2, areas):
        protocol = sop_family(b2=b2).protocol(areas[0] * PI, areas[1] * PI)
        deltas = np.concatenate([[-0.5, 0.5], np.random.default_rng(43).uniform(-0.5, 0.5, 23)]) * PI
        curves = robustness_scan(protocol, deltas)
        vectors = [pulse.vector.components for pulse in protocol.pulses]
        for row, delta in enumerate(deltas):
            # The half-areas the kernel computes, in its float64 operations.
            thetas = [0.5 * (p.area + (delta if k % 2 == 0 else 2.0 * delta)) for k, p in enumerate(protocol.pulses)]
            truth = mp_amplitudes(vectors, thetas, range(len(vectors)))
            for label, curve in zip(["00", "01", "10"], (curves.u11v, curves.u11a, curves.u11b)):
                assert abs(mpmath.mpf(float(curve[row])) - truth[label].real) <= TRUTH_BOUND, (row, label)

    @pytest.mark.parametrize("orthogonal", [True, False])
    @pytest.mark.parametrize("areas", [(2.0, 2.0), (-3.5, 1.0)])
    def test_b_scan_rows_within_bound(self, areas, orthogonal):
        b2_grid = np.concatenate([[0.0, 1.0], np.random.default_rng(44).uniform(0.0, 1.0, 10)])
        scan = b_scan((areas[0] * PI, areas[1] * PI), b2_grid, orthogonal=orthogonal)
        thetas = [0.5 * a for a in pulse_areas(areas[0] * PI, areas[1] * PI)]
        for row, vectors in enumerate(zip(*family_vectors(b2_grid, orthogonal=orthogonal))):
            truth = mp_fidelity(mp_amplitudes(vectors, thetas, [0, 1, 0]))
            assert abs(mpmath.mpf(float(scan[row])) - truth) <= TRUTH_BOUND, (row, b2_grid[row])


class TestMapBlocks:
    """``fidelity_map`` reduces chunks of odd rows, each equal to the one-chunk map."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Odd rows of each chunk a map reduces, one :func:`fidelity_from_amplitudes` call each."""
        seen = []
        original = sopgate.fidelity.fidelity_from_amplitudes

        def recorded(diag):
            seen.append(diag.shape[0])
            return original(diag)

        monkeypatch.setattr(sopgate.fidelity, "fidelity_from_amplitudes", recorded)
        return seen

    @pytest.mark.parametrize("m_pulses", [2, 3, 4, 5])
    @MAP_FAMILIES
    @pytest.mark.parametrize(
        "grid_odd, grid_even",
        [
            (GridSpec(-5.3, 5.7, 0.5), GridSpec(-2.9, 3.1, 0.5)),  # 23 x 13
            (GridSpec(-4.1, 3.9, 0.5), GridSpec(-7.9, 7.1, 0.5)),  # 17 x 31
            (GridSpec(-5.0, 5.0, 0.5), GridSpec(-5.0, 5.0, 0.5)),  # 21 x 21
        ],
    )
    def test_blocks_keep_every_bit(
        self, monkeypatch, blocks, m_pulses, b2, c2, orthogonal, grid_odd, grid_even
    ):
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses, orthogonal=orthogonal)
        whole = fidelity_map(family, grid_odd, grid_even).values
        assert blocks == [grid_odd.n_points]
        row_bytes = map_row_bytes(family.n_qubits, grid_even.n_points)
        counts = set()
        # A budget under one odd row gets chunks of one row.
        for budget in (1, *(rows * row_bytes for rows in (1, 2, 3, 4, 5, 7, 8, 12))):
            monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", budget)
            blocks.clear()
            values = fidelity_map(family, grid_odd, grid_even).values
            np.testing.assert_array_equal(values, whole)
            assert 0 < min(blocks) and max(blocks) - min(blocks) <= 1
            assert max(blocks) * row_bytes <= budget or max(blocks) == 1
            assert sum(blocks) == grid_odd.n_points
            counts.add(len(blocks))
        assert any(count % 2 for count in counts) and any(count % 2 == 0 for count in counts)

    @pytest.mark.parametrize(
        "b2, c2, grid, n_blocks",
        [(0.1, 0.0, None, 4), (0.1, 0.1, None, 5), (0.1, 0.0, GridSpec(-16, 16, 0.05), 13),
         (0.1, 0.1, GridSpec(-16, 16, 0.05), 20)],
        ids=["default-2q", "default-3q", "wide-2q", "wide-3q"],
    )
    def test_default_and_wide_grid_blocks(self, blocks, b2, c2, grid, n_blocks):
        family = sop_family(b2=b2, c2=c2)
        fidelity_map(family, grid)
        assert len(blocks) == n_blocks
        # About equal chunks, each within the budget.
        assert max(blocks) - min(blocks) <= 1
        row_bytes = map_row_bytes(family.n_qubits, (grid or GridSpec(*DEFAULT_GRID)).n_points)
        assert max(blocks) * row_bytes <= sopgate.propagator._CHUNK_BYTES

    @pytest.mark.parametrize("m_pulses", [2, 3, 4, 5])
    @MAP_FAMILIES
    def test_cells_equal_their_points(self, m_pulses, b2, c2, orthogonal):
        # Each cell's F is that of its point's own amplitudes, a one-point batch.
        family = sop_family(b2=b2, c2=c2, m_pulses=m_pulses, orthogonal=orthogonal)
        grid_odd, grid_even = GridSpec(-5.3, 5.7, 0.5), GridSpec(-2.9, 3.1, 0.5)  # 23 x 13
        fmap = fidelity_map(family, grid_odd, grid_even)
        for i, j in np.ndindex(fmap.values.shape):
            point = family_amplitudes(family, fmap.axis_odd[i], fmap.axis_even[j])
            cell = fidelity_from_amplitudes(point[None])
            assert cell.tobytes() == fmap.values[i, j : j + 1].tobytes()

    def test_wide_three_qubit_map_memory(self):
        grid = GridSpec(-16, 16, 0.05)
        family = sop_family(b2=0.1, c2=0.1)
        tracemalloc.start()
        try:
            fidelity_map(family, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The whole map's amplitudes alone would take 8 * 641**2 * 16 B = 52.6 MB;
        # its fidelities take 3.3 MB.
        assert peak < 11.0e6


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
        b_scan((2 * PI, -1.5 * PI), np.linspace(0.0, 0.5, 11))
        assert carried == {2}

    def test_robustness_scan_carries_two(self, carried):
        robustness_scan(sop_family(b2=0.1).protocol(2 * PI, 2 * PI), np.linspace(-0.1, 0.1, 11))
        assert carried == {2}

    def test_optimizer_batch_carries_none(self, carried):
        # The optimizers' candidates take the BLAS-free row kernel, which carries no gemm rows.
        optimize_third_qubit((2.4 * PI, 1.1 * PI), b=math.sqrt(0.1), seed=3, restarts=2)
        assert carried == set()

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
            np.testing.assert_array_equal(per_row[r], family_amplitudes(family, area_odd[r], area_even[r]))
            np.testing.assert_array_equal(shared[r], family_amplitudes(family, 2.5 * PI, -1.5 * PI))


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

    def test_protocol_without_pulses_gives_curves_of_ones(self):
        curves = robustness_scan(Protocol((), 2), np.linspace(-0.1, 0.1, 5))
        assert curves.delta_area.shape == (5,)
        for curve in (curves.u11v, curves.u11a, curves.u11b):
            assert curve.tobytes() == np.ones(5).tobytes()

    def test_chunked_scan_equals_whole_scan(self, monkeypatch):
        # The kernel's chunks keep every byte of the one-chunk scan. Per error the
        # kernel counts 4 amplitudes, two carried rows of the 3-level block in a
        # product and its operand, and 4 pulses' propagators: two 2×2, one 3×3.
        row_bytes = 16 * (4 + 4 * 3 + 4 * (2 * 4 + 9))
        protocol = sop_family(b2=0.2, m_pulses=4).protocol(2.3 * PI, 1.7 * PI)
        deltas = np.linspace(-0.4 * PI, 0.4 * PI, 201)
        whole = robustness_scan(protocol, deltas)
        calls = []
        kernel = sopgate.fidelity.register_amplitudes

        def counted(vectors, thetas, order=None, reduce=None):
            def recorded(amplitudes):
                calls.append(amplitudes.shape[0])
                return reduce(amplitudes)

            return kernel(vectors, thetas, order, recorded)

        monkeypatch.setattr(sopgate.fidelity, "register_amplitudes", counted)
        for budget, rows in [(1, 1), *((rows * row_bytes, rows) for rows in (1, 2, 3, 5, 7))]:
            monkeypatch.setattr(sopgate.propagator, "_CHUNK_BYTES", budget)
            calls.clear()
            chunked = robustness_scan(protocol, deltas)
            assert sum(calls) == 201 and len(calls) == -(-201 // rows)
            assert max(calls) <= rows and max(calls) - min(calls) <= 1
            for name in ("delta_area", "u11v", "u11a", "u11b"):
                assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()

    def test_long_scan_memory(self):
        # 200 001 errors: their three curves take 4.8 MB, their amplitudes 12.8 MB.
        protocol = sop_family(b2=0.1).protocol(2 * PI, 2 * PI)
        deltas = np.linspace(-0.5, 0.5, 200_001)
        tracemalloc.start()
        try:
            robustness_scan(protocol, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6

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
        assert b_scan((2 * PI, 2 * PI), [0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_beats_mirrored_everywhere(self):
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f_orth = b_scan((2 * PI, 2 * PI), b2_grid, orthogonal=True)
        f_non = b_scan((2 * PI, 2 * PI), b2_grid, orthogonal=False)
        assert np.all(f_orth >= f_non)
        assert np.max(f_orth - f_non) > 0.03

    def test_large_area_protocol_decays_faster_then_recovers(self):
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f_22 = b_scan((2 * PI, 2 * PI), b2_grid)
        f_26 = b_scan((2 * PI, 6 * PI), b2_grid)
        near_zero = b2_grid <= 0.05
        assert np.all(f_26[near_zero] < f_22[near_zero])
        assert f_26.max() > 0.99

    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_equals_pointwise_gate_fidelity(self, orthogonal):
        # b^2 = 1 + 2**-52 squares back to 1 and is a valid family.
        edges = [-0.0, 5e-324, 1e-300, 1 - 2**-53, 1.0, 1 + 2**-52]
        b2_grid = [*np.arange(0.0, 0.5001, 0.05).tolist(), *edges]
        scan = b_scan((2.5 * PI, -1.5 * PI), b2_grid, orthogonal=orthogonal)
        for value, b2 in zip(scan, b2_grid):
            protocol = sop_family(b2=b2, orthogonal=orthogonal).protocol(2.5 * PI, -1.5 * PI)
            assert value == gate_fidelity(protocol)

    @pytest.mark.parametrize("b2", [-0.1, -5e-324, 1.1, 1 + 2**-51, math.inf, -math.inf, math.nan])
    def test_refused_overlap(self, b2):
        with pytest.raises(NotNormalizedError):
            sop_family(b2=b2)
        with pytest.raises(NotNormalizedError):
            b_scan((2 * PI, 2 * PI), [0.1, b2, 0.2])

    @pytest.mark.parametrize("areas", [(math.inf, 2 * PI), (2 * PI, -math.inf), (math.nan, 2 * PI)])
    def test_areas_not_finite_in_radians_refused_before_the_kernel(self, monkeypatch, areas):
        calls = []
        monkeypatch.setattr(sopgate.fidelity, "register_amplitudes", lambda *a, **k: calls.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyGridError, match="not finite"):
                b_scan(areas, [0.1])
        assert calls == []

    def test_second_pulse_free_protocol(self):
        # (14, 0): no even pulse at all, still high fidelities at some b
        b2_grid = np.arange(0.01, 0.501, 0.01)
        f = b_scan((14 * PI, 0 * PI), b2_grid)
        assert f.max() > 0.95

    def test_long_scan_memory(self):
        # 100 001 points: their fidelities take 0.8 MB, their amplitudes 6.4 MB.
        b2_grid = np.linspace(0.0, 0.5, 100_001)
        tracemalloc.start()
        try:
            b_scan((2 * PI, 2 * PI), b2_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26e6


def b2_edges(c2):
    """b^2 values a family at ``c2`` accepts, up to and at b^2 + c^2 = 1, and one past it."""
    edges = [*np.linspace(0.0, 1.0 - c2, 11).tolist(), 5e-324, 1e-300, 1.0 - c2]
    return edges + [1 + 2**-52] if c2 == 0.0 else edges


class TestFamilyVectors:
    """The one builder of the family's vectors, on arrays, against ``sop_family`` at each b^2."""

    @pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "mirrored"])
    @pytest.mark.parametrize(
        "n_qubits, c2",
        [(2, 0.0), (None, 0.0), (3, 0.0), (3, 0.1), (3, 0.5), (None, 0.47), (3, 0.25)],
    )
    def test_rows_equal_sop_family_bit_for_bit(self, n_qubits, c2, orthogonal):
        b2 = b2_edges(c2)
        odd, even = family_vectors(np.array(b2), c2, n_qubits, orthogonal)
        assert odd.shape == even.shape == (len(b2), n_qubits or 2 + (c2 > 0))
        for k, value in enumerate(b2):
            family = sop_family(b2=value, c2=c2, n_qubits=n_qubits, orthogonal=orthogonal)
            assert odd[k].tobytes() == np.array(family.vector_odd.components).tobytes()
            assert even[k].tobytes() == np.array(family.vector_even.components).tobytes()

    def test_refusal_order(self):
        # the squares first, then the register, then the norms
        with pytest.raises(NotNormalizedError, match="c2 must be"):
            family_vectors(0.1, math.nan, n_qubits=2)
        with pytest.raises(DimensionMismatchError, match="3-qubit register"):
            family_vectors(0.6, 0.6, n_qubits=2)
        with pytest.raises(NotNormalizedError, match=r"c\^2 <= 0.5"):
            family_vectors(0.1, 0.6, n_qubits=3)
        family_vectors(0.1, 0.6, n_qubits=3, orthogonal=False)  # mirrored: no c^2 bound

    @pytest.mark.parametrize(
        "grid, named",
        [
            ([0.1, 0.2, 1.5, 0.3, -1.0], "b^2 = 1.5 exceeds 1"),
            ([0.1, math.nan, 2.0], "b2 must be a finite number >= 0, got nan"),
            ([0.1, -0.25, 2.0], "b2 must be a finite number >= 0, got -0.25"),
            ([1.0, 1 + 2**-52, 1 + 2**-51], f"b^2 = {1 + 2**-51!r} exceeds 1"),
        ],
        ids=["too-large", "nan", "negative", "past-round-off"],
    )
    def test_array_refusal_names_its_first_bad_value(self, grid, named):
        with pytest.raises(NotNormalizedError) as info:
            family_vectors(np.array(grid))
        assert str(info.value) == named
        with pytest.raises(NotNormalizedError) as info:
            b_scan((2 * PI, 2 * PI), grid)
        assert str(info.value) == named


#: Cells wider than the 14-byte slot: a sign byte, a three-digit exponent
#: (15 bytes) and both (16), and formatter text of 15 bytes.
WIDE_CELLS = [-0.25, 1.23456789e-100, -1.23456789e-308, 1.23456789e300]
WIDE_CELL_IDS = ["negative", "exponent-100", "negative-exponent-308", "exponent+300"]


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
        block = _CSV_BLOCK_LINES // n_even
        n_odd = 2 * block + 5
        values = 10.0 ** np.random.default_rng(5).uniform(-6, 0.01, (n_odd, n_even))
        fmap = FidelityMap(
            axis_odd=np.linspace(-PI, PI, n_odd), axis_even=np.arange(n_even) * 0.3, values=values
        )
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()

    @pytest.mark.parametrize("value", WIDE_CELLS, ids=WIDE_CELL_IDS)
    @pytest.mark.parametrize("edge", ["first", "last", "past"])
    def test_one_wide_cell_at_block_edges_of_a_map(self, value, edge):
        # A block's fidelity slot widens for its own cells only: the one cell
        # that needs a sign byte or a longer text, on the first or last line of
        # the first block, or on the first line of the next.
        n_even = 7
        block = _CSV_BLOCK_LINES // n_even
        values = np.random.default_rng(13).uniform(0, 1, (2 * block + 5, n_even))
        row, column = {"first": (0, 0), "last": (block - 1, n_even - 1), "past": (block, 0)}[edge]
        values[row, column] = value
        axis_odd, axis_even = np.arange(len(values)) * 0.01, np.arange(n_even) * 0.3
        fmap = FidelityMap(axis_odd=axis_odd, axis_even=axis_even, values=values)
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()

    @pytest.mark.parametrize(
        "shape", [(1, 2 * _CSV_BLOCK_LINES + 3), (2 * _CSV_BLOCK_LINES + 3, 1)], ids=["1xN", "Nx1"]
    )
    def test_one_row_and_one_column_maps(self, shape):
        rng = np.random.default_rng(17)
        values = 10.0 ** rng.uniform(-8, 0, shape)
        values.flat[[5, 7, -1]] = [-0.5, 1.23456789e-100, -0.0]
        axis_odd = np.linspace(-PI, PI, shape[0])
        fmap = FidelityMap(axis_odd=axis_odd, axis_even=np.linspace(-2 * PI, 2 * PI, shape[1]), values=values)
        assert map_csv_text(fmap) == per_cell_map_csv_text(fmap).encode()

    def test_wide_map_memory(self):
        fmap = fidelity_map(sop_family(b2=0.1), GridSpec(-16, 16, 0.05))
        tracemalloc.start()
        try:
            size = len(map_csv_text(fmap))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The text once, in a buffer grown at most an eighth past it, and one
        # block's temporaries: 1.16 times (1.14-1.18 in a buffer pre-sized by a
        # length bound, 2.09 when the blocks were joined).
        assert peak <= 1.5 * size


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


#: The powers of ten of the exponent cells, 1e-5 ... 1e-99, and the ties
#: below them that round up into them.
EXPONENT_EDGES = np.array(
    [float(f"{mantissa}e-{k}") for k in range(5, 100) for mantissa in ("1", "9.9999999995")]
)

#: Doubles next to a ninth-digit tie whose scaled float, within 1.2e-7 of
#: the tie, lies on its far side: the tie guard's margin, not only exact
#: ties, sends them to the formatter.
NEAR_TIES = [9.969312875e-36, 8.588029455e-83, 4.877171855e-61, 2.548880645e-48]

#: The edges of the vectorized decades and ties, and their neighbours.
SPELLING_EDGES = [
    *[1e-4, 0.1, 0.99999999995, 9.9999999995e-5, 0.999999999, 1.0, 5e-324, 2.2250738585072014e-308],
    *np.nextafter([1e-4, 1e-3, 1e-2, 0.1, 1.0], 0).tolist(),
    *[0.0, math.nan, math.inf, 1.7976931348623157e308, 123456789.5],
    *[1e-100, 9.9999999995e-100, *np.nextafter([1e-100, 1e-100], [0, 1]).tolist()],
    *EXPONENT_EDGES.tolist(),
    *NEAR_TIES,
    *np.nextafter(EXPONENT_EDGES, 0).tolist(),
    *np.nextafter(EXPONENT_EDGES, 1).tolist(),
]


def assert_spelled(values):
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    text = csv_text("x", [values])  # a column of the full shape: every cell through _spell
    assert text == b"x\n" + b"".join(b"%.9g\n" % x for x in values.ravel().tolist())


class TestSpellCells:
    """The signed speller, through a one-column CSV, against ``b"%.9g" % x``, byte for byte."""

    @given(st.lists(st.floats(), max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        assert_spelled(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, bits):
        # nan payloads and signs, subnormals and every exponent alike
        assert_spelled(np.array(bits, dtype=np.uint64).view(np.float64))

    @given(
        st.lists(
            st.tuples(st.floats(min_value=1e-4, max_value=1, exclude_max=True), st.booleans()),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_vectorized_magnitudes_of_both_signs(self, pairs):
        assert_spelled([-x if negative else x for x, negative in pairs])

    @given(
        st.lists(
            st.tuples(st.floats(min_value=1e-300, max_value=1e-4, exclude_max=True), st.booleans()),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_exponent_magnitudes_of_both_signs(self, pairs):
        assert_spelled([-x if negative else x for x, negative in pairs])

    @pytest.mark.parametrize(
        "values",
        [SPELLING_EDGES, halfway_values(), ADVERSARIAL_FIDELITIES],
        ids=["edges", "halfway", "adversarial"],
    )
    def test_edges_of_both_signs(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert_spelled(np.concatenate([values, -values]))

    def test_shape_kept(self):
        values = np.linspace(-1.5, 1.5, 24).reshape(2, 3, 4)
        assert_spelled(values)
        assert_spelled(values[:, :0])
        assert_spelled(values[0, 0, 0] * 1e-9)


@st.composite
def labelled_columns(draw):
    """0-2 label columns of shape (n, 1) or (m,), 1-3 columns of shape (n, m), maybe one smaller column after them."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def column(shape):
        values = draw(st.lists(st.floats(), min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(values, dtype=np.float64).reshape(shape)

    smaller = st.sampled_from([(n, 1), (m,)])
    labels = [column(draw(smaller)) for _ in range(draw(st.integers(0, 2)))]
    spelled = [column((n, m)) for _ in range(draw(st.integers(1, 3)))]
    return labels + spelled + [column(draw(smaller)) for _ in range(draw(st.integers(0, 1)))]


class TestCsvText:
    """Scan CSVs against the per-row ``f"{x:.9g}"`` rendering they replaced."""

    @given(
        st.integers(1, 5).flatmap(
            lambda n_columns: st.lists(
                st.lists(st.floats(), min_size=n_columns, max_size=n_columns), max_size=40
            ).map(lambda rows: (n_columns, rows))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_rendering(self, shaped):
        n_columns, rows = shaped
        columns = np.array(rows, dtype=np.float64).reshape(-1, n_columns).T
        assert csv_text("h", list(columns)) == per_row_csv_text("h", rows)

    def test_rows_over_several_blocks(self):
        n_rows = 2 * _CSV_BLOCK_LINES + 5
        rng = np.random.default_rng(3)
        columns = [np.linspace(-1, 1, n_rows), rng.uniform(-1, 1, n_rows), rng.normal(size=n_rows)]
        text = csv_text("x,y,z", columns)
        assert text == per_row_csv_text("x,y,z", zip(*columns))

    def test_columns_broadcast(self):
        columns = [np.array([-1.0, 0.5])[:, None], np.array([0.25, 3e-5, 1e10]), np.eye(2, 3)]
        assert csv_text("p,q,r", columns) == (
            b"p,q,r\n-1,0.25,1\n-1,3e-05,0\n-1,1e+10,0\n0.5,0.25,0\n0.5,3e-05,1\n0.5,1e+10,0\n"
        )

    @given(labelled_columns())
    @settings(max_examples=100, deadline=None)
    def test_labels_then_one_spelled_run(self, columns):
        # leading smaller columns are formatted labels, every later one is spelled
        shape = np.broadcast_shapes(*(column.shape for column in columns))
        rows = zip(*(np.broadcast_to(column, shape).ravel().tolist() for column in columns))
        header = ",".join(f"c{k}" for k in range(len(columns)))
        assert csv_text(header, columns) == per_row_csv_text(header, rows)

    def test_last_column_spelled_without_a_full_shape_column(self):
        assert csv_text("p,q", [np.array([[-1.0], [0.5]]), np.array([0.25, 3e-5, 1e10])]) == (
            b"p,q\n-1,0.25\n-1,3e-05\n-1,1e+10\n0.5,0.25\n0.5,3e-05\n0.5,1e+10\n"
        )
        # a label varying along the first axis over several blocks of the broadcast last column
        rng = np.random.default_rng(5)
        a = np.linspace(-1, 1, 2 * _CSV_BLOCK_LINES // 9 + 3)
        b = rng.uniform(-1, 1, 9)
        text = csv_text("a,b", [a[:, None], b])
        assert text == per_row_csv_text("a,b", itertools.product(a.tolist(), b.tolist()))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_broadcast_float_column_equals_full_shape(self, axis):
        # A smaller float column is formatted once and broadcast, a full-shape
        # one is spelled into its slot block by block: the two routes agree.
        rng = np.random.default_rng(7)
        shape = (2 * _CSV_BLOCK_LINES // 9 + 3, 9)
        small = 10.0 ** rng.uniform(-120, 2, shape[axis]) * rng.choice([-1.0, 1.0], shape[axis])
        small[:4] = [0.0, math.nan, 1e-4, 9.9999999995e-5]
        small = small[:, None] if axis == 0 else small
        full = np.broadcast_to(small, shape).copy()
        values = rng.uniform(0, 1, shape)
        text = csv_text("p,q,r", [small, values, small])
        assert text == csv_text("p,q,r", [full, values, full])
        assert text == per_row_csv_text("p,q,r", zip(full.ravel(), values.ravel(), full.ravel()))

    @pytest.mark.parametrize("value", WIDE_CELLS, ids=WIDE_CELL_IDS)
    @pytest.mark.parametrize("at", [0, _CSV_BLOCK_LINES - 1, _CSV_BLOCK_LINES], ids=["first", "last", "past"])
    def test_one_wide_cell_at_block_edges(self, value, at):
        values = np.random.default_rng(11).uniform(0, 1, 2 * _CSV_BLOCK_LINES + 5)
        values[at] = value
        assert csv_text("x", [values]) == per_row_csv_text("x", zip(values))

    def test_negatives_in_one_block_only(self):
        values = np.random.default_rng(19).uniform(0, 1, 3 * _CSV_BLOCK_LINES)
        values[_CSV_BLOCK_LINES : 2 * _CSV_BLOCK_LINES] *= -1
        columns = [values, values[::-1].copy()]
        assert csv_text("x,y", columns) == per_row_csv_text("x,y", zip(*columns))

    def test_robustness_scan_with_negative_deltas(self):
        # four spelled columns make blocks of _CSV_BLOCK_LINES // 4 lines; the
        # deltas are negative in the first half, the amplitudes change sign
        deltas = np.arange(-0.5, 0.5 + 5e-5, 1e-4) * PI
        curves = robustness_scan(jp_protocol(), deltas)
        columns = [deltas / PI, curves.u11v, curves.u11a, curves.u11b]
        assert len(deltas) > 2 * (_CSV_BLOCK_LINES // 4)
        text = csv_text("delta_a_over_pi,u11v,u11a,u11b", columns)
        assert text == per_row_csv_text("delta_a_over_pi,u11v,u11a,u11b", zip(*columns))

    @pytest.mark.parametrize(
        "row",
        [
            [-3.5, 2.0, 0.987654321234, 0.31622, -1.2345678],
            [8.0, -8.0, 1.0, 0.0, 0.1],
            [0.5, -0.5, 9.99999999e-05, -2.5e-7, 3.0e-120],
        ],
    )
    def test_one_line_of_an_optimized_point(self, row):
        header = "a_odd_over_pi,a_even_over_pi,fidelity,c_odd,c_even"
        columns = [np.array([x]) for x in row]
        assert csv_text(header, columns) == per_row_csv_text(header, [row])

    def test_no_rows(self):
        assert csv_text("a,b", [np.zeros(0), np.zeros(0)]) == b"a,b\n"

    def test_long_robustness_scan_memory(self):
        # 200 001 rows, as `robustness --delta-max 0.5 --delta-step 5e-6`
        deltas = np.arange(-0.5, 0.5 + 2.5e-6, 5e-6) * PI
        curves = robustness_scan(jp_protocol(), deltas)
        columns = [deltas / PI, curves.u11v, curves.u11a, curves.u11b]
        tracemalloc.start()
        try:
            size = len(csv_text("delta_a_over_pi,u11v,u11a,u11b", columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(deltas) == 200_001
        # The text once, in a buffer grown at most an eighth past it, and one
        # block's temporaries: 1.14 times (1.21 in a buffer pre-sized by a
        # length bound, 2.03 when the blocks were joined, 3.2 for the per-row
        # rendering).
        assert peak <= 1.5 * size

    @pytest.mark.parametrize("n_rows", [0, 1, _CSV_BLOCK_LINES, 2 * _CSV_BLOCK_LINES + 5])
    def test_returns_bytes(self, n_rows):
        # bench/spans.py counts len() of map_csv_text's result, a bytes object.
        columns = [np.linspace(-1, 1, n_rows), np.array([0.5])]
        text = csv_text("a,b", columns)
        assert type(text) is bytes
        assert text.count(b"\n") == 1 + n_rows


class TestMapMaxima:
    """Maxima from the cells above threshold against the whole padded grid."""

    @pytest.mark.parametrize(
        "family, grid",
        [
            (sop_family(b2=0.1), None),
            (sop_family(b2=0.0), None),
            (sop_family(b2=0.1, c2=0.1), None),
            (sop_family(b2=0.25, m_pulses=5), GridSpec(-4, 4, 0.05)),
            (sop_family(b2=0.1), GridSpec(1.5, 1.5, 1)),
        ],
    )
    @pytest.mark.parametrize("threshold", [0.0, 0.7, 0.999999999999])
    def test_equals_padded_grid(self, family, grid, threshold):
        fmap = fidelity_map(family, grid)
        maxima, expected = map_maxima(fmap, threshold), padded_map_maxima(fmap, threshold)
        assert maxima.shape == expected.shape and maxima.tobytes() == expected.tobytes()

    def test_edges_plateaus_and_nan(self):
        values = np.array(
            [
                [0.9, 0.1, 0.8, 0.8, 0.2],
                [0.1, 0.2, 0.1, 0.1, 0.95],
                [0.3, math.nan, 0.1, 0.6, 0.1],
                [0.1, 0.5, 0.4, 0.1, 0.7],
            ]
        )
        fmap = FidelityMap(axis_odd=np.arange(4.0), axis_even=np.arange(5.0) * 0.5, values=values)
        maxima = map_maxima(fmap, 0.5)
        # corners and edges count; a plateau, a larger or a NaN neighbour does not
        assert maxima.tolist() == [[1.0, 2.0, 0.95], [0.0, 0.0, 0.9], [3.0, 2.0, 0.7]]
        assert maxima.tobytes() == padded_map_maxima(fmap, 0.5).tobytes()
        assert map_maxima(fmap, math.nan).shape == (0, 3)
