"""Seeded CLI jobs of the three workloads, how to run them, and how to check them.

A job is one ``sopgate`` command line. Every input a job carries comes from a
finite pool, so that each job has a reference outcome captured from the seed
commit (see ``capture_refs.py``). The workload seed only chooses from the
pools; the program sees nothing but the generated argv.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

#: Map gate: largest |F - F_ref| at a map's sample points.
MAP_DF_GATE = 1e-12
#: Optimize gate: largest F_ref - F of a point that had a reference value.
OPT_SHORTFALL_GATE = 1e-9
#: Validate gate, per protocol and shape (the CLI's own default tolerance).
TDSE_DEV_GATE = 1e-6
#: A validate deviation, whole or of one basis state, also fails when it is
#: more than this factor above its reference (RK4 error goes with h^4, so 4x
#: is about 30% fewer steps) and above the floor, which sits well over the
#: round-off of states the protocol leaves alone.
TDSE_DEV_FACTOR = 4.0
TDSE_DEV_FLOOR = 1e-12
#: Relative tolerance on the floats of a map's lattice report and max F.
LATTICE_RTOL = 1e-9

#: Squared overlap factors the map-sweep jobs draw from.
B2_POOL = tuple(round(0.05 * i, 2) for i in range(11))
#: (b^2, c^2) pairs of the three-qubit map.
B2C2_POOL = tuple((b2, c2) for b2 in (0.05, 0.1, 0.2) for c2 in (0.05, 0.1, 0.2))
ESOP_PULSES = (2, 4, 5)
#: Default map grid of the CLI (-8:8:0.05) and the wide grid.
DEFAULT_GRID_POINTS = 321 * 321
WIDE_GRID = "-16:16:0.05"
WIDE_GRID_POINTS = 641 * 641
#: Area pairs (units of pi) of bscan and robustness jobs.
SCAN_AXIS = tuple(-4.0 + 0.5 * i for i in range(17))
BSCAN_B2_POINTS = 101  # CLI default 0:0.5:0.005
ROBUSTNESS_DELTAS = 201  # CLI default -0.5:0.5:0.005
#: The default optimize grid -8:8:0.5.
OPT_AXIS = tuple(-8.0 + 0.5 * i for i in range(33))
OPT_MODES = ("third-qubit", "all-factors")
OPT_RESTARTS = 16
#: Validate seeds whose random protocol has a typical RK4 step count in both
#: shapes: the first 32 seeds in 0..1999 whose step counts lie within 3% of
#: the medians over those 2000 seeds (``capture_refs.py tdse-pool``). The
#: selection looks at cost only, never at the validation outcome, and it
#: keeps the work of one round nearly constant so a short run is steady.
TDSE_SEED_POOL = (
    6, 23, 43, 71, 148, 163, 254, 365, 376, 429, 431, 439, 479, 589, 598, 642,
    643, 663, 675, 716, 725, 733, 790, 802, 834, 845, 982, 1000, 1101, 1106, 1108, 1147,
)
TDSE_SHAPES = ("squared-sine", "gaussian")

WORKLOADS = ("map-sweep", "optimize-points", "tdse-validate")


def fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``artifacts`` names each CSV the job writes with the reference key of its
    SHA-256. ``ops`` is what the job counts in ``attempted``; ``points`` is
    the work it adds to the workload's rate when it passes. Jobs of one
    ``timing`` class cost about the same; they differ only in drawn inputs.
    """

    kind: str
    timing: str
    key: str
    argv: tuple[str, ...]
    ops: int
    points: int
    artifacts: tuple[tuple[str, str], ...] = ()


def _map_job(kind: str, b2: float, c2: float = 0.0, pulses: int = 3, wide: bool = False) -> Job:
    argv = ["esop-map" if kind == "esop" else "map", "--b2", fmt(b2)]
    key = f"{kind}:b2={fmt(b2)}"
    if c2:
        argv += ["--c2", fmt(c2)]
        key += f",c2={fmt(c2)}"
    if kind == "esop":
        argv += ["--pulses", str(pulses)]
        key += f",M={pulses}"
    if wide:
        argv.append(f"--grid={WIDE_GRID}")
    argv += ["--threads", "1"]
    stem = "esop_map.csv" if kind == "esop" else "fidelity_map.csv"
    points = WIDE_GRID_POINTS if wide else DEFAULT_GRID_POINTS
    timing = f"esop:M={pulses}" if kind == "esop" else kind
    return Job(kind, timing, key, tuple(argv), 1, points, ((stem, key),))


def bscan_job(pairs) -> Job:
    argv = ["bscan"] + [f"--areas={fmt(o)},{fmt(e)}" for o, e in pairs] + ["--threads", "1"]
    artifacts = tuple(
        (f"bscan_{fmt(o)}_{fmt(e)}.csv".replace("-", "m"), f"bscan:{fmt(o)},{fmt(e)}")
        for o, e in pairs
    )
    # One b^2 point is one protocol evaluated with orthogonal and mirrored vectors.
    points = 2 * BSCAN_B2_POINTS * len(pairs)
    return Job("bscan", "bscan", "bscan", tuple(argv), 1, points, artifacts)


def robustness_job(b2s, pair) -> Job:
    o, e = pair
    argv = ("robustness", "--b2", ",".join(fmt(b) for b in b2s), f"--areas={fmt(o)},{fmt(e)}",
            "--threads", "1")
    artifacts = tuple(
        (f"robustness_b2_{fmt(b)}.csv", f"robustness:{fmt(o)},{fmt(e)}:b2={fmt(b)}") for b in b2s
    )
    return Job("robustness", "robustness", "robustness", argv, 1, ROBUSTNESS_DELTAS * len(b2s), artifacts)


def optimize_job(mode: str, odd: float, even: float) -> Job:
    key = f"opt:{mode}:{fmt(odd)},{fmt(even)}"
    # "--areas=" keeps argparse from reading a negative pair as a flag.
    argv = ("optimize", "--what", mode, f"--areas={fmt(odd)},{fmt(even)}",
            "--restarts", str(OPT_RESTARTS), "--threads", "1")
    # Both targets make about the same number of three-qubit objective calls
    # per point (median 1650 and 1760), so they share one timing class.
    return Job("optimize", "optimize", key, argv, 1, 1)


def validate_job(seed: int, shape: str) -> Job:
    key = f"validate:{seed}:{shape}"
    argv = ("validate", "--samples", "1", "--seed", str(seed), "--shape", shape, "--threads", "1")
    return Job("validate", f"validate:{shape}", key, argv, 1, 1)


def map_sweep_round(rng: random.Random) -> list[Job]:
    """One pass over every map-sweep job type with freshly drawn parameters."""
    jobs = [_map_job("map", b2) for b2 in rng.sample(B2_POOL, 2)]
    b2, c2 = rng.choice(B2C2_POOL)
    jobs.append(_map_job("map3q", b2, c2))
    jobs += [_map_job("esop", rng.choice(B2_POOL), pulses=m) for m in ESOP_PULSES]
    jobs.append(_map_job("wide", rng.choice(B2_POOL), wide=True))
    pairs = [(rng.choice(SCAN_AXIS), rng.choice(SCAN_AXIS)) for _ in range(2)]
    jobs.append(bscan_job(pairs))
    jobs.append(robustness_job(rng.sample(B2_POOL, 3), (rng.choice(SCAN_AXIS), rng.choice(SCAN_AXIS))))
    return jobs


def optimize_round(rng: random.Random) -> list[Job]:
    """Both optimization targets at one point drawn uniformly from the grid."""
    odd, even = rng.choice(OPT_AXIS), rng.choice(OPT_AXIS)
    return [optimize_job(mode, odd, even) for mode in OPT_MODES]


def tdse_round(rng: random.Random) -> list[Job]:
    """One random protocol validated with both envelope shapes."""
    seed = rng.choice(TDSE_SEED_POOL)
    return [validate_job(seed, shape) for shape in TDSE_SHAPES]


ROUNDS = {
    "map-sweep": map_sweep_round,
    "optimize-points": optimize_round,
    "tdse-validate": tdse_round,
}
#: Wall time of one round on the 2-core host the benchmark was built on. A
#: run of ``--seconds S`` makes round(S / ROUND_WALL_S) rounds: 3, 10 and 6
#: at 25 s.
ROUND_WALL_S = {
    "map-sweep": 7.5,
    "optimize-points": 2.5,
    "tdse-validate": 4.3,
}


# --------------------------------------------------------------------------
# running a job


@dataclass
class Outcome:
    """What one job did: exit code (None if it raised), wall time, messages.

    ``host_s`` is the job's wall time rescaled to a steady host (see
    ``hostspeed.py``); the caller that probes the host sets it.
    """

    rc: int | None
    wall_s: float
    stdout: str
    stderr: str
    error: str = ""
    host_s: float = 0.0


def execute(cli_main, job: Job, out_dir: str) -> Outcome:
    """Run ``cli_main(argv)`` in-process, output files going to ``out_dir``."""
    argv = list(job.argv) + ["--out", out_dir]
    out, err = io.StringIO(), io.StringIO()
    error = ""
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback the CLI did not turn into an exit code
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return Outcome(rc, wall, out.getvalue(), err.getvalue(), error)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def csv_rows(path: str, rows) -> dict[int, list[str]]:
    """Fields of the given 0-based data rows of a CSV (header skipped)."""
    wanted = set(rows)
    found = {}
    with open(path) as handle:
        next(handle)
        for i, line in enumerate(handle):
            if i in wanted:
                found[i] = line.rstrip("\n").split(",")
                if len(found) == len(wanted):
                    break
    return found


def map_sample_rows(key: str, n_points: int, count: int = 64) -> list[int]:
    """Sample rows of a map, seeded by the map's reference key."""
    return sorted(random.Random(key).sample(range(n_points), count))


# --------------------------------------------------------------------------
# checking a job against its reference


@dataclass
class Verdict:
    """Result of checking one job.

    ``failed`` counts ops that did not pass their gate. ``regressions`` lists
    failures of ops that passed at the seed commit and any output that
    differs from its reference; a non-empty list makes the run incorrect.
    Failures that the reference records as failures at the seed are known
    defects: they count in ``failed`` but are not regressions.
    """

    ops: int
    failed: int = 0
    points: int = 0
    regressions: list = field(default_factory=list)
    gates: dict = field(default_factory=dict)

    def fail(self, reason: str, known: bool) -> None:
        self.failed = self.ops
        if not known:
            self.regressions.append(reason)


def check(job: Job, outcome: Outcome, out_dir: str, refs: dict) -> Verdict:
    ref = refs.get(job.key) if job.kind in ("optimize", "validate") else None
    known = seed_failure(job, refs)
    verdict = Verdict(ops=job.ops)
    try:
        if job.kind == "optimize":
            _check_optimize(job, outcome, out_dir, ref, known, verdict)
        elif job.kind == "validate":
            _check_validate(job, outcome, out_dir, ref, known, verdict)
        else:
            _check_artifacts(job, outcome, out_dir, refs, verdict)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        verdict.fail(f"{job.key}: unreadable output ({type(exc).__name__}: {exc})", False)
    if not verdict.failed:
        verdict.points = job.points
    return verdict


def seed_failure(job: Job, refs: dict) -> bool:
    """True if the reference records this job's op as failing at the seed commit."""
    ref = refs.get(job.key, {})
    if job.kind == "optimize":
        return "error" in ref
    if job.kind == "validate":
        return "error" in ref or ref.get("max_deviation", 0.0) >= TDSE_DEV_GATE
    return False


def _check_artifacts(job, outcome, out_dir, refs, verdict) -> None:
    if outcome.rc != 0:
        verdict.fail(f"{job.key}: exit {outcome.rc} {outcome.error or outcome.stderr.strip()}", False)
        return
    mismatches = 0
    max_df = 0.0
    for name, key in job.artifacts:
        ref = refs.get(key)
        path = os.path.join(out_dir, name)
        if ref is None or not os.path.exists(path):
            verdict.fail(f"{key}: {'no reference' if ref is None else 'missing ' + name}", False)
            return
        if file_sha256(path) != ref["sha256"]:
            mismatches += 1
        if "lattice" in ref:
            with open(os.path.splitext(path)[0] + ".json") as handle:
                sidecar = json.load(handle)
            for name in ("lattice", "max_fidelity"):
                if not same_report(sidecar.get(name), ref[name]):
                    verdict.fail(f"{key}: sidecar {name} differs from the reference", False)
                    return
        if "samples" in ref:
            rows = [row for row, _ in ref["samples"]]
            fields = csv_rows(path, rows)
            for row, f_ref in ref["samples"]:
                got = fields.get(row)
                d_f = abs(float(got[2]) - f_ref) if got else math.inf
                max_df = max(max_df, d_f)
    verdict.gates["artifact_sha_mismatch"] = mismatches
    if any("samples" in refs.get(key, {}) for _, key in job.artifacts):
        verdict.gates["map_max_abs_dF"] = max_df
    if mismatches or max_df > MAP_DF_GATE:
        verdict.fail(f"{job.key}: {mismatches} SHA mismatch(es), max |dF| {max_df:.3g}", False)


def _check_optimize(job, outcome, out_dir, ref, known, verdict) -> None:
    if ref is None:
        verdict.fail(f"{job.key}: no reference", False)
        return
    if outcome.rc != 0:
        verdict.fail(f"{job.key}: exit {outcome.rc} {outcome.error or outcome.stderr.strip()}", known)
        return
    mode = job.argv[2]
    path = os.path.join(out_dir, f"optimized_map_{mode.replace('-', '_')}.csv")
    fidelity = float(csv_rows(path, [0])[0][2])
    if not 0.0 <= fidelity <= 1.0:
        verdict.fail(f"{job.key}: fidelity {fidelity} outside [0, 1]", False)
        return
    if known:
        # Failed at the seed commit, so there is no reference value to match.
        return
    shortfall = ref["F"] - fidelity
    verdict.gates["opt_F_shortfall"] = shortfall
    if shortfall > OPT_SHORTFALL_GATE:
        verdict.fail(f"{job.key}: F {fidelity!r} short of reference {ref['F']!r}", False)


def _check_validate(job, outcome, out_dir, ref, known, verdict) -> None:
    if ref is None:
        verdict.fail(f"{job.key}: no reference", False)
        return
    if outcome.rc not in (0, 3):
        verdict.fail(f"{job.key}: exit {outcome.rc} {outcome.error or outcome.stderr.strip()}", known)
        return
    with open(os.path.join(out_dir, "validation_report.txt")) as handle:
        (run,) = json.load(handle)["runs"]
    deviation = run["max_deviation"]
    verdict.gates["tdse_max_dev"] = deviation
    if "error" not in ref:
        if (run["n_qubits"], run["n_pulses"]) != (ref["n_qubits"], ref["n_pulses"]):
            verdict.fail(f"{job.key}: generated a different protocol than the reference", False)
            return
        got = dict(run["per_state_deviation"], all=deviation)
        want = dict(ref["per_state_deviation"], all=ref["max_deviation"])
        worse = [
            state for state in want
            if not got.get(state, math.inf) <= max(TDSE_DEV_FACTOR * want[state], TDSE_DEV_FLOOR)
        ]
        if worse or got.keys() != want.keys():
            verdict.fail(f"{job.key}: deviation of {worse or 'other states'} above reference", False)
            return
    if not deviation < TDSE_DEV_GATE:
        verdict.fail(f"{job.key}: deviation {deviation:.3g} >= {TDSE_DEV_GATE:g}", known)


def same_report(got, ref) -> bool:
    """Equal JSON values, floats to ``LATTICE_RTOL``."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(same_report(got[k], v) for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(map(same_report, got, ref))
    if isinstance(ref, float):
        return isinstance(got, (int, float)) and math.isclose(got, ref, rel_tol=LATTICE_RTOL, abs_tol=1e-15)
    return got == ref


def load_refs() -> dict:
    refs = {}
    for name in sorted(os.listdir(REFS_DIR)):
        if name.endswith(".json"):
            with open(os.path.join(REFS_DIR, name)) as handle:
                refs.update(json.load(handle))
    return refs
