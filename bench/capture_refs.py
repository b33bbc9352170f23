"""Capture the reference outcomes the benchmark checks jobs against.

Run this once, on the commit whose outputs define "correct", from the
repository root:

    python3 bench/capture_refs.py maps|scans|optimize|tdse
    python3 bench/capture_refs.py tdse-pool

Each part runs every job its workload can generate, one job per usable
core, and writes ``bench/refs/<part>.json``. An op that fails here is
recorded as a failure with its message and gets no reference value.
``tdse-pool`` prints the validate seeds of ``jobs.TDSE_SEED_POOL``.
"""

import argparse
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import jobs  # noqa: E402


def _all_jobs(part: str) -> list:
    if part == "maps":
        out = [jobs._map_job("map", b2) for b2 in jobs.B2_POOL]
        out += [jobs._map_job("map3q", b2, c2) for b2, c2 in jobs.B2C2_POOL]
        out += [jobs._map_job("esop", b2, pulses=m) for m in jobs.ESOP_PULSES for b2 in jobs.B2_POOL]
        out += [jobs._map_job("wide", b2, wide=True) for b2 in jobs.B2_POOL]
        return out
    if part == "scans":
        pairs = [(o, e) for o in jobs.SCAN_AXIS for e in jobs.SCAN_AXIS]
        return [jobs.bscan_job([p]) for p in pairs] + [jobs.robustness_job(jobs.B2_POOL, p) for p in pairs]
    if part == "optimize":
        return [
            jobs.optimize_job(mode, o, e)
            for o in jobs.OPT_AXIS
            for e in jobs.OPT_AXIS
            for mode in jobs.OPT_MODES
        ]
    if part == "tdse":
        return [jobs.validate_job(s, shape) for s in jobs.TDSE_SEED_POOL for shape in jobs.TDSE_SHAPES]
    raise ValueError(part)


def _capture(job) -> dict:
    from sopgate.cli import main

    out_dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        outcome = jobs.execute(main, job, out_dir)
        print(f"{job.key} rc={outcome.rc} {outcome.wall_s:.3f}s", file=sys.stderr, flush=True)
        failure = {"error": (outcome.error or outcome.stderr).strip(), "exit": outcome.rc}
        if job.kind == "optimize":
            if outcome.rc != 0:
                return {job.key: failure}
            path = os.path.join(out_dir, f"optimized_map_{job.argv[2].replace('-', '_')}.csv")
            return {job.key: {"F": float(jobs.csv_rows(path, [0])[0][2])}}
        if job.kind == "validate":
            if outcome.rc not in (0, 3):
                return {job.key: failure}
            with open(os.path.join(out_dir, "validation_report.txt")) as handle:
                (run,) = json.load(handle)["runs"]
            return {
                job.key: {
                    "n_qubits": run["n_qubits"],
                    "n_pulses": run["n_pulses"],
                    "max_deviation": run["max_deviation"],
                    "per_state_deviation": run["per_state_deviation"],
                }
            }
        if outcome.rc != 0:
            raise RuntimeError(f"{job.key} failed at capture: {failure}")
        refs = {}
        for name, key in job.artifacts:
            path = os.path.join(out_dir, name)
            ref = {"sha256": jobs.file_sha256(path)}
            if job.kind not in ("bscan", "robustness"):
                rows = jobs.map_sample_rows(key, job.points)
                fields = jobs.csv_rows(path, rows)
                ref["samples"] = [[row, float(fields[row][2])] for row in rows]
                with open(os.path.splitext(path)[0] + ".json") as handle:
                    sidecar = json.load(handle)
                ref["lattice"], ref["max_fidelity"] = sidecar["lattice"], sidecar["max_fidelity"]
            refs[key] = ref
        return refs
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def tdse_pool(candidates: int = 2000, width: float = 0.03, size: int = 32) -> list[int]:
    """Validate seeds whose protocol has a median-like RK4 step count in both shapes."""
    import numpy as np

    from sopgate.model import Protocol, Pulse, StructuralVector
    from sopgate.propagator import block_decompose
    from sopgate.tdse import _pulse_steps, envelopes_for_protocol

    def protocol(seed):
        # Same draws as the first protocol of `sopgate validate --seed <seed>`.
        rng = np.random.default_rng(seed)
        n_qubits = int(rng.integers(2, 4))
        n_pulses = int(rng.integers(2, 6))
        pulses = []
        for _ in range(n_pulses):
            v = rng.normal(size=n_qubits)
            v /= np.linalg.norm(v)
            pulses.append(Pulse(float(rng.uniform(-8 * math.pi, 8 * math.pi)), StructuralVector(tuple(v))))
        return Protocol(tuple(pulses), n_qubits)

    steps = np.array(
        [
            [
                len(block_decompose(p)) * sum(_pulse_steps(env, None) for env in envelopes_for_protocol(p, shape))
                for shape in jobs.TDSE_SHAPES
            ]
            for p in map(protocol, range(candidates))
        ]
    )
    typical = np.all(np.abs(steps / np.median(steps, axis=0) - 1.0) < width, axis=1)
    return [int(s) for s in np.nonzero(typical)[0][:size]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("part", choices=("maps", "scans", "optimize", "tdse", "tdse-pool"))
    args = parser.parse_args()
    if args.part == "tdse-pool":
        print(tdse_pool())
        return
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    todo = _all_jobs(args.part)
    refs = {}
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for part in pool.imap(_capture, todo):
            refs.update(part)
    with open(os.path.join(jobs.REFS_DIR, f"{args.part}.json"), "w") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
