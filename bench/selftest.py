"""Smoke test of the benchmark itself, on a few reduced job lists.

    python3 bench/selftest.py

For each workload it runs a handful of real jobs (a few seconds each),
untraced and traced, and checks that every metric named in BENCHMARK.json
comes out with its unit. It then checks the same outputs against references
with one value perturbed and requires the matching gate to trip: the job
counts as failed and as a regression. Exits 0 when every check holds.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import jobs  # noqa: E402
import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import spans  # noqa: E402


def _shift_sample(ref):
    ref["samples"][0][1] += 1e-9


def _shift_max_fidelity(ref):
    ref["max_fidelity"] += 1e-6


def _flip_sha(ref):
    ref["sha256"] = "0" * 64


def _raise_f(ref):
    ref["F"] += 1e-6


def _other_protocol(ref):
    ref["n_pulses"] += 1


def _shrink_deviation(ref):
    ref["max_deviation"] /= 10
    ref["per_state_deviation"] = {state: dev / 10 for state, dev in ref["per_state_deviation"].items()}


#: Reduced job lists, and per list one job and reference key to perturb.
SMOKE = {
    "map-sweep": (
        [
            jobs._map_job("map", 0.1),
            jobs._map_job("esop", 0.0, pulses=2),
            jobs.bscan_job([(1.0, 2.0)]),
            jobs.robustness_job((0.0, 0.1, 0.2), (2.0, 2.0)),
        ],
        [(0, "map:b2=0.1", _shift_sample), (1, "esop:b2=0,M=2", _shift_max_fidelity), (2, "bscan:1,2", _flip_sha)],
    ),
    "optimize-points": (
        # The third-qubit point fails at the seed commit (a known defect).
        [jobs.optimize_job("all-factors", 2.0, 2.0), jobs.optimize_job("third-qubit", 3.0, 5.0)],
        [(0, "opt:all-factors:2,2", _raise_f)],
    ),
    "tdse-validate": (
        [jobs.validate_job(jobs.TDSE_SEED_POOL[0], shape) for shape in jobs.TDSE_SHAPES],
        [
            (0, f"validate:{jobs.TDSE_SEED_POOL[0]}:squared-sine", _other_protocol),
            (0, f"validate:{jobs.TDSE_SEED_POOL[0]}:squared-sine", _shrink_deviation),
        ],
    ),
}


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _units(line: dict) -> dict:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def main() -> int:
    from sopgate.cli import main as cli_main

    refs = jobs.load_refs()
    e2e_units, layer_units = _declared()
    problems = []
    os.makedirs(run.OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        setup_s = run.measure_setup()
        for workload, (job_list, perturbations) in SMOKE.items():
            results = run.run_jobs(cli_main, job_list, refs, work_dir)
            for _, _, verdict in results:
                problems += [f"{workload}: {r}" for r in verdict.regressions]
            known = sum(job.ops for job in job_list if jobs.seed_failure(job, refs))
            line = run.result_line(results, run.end_to_end(results, job_list, setup_s), run.END_TO_END_UNITS)
            if _units(line) != e2e_units:
                problems.append(f"{workload}: end-to-end metrics {_units(line)} != {e2e_units}")
            tracer, traced = run.traced_replay(cli_main, results, refs, work_dir)
            traced_line = run.result_line(results, run.per_layer(tracer, results, traced), spans.metric_units())
            if _units(traced_line) != layer_units:
                problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
            if line["failed"] != known or not line["correct"]:
                problems.append(f"{workload}: {line['failed']} failed, {known} known failures at the seed")
            print(f"{workload}: {line['attempted']} ops, {line['failed']} failed ({known} known)")

            for index, key, perturb in perturbations:
                job = job_list[index]
                out_dir = os.path.join(work_dir, "perturbed")
                os.makedirs(out_dir)
                outcome = jobs.execute(cli_main, job, out_dir)
                bad_refs = copy.deepcopy(refs)
                perturb(bad_refs[key])
                clean = jobs.check(job, outcome, out_dir, refs)
                tripped = jobs.check(job, outcome, out_dir, bad_refs)
                shutil.rmtree(out_dir)
                if clean.failed or not tripped.failed or not tripped.regressions:
                    problems.append(f"{workload}: perturbing {key} did not trip its gate")
                else:
                    print(f"{workload}: perturbed {key} -> {tripped.regressions[0]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
