"""Benchmark of the sopgate CLI: one workload per process, closed loop.

    python3 bench/run.py --workload map-sweep|optimize-points|tdse-validate \
        --seed N --seconds S --trace 0|1

Run from the repository root. One client drives ``sopgate.cli.main(argv)``
in-process, sending each job after the previous one finished, in rounds of
jobs drawn from the seed. The number of rounds is fixed by ``--seconds``
(``jobs.ROUND_WALL_S``), not by the clock, so a seed always gives the same
jobs and the same ``attempted`` and ``failed`` counts. Every job's output
is checked against the references in ``bench/refs``. The last line of
standard output is the result as JSON; the line before it carries the
workload's own metrics, its gate values and the machine fingerprint.

With ``--trace 1`` the same jobs run a second time, in order and for at most
``--seconds``, with span shims installed (``spans.py``), and the per-layer
metrics are reported instead of the end-to-end ones. See ``NOTES.md`` for
the metrics, the host-normalized times and the known defects.
"""

import os
import sys

# Pin BLAS to one thread before numpy is first imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [SRC, BENCH_DIR]

import hostspeed  # noqa: E402
import jobs  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
SETUP_PROBE = (
    "import time, hostspeed; before = hostspeed.probe_s(); t0 = time.perf_counter(); "
    "import sopgate.cli; sopgate.cli.build_parser(); wall = time.perf_counter() - t0; "
    "print(hostspeed.normalized(wall, before, hostspeed.probe_s()))"
)

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

MAP_KINDS = ("map", "map3q", "esop", "wide")
SCAN_KINDS = ("bscan", "robustness")


def measure_setup() -> float:
    """Median host-normalized time for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_jobs(cli_main, job_list, refs, work_dir, tracer=None, seconds=None) -> list:
    """Run and check each job in order; returns (job, outcome, verdict) triples.

    With ``seconds``, stops after the first job that ends past that budget.
    """
    results = []
    start = time.perf_counter()
    for index, job in enumerate(job_list):
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        out_dir = os.path.join(work_dir, f"job{index}")
        os.makedirs(out_dir)
        if tracer is not None:
            tracer.job = index
        before = hostspeed.probe_s()
        outcome = jobs.execute(cli_main, job, out_dir)
        outcome.host_s = hostspeed.normalized(outcome.wall_s, before, hostspeed.probe_s())
        if tracer is None:
            verdict = jobs.check(job, outcome, out_dir, refs)
            results.append((job, outcome, verdict))
        else:
            tracer.counters["cli.artifact_bytes"] += sum(
                os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
            )
            results.append((job, outcome, None))
        shutil.rmtree(out_dir)
    return results


def seeded_jobs(workload, seed, seconds) -> list:
    """The run's jobs: as many rounds drawn from the seed as fill ``seconds`` on the reference host.

    The count depends on ``seconds`` only, never on how fast the host runs
    at the moment, so that every run with this seed does the same ops.
    """
    rng = random.Random(f"{workload}:{seed}")
    make_round = jobs.ROUNDS[workload]
    rounds = max(1, round(seconds / jobs.ROUND_WALL_S[workload]))
    return [job for _ in range(rounds) for job in make_round(rng)]


def _rate(results, kinds=None) -> float:
    """Work of passing jobs per second of the wall time of all jobs (of ``kinds``)."""
    chosen = [(job, out, ver) for job, out, ver in results if kinds is None or job.kind in kinds]
    points = sum(ver.points for _, _, ver in chosen)
    wall = sum(out.wall_s for _, out, _ in chosen)
    return points / wall if wall > 0 else 0.0


def workload_metrics(workload, results) -> dict:
    """The workload's own metrics and gate values, as named in NOTES.md."""
    attempted = sum(ver.ops for _, _, ver in results)
    failed = sum(ver.failed for _, _, ver in results)
    metrics = {
        "fail_ratio": failed / attempted,
        "job_p50_s": statistics.median(outcome.wall_s for _, outcome, _ in results),
    }

    def gate_max(name):
        values = [ver.gates[name] for _, _, ver in results if name in ver.gates]
        return max(values) if values else None

    if workload == "map-sweep":
        metrics["map_points_per_s"] = _rate(results, MAP_KINDS)
        metrics["scan_points_per_s"] = _rate(results, SCAN_KINDS)
        metrics["map_max_abs_dF"] = gate_max("map_max_abs_dF")
        metrics["artifact_sha_mismatch"] = sum(ver.gates.get("artifact_sha_mismatch", 0) for _, _, ver in results)
    elif workload == "optimize-points":
        metrics["opt_points_per_s"] = _rate(results)
        metrics["opt_F_shortfall"] = gate_max("opt_F_shortfall")
    else:
        metrics["tdse_protocols_per_s"] = _rate(results)
        metrics["tdse_max_dev"] = gate_max("tdse_max_dev")
    return metrics


def round_seconds(results, round_jobs) -> float:
    """Host-normalized time of one round: each job at the median of its timing class.

    Jobs of one timing class differ only in their drawn inputs; the median
    of the class (over passing jobs, or all jobs if none passed) is taken on
    host-normalized times (``hostspeed.py``), so that the host's drift over
    a run does not move it.
    """
    times = {}
    for job, out, ver in results:
        times.setdefault(job.timing, {}).setdefault(not ver.failed, []).append(out.host_s)
    return sum(
        statistics.median(times[job.timing].get(True) or times[job.timing][False]) for job in round_jobs
    )


def end_to_end(results, round_jobs, setup_s) -> dict:
    """Values of the end-to-end metrics (``END_TO_END_UNITS``) of an untraced run."""
    return {
        "setup_s": setup_s,
        "round_s": round_seconds(results, round_jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_replay(cli_main, results, refs, work_dir, seconds=None):
    """Run the jobs of ``results`` again, in order, under the span shims.

    Stops after ``seconds`` like ``run_jobs``. Returns the tracer and the
    replayed runs, a prefix of ``results``.
    """
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        job_list = [job for job, _, _ in results]
        traced = run_jobs(tracer.wrap("cli.main", cli_main), job_list, refs, work_dir, tracer, seconds)
    finally:
        tracer.uninstall()
    return tracer, traced


def per_layer(tracer, results, traced) -> dict:
    """Values of the per-layer metrics (``spans.metric_units()``) of a traced run."""
    values = tracer.metrics()
    values["trace.overhead_s"] = (
        sum(out.host_s for _, out, _ in traced) - sum(out.host_s for _, out, _ in results[: len(traced)])
    )
    return values


def result_line(results, values, units) -> dict:
    """The benchmark's result object; ``correct`` is false if any output regressed."""
    return {
        "correct": not any(ver.regressions for _, _, ver in results),
        "attempted": sum(ver.ops for _, _, ver in results),
        "failed": sum(ver.failed for _, _, ver in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sopgate CLI benchmark")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "sopgate")):
        print(f"error: no sopgate sources under {SRC}", file=sys.stderr)
        return 2
    from sopgate.cli import main as cli_main

    refs = jobs.load_refs()
    setup_s = measure_setup()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        results = run_jobs(cli_main, seeded_jobs(args.workload, args.seed, args.seconds), refs, work_dir)
        if args.trace:
            tracer, traced = traced_replay(cli_main, results, refs, work_dir, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for reason in [r for _, _, ver in results for r in ver.regressions][:20]:
        print(f"regression: {reason}", file=sys.stderr)
    if args.trace:
        import spans

        values, units = per_layer(tracer, results, traced), spans.metric_units()
        tracer.write_records(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        round_jobs = jobs.ROUNDS[args.workload](random.Random(0))
        values, units = end_to_end(results, round_jobs, setup_s), END_TO_END_UNITS
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(results),
        "by_kind": {
            kind: sum(1 for job, _, _ in results if job.kind == kind)
            for kind in sorted({job.kind for job, _, _ in results})
        },
        "metrics": workload_metrics(args.workload, results),
        "fingerprint": fingerprint(),
    }
    print(json.dumps(detail))
    print(json.dumps(result_line(results, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
