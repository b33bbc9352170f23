"""Command-line interface: reproducible sweeps emitting CSV/JSON artifacts.

Commands
--------
map         fidelity map + lattice report for a protocol family
esop-map    same, for an M-pulse alternating family
robustness  return-amplitude curves vs pulse-area error
bscan       fidelity vs b^2 for fixed-area protocols
optimize    factor-optimized fidelity maps or single-point optimizations
validate    time-domain check of the analytical propagators

Areas are read and written in units of pi; angles are reported in degrees.
Every artifact comes with a JSON sidecar embedding the full configuration and
the SHA-256 of the data file. Files are written via a temporary name and
renamed, so partial outputs are never left behind. Exit codes: 0 ok, 2 bad
configuration, 3 validation failure.
"""

import argparse
import hashlib
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import SopGateError
from .fidelity import (
    GridSpec,
    b_scan,
    fidelity_map,
    lattice_analysis,
    lattice_report_dict,
    map_csv_text,
    robustness_scan,
    sop_family,
)
from .model import Protocol, Pulse, StructuralVector, cphase_signature
from .optimize import optimize_areas, optimize_all_factors, optimize_third_qubit
from .tdse import validate_protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


def _write_atomic(path: str, data: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _write_artifact(out_dir: str, stem: str, data_text: str, config: dict, extra: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, stem)
    _write_atomic(data_path, data_text)
    meta = {
        "tool": f"sopgate {__version__}",
        "config": config,
        "content_sha256": hashlib.sha256(data_text.encode()).hexdigest(),
    }
    if extra:
        meta.update(extra)
    _write_atomic(os.path.splitext(data_path)[0] + ".json", json.dumps(meta, indent=2) + "\n")
    print(f"wrote {data_path}")


def _parse_grid(text: str) -> GridSpec:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise SopGateError(f"grid must be lo:hi:step, got {text!r}") from exc
    return GridSpec(lo, hi, step)


def _parse_area_pair(text: str) -> tuple[float, float]:
    try:
        odd, even = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise SopGateError(f"area pair must be 'odd,even' in units of pi, got {text!r}") from exc
    return odd, even


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags beat the config file, the config file beats defaults."""
    file_config = {}
    if args.config:
        with open(args.config) as handle:
            file_config = json.load(handle)
    config = dict(defaults)
    config.update({k: v for k, v in file_config.items() if k in defaults})
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
    return config


def _family_from_config(config: dict):
    return sop_family(
        b2=config["b2"],
        c2=config["c2"],
        n_qubits=config["qubits"],
        m_pulses=config["pulses"],
        orthogonal=not config["non_orthogonal"],
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--seed", type=int, help="random seed for stochastic steps")
    parser.add_argument("--threads", type=int, help="worker processes for grid optimization")


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b2", type=float, help="squared overlap factor of the gate qubits")
    parser.add_argument("--c2", type=float, help="squared spectator factor (3-qubit runs)")
    parser.add_argument("--qubits", type=int, choices=(2, 3), help="register size")
    parser.add_argument("--grid", help="area sweep lo:hi:step in units of pi")
    parser.add_argument(
        "--fidelity", choices=("trace-sq", "trace", "average"), help="fidelity definition"
    )
    parser.add_argument(
        "--non-orthogonal",
        action="store_const",
        const=True,
        help="use the mirrored (b, a) even vector instead of the orthogonal one",
    )


MAP_DEFAULTS = {
    "b2": 0.0,
    "c2": 0.0,
    "qubits": None,
    "pulses": 3,
    "grid": "-8:8:0.05",
    "fidelity": "trace-sq",
    "threshold": 0.7,
    "non_orthogonal": False,
    "out": ".",
}


def cmd_map(args: argparse.Namespace, m_required: bool = False) -> int:
    config = _merge_config(args, MAP_DEFAULTS)
    if config["qubits"] is None:
        config["qubits"] = 3 if config["c2"] > 0 else 2
    if m_required and config["pulses"] < 2:
        raise SopGateError("esop-map needs --pulses >= 2")
    family = _family_from_config(config)
    grid = _parse_grid(config["grid"])
    fmap = fidelity_map(family, grid, definition=config["fidelity"])
    try:
        report = lattice_report_dict(lattice_analysis(fmap, config["threshold"]))
    except SopGateError as exc:
        report = {"error": str(exc)}
    stem = "esop_map" if m_required else "fidelity_map"
    _write_artifact(
        config["out"],
        f"{stem}.csv",
        map_csv_text(fmap),
        config,
        extra={"lattice": report, "max_fidelity": float(fmap.values.max())},
    )
    return EXIT_OK


ROBUSTNESS_DEFAULTS = {
    "b2": 0.0,
    "areas": "2,2",
    "delta_max": 0.5,
    "delta_step": 0.005,
    "out": ".",
}


def cmd_robustness(args: argparse.Namespace) -> int:
    config = _merge_config(args, ROBUSTNESS_DEFAULTS)
    b2_list = [float(x) for x in str(config["b2"]).split(",")]
    area_odd, area_even = _parse_area_pair(config["areas"])
    deltas = np.arange(
        -config["delta_max"], config["delta_max"] + config["delta_step"] / 2, config["delta_step"]
    ) * math.pi
    for b2 in b2_list:
        family = sop_family(b2=b2)
        protocol = family.protocol(area_odd * math.pi, area_even * math.pi)
        curves = robustness_scan(protocol, deltas)
        buf = io.StringIO()
        buf.write("delta_a_over_pi,u11v,u11a,u11b\n")
        for i in range(deltas.size):
            buf.write(
                f"{deltas[i] / math.pi:.9g},{curves.u11v[i]:.9g},"
                f"{curves.u11a[i]:.9g},{curves.u11b[i]:.9g}\n"
            )
        run_config = dict(config)
        run_config["b2"] = b2
        _write_artifact(config["out"], f"robustness_b2_{b2:g}.csv", buf.getvalue(), run_config)
    return EXIT_OK


BSCAN_DEFAULTS = {
    "areas": ["2,2"],
    "b2_max": 0.5,
    "b2_step": 0.005,
    "fidelity": "trace-sq",
    "out": ".",
}


def cmd_bscan(args: argparse.Namespace) -> int:
    config = _merge_config(args, BSCAN_DEFAULTS)
    b2_grid = np.arange(0.0, config["b2_max"] + config["b2_step"] / 2, config["b2_step"])
    for pair_text in config["areas"]:
        pair = _parse_area_pair(pair_text)
        f_orth = b_scan(pair, b2_grid, orthogonal=True, definition=config["fidelity"])
        f_non = b_scan(pair, b2_grid, orthogonal=False, definition=config["fidelity"])
        buf = io.StringIO()
        buf.write("b2,f_orthogonal,f_non_orthogonal\n")
        for i in range(b2_grid.size):
            buf.write(f"{b2_grid[i]:.9g},{f_orth[i]:.9g},{f_non[i]:.9g}\n")
        run_config = dict(config)
        run_config["areas"] = pair_text
        stem = f"bscan_{pair[0]:g}_{pair[1]:g}.csv".replace("-", "m")
        _write_artifact(config["out"], stem, buf.getvalue(), run_config)
    return EXIT_OK


OPTIMIZE_DEFAULTS = {
    "what": "third-qubit",
    "b2": 0.1,
    "c2": 0.1,
    "min_c2": 0.1,
    "min_sq": 0.1,
    "grid": "-8:8:0.5",
    "areas": None,
    "restarts": 16,
    "seed": 0,
    "threads": 1,
    "out": ".",
}


def _optimize_point(task):
    what, area_odd, area_even, config = task
    if what == "third-qubit":
        result = optimize_third_qubit(
            (area_odd, area_even),
            b=math.sqrt(config["b2"]),
            min_c2=config["min_c2"],
            seed=config["seed"],
            restarts=config["restarts"],
        )
    else:
        result = optimize_all_factors(
            (area_odd, area_even),
            c_fixed=math.sqrt(config["c2"]),
            min_sq=config["min_sq"],
            seed=config["seed"],
            restarts=config["restarts"],
        )
    return result.best_fidelity, result.best_parameters.tolist()


def cmd_optimize(args: argparse.Namespace) -> int:
    config = _merge_config(args, OPTIMIZE_DEFAULTS)
    what = config["what"]
    if what == "areas":
        family = sop_family(b2=config["b2"], c2=config["c2"])
        grid = _parse_grid(config["grid"])
        result = optimize_areas(
            family,
            (
                (grid.lo * math.pi, grid.hi * math.pi),
                (grid.lo * math.pi, grid.hi * math.pi),
            ),
            seed=config["seed"],
            restarts=config["restarts"],
        )
        payload = {
            "best_fidelity": result.best_fidelity,
            "best_area_odd_over_pi": result.best_parameters[0] / math.pi,
            "best_area_even_over_pi": result.best_parameters[1] / math.pi,
            "evaluations": result.evaluations,
        }
        _write_artifact(config["out"], "optimize_areas.txt", json.dumps(payload, indent=2) + "\n", config)
        return EXIT_OK
    if what not in ("third-qubit", "all-factors"):
        raise SopGateError(f"unknown optimization target {what!r}")
    if config["areas"]:
        points = [[x * math.pi for x in _parse_area_pair(config["areas"])]]
    else:
        grid = _parse_grid(config["grid"])
        axis = grid.values_radians()
        points = [(ao, ae) for ao in axis for ae in axis]
    tasks = [(what, ao, ae, config) for ao, ae in points]
    if config["threads"] > 1:
        with ProcessPoolExecutor(max_workers=config["threads"]) as pool:
            results = list(pool.map(_optimize_point, tasks, chunksize=8))
    else:
        results = [_optimize_point(task) for task in tasks]
    buf = io.StringIO()
    param_names = ("c_odd", "c_even") if what == "third-qubit" else ("phi_odd", "phi_even")
    buf.write(f"a_odd_over_pi,a_even_over_pi,fidelity,{param_names[0]},{param_names[1]}\n")
    for (ao, ae), (fid, params) in zip(points, results):
        buf.write(
            f"{ao / math.pi:.9g},{ae / math.pi:.9g},{fid:.9g},{params[0]:.9g},{params[1]:.9g}\n"
        )
    best = max(r[0] for r in results)
    _write_artifact(
        config["out"],
        f"optimized_map_{what.replace('-', '_')}.csv",
        buf.getvalue(),
        config,
        extra={"max_fidelity": best},
    )
    return EXIT_OK


VALIDATE_DEFAULTS = {
    "samples": 100,
    "seed": 0,
    "tolerance": 1e-6,
    "shape": "squared-sine",
    "out": ".",
}


def cmd_validate(args: argparse.Namespace) -> int:
    config = _merge_config(args, VALIDATE_DEFAULTS)
    if config["samples"] < 1:
        raise SopGateError(f"--samples must be at least 1, got {config['samples']}")
    rng = np.random.default_rng(config["seed"])
    reports = []
    worst = 0.0
    for index in range(config["samples"]):
        n_qubits = int(rng.integers(2, 4))
        n_pulses = int(rng.integers(2, 6))
        pulses = []
        for _ in range(n_pulses):
            v = rng.normal(size=n_qubits)
            v /= np.linalg.norm(v)
            pulses.append(
                Pulse(float(rng.uniform(-8 * math.pi, 8 * math.pi)), StructuralVector(tuple(v)))
            )
        protocol = Protocol(tuple(pulses), n_qubits)
        report = validate_protocol(protocol, tolerance=config["tolerance"], shape=config["shape"])
        worst = max(worst, report.max_deviation)
        reports.append(
            {
                "index": index,
                "n_qubits": n_qubits,
                "n_pulses": n_pulses,
                **report.to_json_dict(),
            }
        )
    passed = worst < config["tolerance"]
    payload = json.dumps(
        {"passed": passed, "max_deviation": worst, "runs": reports}, indent=2
    ) + "\n"
    _write_artifact(config["out"], "validation_report.txt", payload, config)
    print(f"validation {'passed' if passed else 'FAILED'}: max deviation {worst:.3e}")
    return EXIT_OK if passed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sopgate",
        description="Design and evaluate structured-light C-PHASE gate protocols.",
    )
    parser.add_argument("--version", action="version", version=f"sopgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="fidelity map over pulse areas")
    _add_common(p_map)
    _add_family(p_map)
    p_map.add_argument("--pulses", type=int, help="number of pulses in the sequence")
    p_map.add_argument("--threshold", type=float, help="minimum fidelity for reported maxima")
    p_map.set_defaults(func=lambda a: cmd_map(a, m_required=False))

    p_esop = sub.add_parser("esop-map", help="fidelity map of an M-pulse alternating family")
    _add_common(p_esop)
    _add_family(p_esop)
    p_esop.add_argument("--pulses", type=int, required=True, help="number of pulses (M >= 2)")
    p_esop.add_argument("--threshold", type=float, help="minimum fidelity for reported maxima")
    p_esop.set_defaults(func=lambda a: cmd_map(a, m_required=True))

    p_rob = sub.add_parser("robustness", help="return amplitudes vs pulse-area error")
    _add_common(p_rob)
    p_rob.add_argument("--b2", help="comma-separated list of squared overlap factors")
    p_rob.add_argument("--areas", help="base areas 'odd,even' in units of pi")
    p_rob.add_argument("--delta-max", type=float, help="scan half-width in units of pi")
    p_rob.add_argument("--delta-step", type=float, help="scan step in units of pi")
    p_rob.set_defaults(func=cmd_robustness)

    p_bscan = sub.add_parser("bscan", help="fidelity vs b^2 for fixed-area protocols")
    _add_common(p_bscan)
    p_bscan.add_argument(
        "--areas", action="append", help="area pair 'odd,even' in units of pi (repeatable)"
    )
    p_bscan.add_argument("--b2-max", type=float, help="largest b^2 in the scan")
    p_bscan.add_argument("--b2-step", type=float, help="b^2 step")
    p_bscan.add_argument("--fidelity", choices=("trace-sq", "trace", "average"))
    p_bscan.set_defaults(func=cmd_bscan)

    p_opt = sub.add_parser("optimize", help="optimize factors per area point")
    _add_common(p_opt)
    p_opt.add_argument("--what", choices=("areas", "third-qubit", "all-factors"))
    p_opt.add_argument("--b2", type=float)
    p_opt.add_argument("--c2", type=float)
    p_opt.add_argument("--min-c2", type=float, help="lower bound on the spectator factor squared")
    p_opt.add_argument("--min-sq", type=float, help="lower bound on every optimized factor squared")
    p_opt.add_argument("--grid", help="area grid lo:hi:step in units of pi")
    p_opt.add_argument("--areas", help="single area point 'odd,even' in units of pi")
    p_opt.add_argument("--restarts", type=int)
    p_opt.set_defaults(func=cmd_optimize)

    p_val = sub.add_parser("validate", help="time-domain check of the analytical propagators")
    _add_common(p_val)
    p_val.add_argument("--samples", type=int, help="number of random protocols")
    p_val.add_argument("--tolerance", type=float)
    p_val.add_argument("--shape", choices=("squared-sine", "gaussian"))
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SopGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
