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
import json
import math
import os
import sys
import tempfile
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
    """Write to a unique temporary file next to ``path``, then rename it over ``path``."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        # mkstemp creates the file private; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


def _csv_text(header: str, rows) -> str:
    """The header line, then one line per row with 9 significant digits per value."""
    return "".join([header + "\n"] + [",".join(f"{x:.9g}" for x in row) + "\n" for row in rows])


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


def _read_config(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise SopGateError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SopGateError(f"config file {path} must hold a JSON object")
    return data


def _has_type(value, kind) -> bool:
    # JSON ints are valid floats; booleans count only as booleans.
    return type(value) in {float: (int, float)}.get(kind, (kind,))


def _check_config_value(key: str, value, default, action: argparse.Action) -> None:
    """Reject a config-file value of neither the flag's type nor the default's, or off its choices.

    On/off flags parse to bool; where the default is a list, so must the value be.
    """
    flag_type = bool if action.nargs == 0 else action.type or str
    if isinstance(default, list):
        ok = isinstance(value, list) and all(_has_type(v, flag_type) for v in value)
    else:
        ok = value == default or (
            (_has_type(value, flag_type) or _has_type(value, type(default)))
            and (action.choices is None or value in action.choices)
        )
    if not ok:
        raise SopGateError(f"config value {value!r} is not valid for {key!r}")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags beat the checked config-file values, which beat defaults."""
    file_config = _read_config(args.config) if args.config else {}
    actions = {action.dest: action for action in args.parser._actions}
    config = dict(defaults)
    for key, value in file_config.items():
        if key in defaults:
            _check_config_value(key, value, defaults[key], actions[key])
            config[key] = value
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
    return config


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
    family = sop_family(
        b2=config["b2"],
        c2=config["c2"],
        n_qubits=config["qubits"],
        m_pulses=config["pulses"],
        orthogonal=not config["non_orthogonal"],
    )
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
    try:
        b2_list = [float(x) for x in str(config["b2"]).split(",")]
    except ValueError as exc:
        raise SopGateError(f"b2 must be comma-separated numbers, got {config['b2']!r}") from exc
    area_odd, area_even = _parse_area_pair(config["areas"])
    deltas = np.arange(
        -config["delta_max"], config["delta_max"] + config["delta_step"] / 2, config["delta_step"]
    ) * math.pi
    families = [sop_family(b2=b2) for b2 in b2_list]  # checks every b2 before any work
    for b2, family in zip(b2_list, families):
        protocol = family.protocol(area_odd * math.pi, area_even * math.pi)
        curves = robustness_scan(protocol, deltas)
        text = _csv_text(
            "delta_a_over_pi,u11v,u11a,u11b",
            zip(deltas / math.pi, curves.u11v, curves.u11a, curves.u11b),
        )
        run_config = dict(config)
        run_config["b2"] = b2
        _write_artifact(config["out"], f"robustness_b2_{b2:g}.csv", text, run_config)
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
        text = _csv_text("b2,f_orthogonal,f_non_orthogonal", zip(b2_grid, f_orth, f_non))
        run_config = dict(config)
        run_config["areas"] = pair_text
        stem = f"bscan_{pair[0]:g}_{pair[1]:g}.csv".replace("-", "m")
        _write_artifact(config["out"], stem, text, run_config)
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
        bounds = (grid.lo * math.pi, grid.hi * math.pi)
        result = optimize_areas(
            family,
            (bounds, bounds),
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
    param_names = "c_odd,c_even" if what == "third-qubit" else "phi_odd,phi_even"
    rows = [(ao / math.pi, ae / math.pi, fid, *p) for (ao, ae), (fid, p) in zip(points, results)]
    text = _csv_text(f"a_odd_over_pi,a_even_over_pi,fidelity,{param_names}", rows)
    best = max(r[0] for r in results)
    _write_artifact(
        config["out"],
        f"optimized_map_{what.replace('-', '_')}.csv",
        text,
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

    def command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        _add_common(p)
        return p

    p_map = command("map", "fidelity map over pulse areas", lambda a: cmd_map(a, m_required=False))
    _add_family(p_map)
    p_map.add_argument("--pulses", type=int, help="number of pulses in the sequence")
    p_map.add_argument("--threshold", type=float, help="minimum fidelity for reported maxima")

    p_esop = command(
        "esop-map",
        "fidelity map of an M-pulse alternating family",
        lambda a: cmd_map(a, m_required=True),
    )
    _add_family(p_esop)
    p_esop.add_argument("--pulses", type=int, required=True, help="number of pulses (M >= 2)")
    p_esop.add_argument("--threshold", type=float, help="minimum fidelity for reported maxima")

    p_rob = command("robustness", "return amplitudes vs pulse-area error", cmd_robustness)
    p_rob.add_argument("--b2", help="comma-separated list of squared overlap factors")
    p_rob.add_argument("--areas", help="base areas 'odd,even' in units of pi")
    p_rob.add_argument("--delta-max", type=float, help="scan half-width in units of pi")
    p_rob.add_argument("--delta-step", type=float, help="scan step in units of pi")

    p_bscan = command("bscan", "fidelity vs b^2 for fixed-area protocols", cmd_bscan)
    p_bscan.add_argument(
        "--areas", action="append", help="area pair 'odd,even' in units of pi (repeatable)"
    )
    p_bscan.add_argument("--b2-max", type=float, help="largest b^2 in the scan")
    p_bscan.add_argument("--b2-step", type=float, help="b^2 step")
    p_bscan.add_argument("--fidelity", choices=("trace-sq", "trace", "average"))

    p_opt = command("optimize", "optimize factors per area point", cmd_optimize)
    p_opt.add_argument("--what", choices=("areas", "third-qubit", "all-factors"))
    p_opt.add_argument("--b2", type=float)
    p_opt.add_argument("--c2", type=float)
    p_opt.add_argument("--min-c2", type=float, help="lower bound on the spectator factor squared")
    p_opt.add_argument("--min-sq", type=float, help="lower bound on every optimized factor squared")
    p_opt.add_argument("--grid", help="area grid lo:hi:step in units of pi")
    p_opt.add_argument("--areas", help="single area point 'odd,even' in units of pi")
    p_opt.add_argument("--restarts", type=int)

    p_val = command("validate", "time-domain check of the analytical propagators", cmd_validate)
    p_val.add_argument("--samples", type=int, help="number of random protocols")
    p_val.add_argument("--tolerance", type=float)
    p_val.add_argument("--shape", choices=("squared-sine", "gaussian"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SopGateError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
