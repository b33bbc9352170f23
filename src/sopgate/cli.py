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
the SHA-256 of the data file. Each command checks its whole configuration,
including its size (grid points, optimize points times restarts, validate
samples), then creates the output directory, and only then computes. Files
are written via a temporary name and renamed, so partial outputs are never
left behind. Exit codes: 0 ok, 2 bad configuration, 3 validation failure.

``optimize`` solves every point of its area grid, with all restarts, in one
lockstep Nelder-Mead run in one process (see :mod:`sopgate.optimize`).
``--threads`` is still accepted, and checked to be at least 1, but starts no
workers.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import SopGateError
from .fidelity import (
    DEFAULT_GRID,
    DEFAULT_MAXIMA_THRESHOLD,
    FIDELITY_DEFINITIONS,
    GridSpec,
    b_scan,
    check_grid_points,
    check_squared_factors,
    fidelity_map,
    lattice_analysis,
    lattice_report_dict,
    map_csv_text,
    robustness_scan,
    sop_family,
)
from .model import Protocol, Pulse, StructuralVector
from .optimize import (
    DEFAULT_RESTARTS,
    check_simplices,
    gate_factor_arc,
    optimize_all_factors,
    optimize_areas,
    optimize_third_qubit,
    spectator_bounds,
)
from .tdse import ENVELOPE_SHAPES, validate_protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

#: Most random protocols one ``validate`` run checks: a few minutes of work
#: and a report of some megabytes.
MAX_SAMPLES = 10_000

#: Most pulses of a ``map`` or ``esop-map`` family: about ten seconds of work
#: on the default grid, where the paper's sequences have at most five.
MAX_PULSES = 64


def _write_atomic(path: str, data: bytes) -> None:
    """Write to a unique temporary file next to ``path``, then rename it over ``path``."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
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
    """Write the data file as UTF-8 and its JSON sidecar with the SHA-256 of those bytes."""
    data_path = os.path.join(out_dir, stem)
    data = data_text.encode()
    _write_atomic(data_path, data)
    meta = {
        "tool": f"sopgate {__version__}",
        "config": config,
        "content_sha256": hashlib.sha256(data).hexdigest(),
    }
    if extra:
        meta.update(extra)
    _write_atomic(os.path.splitext(data_path)[0] + ".json", (json.dumps(meta, indent=2) + "\n").encode())
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


def _scan_axis(config: dict, name: str, symmetric: bool) -> np.ndarray:
    """``np.arange`` from 0 (-max if ``symmetric``) to max + step / 2, checked before allocating.

    Max and step are the ``<name>_max`` and ``<name>_step`` config values.
    """
    top, step = config[f"{name}_max"], config[f"{name}_step"]
    if not (math.isfinite(step) and step > 0 and math.isfinite(top) and top >= 0):
        flag = f"--{name.replace('_', '-')}"
        raise SopGateError(
            f"{flag}-step must be finite and > 0 and {flag}-max finite and >= 0, "
            f"got step {step!r}, max {top!r}"
        )
    start, stop = -top if symmetric else 0.0, top + step / 2
    check_grid_points((stop - start) / step)
    return np.arange(start, stop, step)


def _refuse_shared_names(outputs) -> None:
    """Refuse different inputs that would write one file; ``outputs`` holds (input, name) pairs."""
    owners = {}
    for value, name in outputs:
        if owners.setdefault(name, value) != value:
            raise SopGateError(f"{owners[name]!r} and {value!r} would both write {name}")


def _parse_area_pair(text: str) -> tuple[float, float]:
    try:
        odd, even = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise SopGateError(f"area pair must be 'odd,even' in units of pi, got {text!r}") from exc
    if not (math.isfinite(odd) and math.isfinite(even)):
        raise SopGateError(f"area pair must be finite, got {text!r}")
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


def _merge_config(args: argparse.Namespace, defaults: dict) -> tuple[dict, set]:
    """Flags beat the checked config-file values, which beat defaults.

    Returns the config and the keys given by flag or config file.
    """
    file_config = _read_config(args.config) if args.config else {}
    actions = {action.dest: action for action in args.parser._actions}
    config = dict(defaults)
    given = set()
    for key, value in file_config.items():
        if key in defaults:
            _check_config_value(key, value, defaults[key], actions[key])
            config[key] = value
            given.add(key)
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
            given.add(key)
    threads = config.get("threads", args.threads)
    if threads is not None and threads < 1:
        raise SopGateError(f"--threads must be at least 1, got {threads}")
    return config, given


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument(
        "--threads", type=int, help="accepted for compatibility, must be >= 1; has no effect"
    )


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b2", type=float, help="squared overlap factor of the gate qubits")
    parser.add_argument("--c2", type=float, help="squared spectator factor (3-qubit runs)")
    parser.add_argument("--qubits", type=int, choices=(2, 3), help="register size")
    parser.add_argument("--grid", help="area sweep lo:hi:step in units of pi")
    parser.add_argument("--fidelity", choices=FIDELITY_DEFINITIONS, help="fidelity definition")
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
    "grid": ":".join(f"{x:g}" for x in DEFAULT_GRID),
    "fidelity": "trace-sq",
    "threshold": DEFAULT_MAXIMA_THRESHOLD,
    "non_orthogonal": False,
    "out": ".",
}


def cmd_map(args: argparse.Namespace, m_required: bool = False) -> int:
    config, _ = _merge_config(args, MAP_DEFAULTS)
    if m_required and config["pulses"] < 2:
        raise SopGateError("esop-map needs --pulses >= 2")
    if config["pulses"] > MAX_PULSES:
        raise SopGateError(f"--pulses must be at most {MAX_PULSES}, got {config['pulses']}")
    if not math.isfinite(config["threshold"]):
        raise SopGateError(f"--threshold must be finite, got {config['threshold']!r}")
    family = sop_family(
        b2=config["b2"],
        c2=config["c2"],
        n_qubits=config["qubits"],
        m_pulses=config["pulses"],
        orthogonal=not config["non_orthogonal"],
    )
    config["qubits"] = family.n_qubits
    grid = _parse_grid(config["grid"])
    check_grid_points(grid.n_points**2)
    os.makedirs(config["out"], exist_ok=True)
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
    config, _ = _merge_config(args, ROBUSTNESS_DEFAULTS)
    try:
        b2_list = [float(x) for x in str(config["b2"]).split(",")]
    except ValueError as exc:
        raise SopGateError(f"b2 must be comma-separated numbers, got {config['b2']!r}") from exc
    area_odd, area_even = _parse_area_pair(config["areas"])
    deltas = _scan_axis(config, "delta", symmetric=True) * math.pi
    families = [sop_family(b2=b2) for b2 in b2_list]  # checks every b2 before any work
    stems = [f"robustness_b2_{b2:g}.csv" for b2 in b2_list]
    _refuse_shared_names(zip(b2_list, stems))
    os.makedirs(config["out"], exist_ok=True)
    for b2, family, stem in zip(b2_list, families, stems):
        protocol = family.protocol(area_odd * math.pi, area_even * math.pi)
        curves = robustness_scan(protocol, deltas)
        text = _csv_text(
            "delta_a_over_pi,u11v,u11a,u11b",
            zip(deltas / math.pi, curves.u11v, curves.u11a, curves.u11b),
        )
        run_config = dict(config)
        run_config["b2"] = b2
        _write_artifact(config["out"], stem, text, run_config)
    return EXIT_OK


BSCAN_DEFAULTS = {
    "areas": ["2,2"],
    "b2_max": 0.5,
    "b2_step": 0.005,
    "fidelity": "trace-sq",
    "out": ".",
}


def cmd_bscan(args: argparse.Namespace) -> int:
    config, _ = _merge_config(args, BSCAN_DEFAULTS)
    pairs = [_parse_area_pair(pair_text) for pair_text in config["areas"]]
    if config["b2_max"] > 1.0:
        raise SopGateError(f"--b2-max must be at most 1, got {config['b2_max']!r}")
    b2_grid = _scan_axis(config, "b2", symmetric=False)
    if b2_grid[-1] > 1.0:
        raise SopGateError(f"--b2-step takes the scan past 1, to b2 = {b2_grid[-1]:g}")
    stems = [f"bscan_{odd:g}_{even:g}.csv".replace("-", "m") for odd, even in pairs]
    _refuse_shared_names(zip(pairs, stems))
    os.makedirs(config["out"], exist_ok=True)
    for pair_text, pair, stem in zip(config["areas"], pairs, stems):
        f_orth = b_scan(pair, b2_grid, orthogonal=True, definition=config["fidelity"])
        f_non = b_scan(pair, b2_grid, orthogonal=False, definition=config["fidelity"])
        text = _csv_text("b2,f_orthogonal,f_non_orthogonal", zip(b2_grid, f_orth, f_non))
        run_config = dict(config)
        run_config["areas"] = pair_text
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
    "restarts": DEFAULT_RESTARTS,
    "seed": 0,
    "threads": 1,
    "out": ".",
}


def cmd_optimize(args: argparse.Namespace) -> int:
    config, given = _merge_config(args, OPTIMIZE_DEFAULTS)
    what = config["what"]
    unread = {"third-qubit": "c2", "all-factors": "b2"}.get(what)
    if unread in given:
        raise SopGateError(f"--what {what} does not read --{unread}")
    check_squared_factors(b2=config["b2"], c2=config["c2"])
    if config["restarts"] < 1:
        raise SopGateError(f"--restarts must be at least 1, got {config['restarts']}")
    # No mode can use a bound outside [0, 0.5]; each is checked even where it goes unused.
    for flag, value in (("--min-c2", config["min_c2"]), ("--min-sq", config["min_sq"])):
        if not 0.0 <= value <= 0.5:
            raise SopGateError(f"{flag} must be in [0, 0.5], got {value!r}")
    # Checked in every mode, also where --areas leaves it unused.
    grid = _parse_grid(config["grid"])
    if what == "areas":
        if config["areas"] is not None:
            raise SopGateError("--what areas searches the --grid box and takes no --areas")
        family = sop_family(b2=config["b2"], c2=config["c2"])
        bounds = (grid.lo * math.pi, grid.hi * math.pi)
        check_simplices(config["restarts"])
        os.makedirs(config["out"], exist_ok=True)
        result = optimize_areas(
            family, (bounds, bounds), seed=config["seed"], restarts=config["restarts"]
        )
        payload = {
            "best_fidelity": float(result.best_fidelity),
            "best_area_odd_over_pi": float(result.best_parameters[0] / math.pi),
            "best_area_even_over_pi": float(result.best_parameters[1] / math.pi),
            "evaluations": int(result.evaluations),
        }
        _write_artifact(config["out"], "optimize_areas.txt", json.dumps(payload, indent=2) + "\n", config)
        return EXIT_OK
    # The optimizers check these bounds too; checked here, they fail before --out exists.
    if what == "third-qubit":
        spectator_bounds(math.sqrt(config["b2"]), config["min_c2"])
    else:
        gate_factor_arc(math.sqrt(config["c2"]), config["min_sq"])
    if config["areas"]:
        # One pair: batch shape (), 0-d results.
        areas = np.array(_parse_area_pair(config["areas"])) * math.pi
    else:
        check_grid_points(grid.n_points**2)
        axis = grid.values_radians()
        areas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    points = areas.reshape(-1, 2)
    check_simplices(len(points) * config["restarts"])
    os.makedirs(config["out"], exist_ok=True)
    common = {"seed": config["seed"], "restarts": config["restarts"]}
    # Every point and restart in one lockstep run.
    if what == "third-qubit":
        result = optimize_third_qubit(areas, math.sqrt(config["b2"]), config["min_c2"], **common)
    else:
        result = optimize_all_factors(areas, math.sqrt(config["c2"]), config["min_sq"], **common)
    fidelities = np.reshape(result.best_fidelity, -1).tolist()
    parameters = np.reshape(result.best_parameters, (-1, 2)).tolist()
    param_names = "c_odd,c_even" if what == "third-qubit" else "phi_odd,phi_even"
    rows = [
        (ao / math.pi, ae / math.pi, fid, *p)
        for (ao, ae), fid, p in zip(points.tolist(), fidelities, parameters)
    ]
    text = _csv_text(f"a_odd_over_pi,a_even_over_pi,fidelity,{param_names}", rows)
    _write_artifact(
        config["out"],
        f"optimized_map_{what.replace('-', '_')}.csv",
        text,
        config,
        extra={"max_fidelity": max(fidelities)},
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
    config, _ = _merge_config(args, VALIDATE_DEFAULTS)
    if not 1 <= config["samples"] <= MAX_SAMPLES:
        raise SopGateError(f"--samples must be in [1, {MAX_SAMPLES}], got {config['samples']}")
    if not (math.isfinite(config["tolerance"]) and config["tolerance"] > 0):
        raise SopGateError(f"--tolerance must be finite and > 0, got {config['tolerance']!r}")
    os.makedirs(config["out"], exist_ok=True)
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

    for name, help_text, pulses_help, m_required in (
        ("map", "fidelity map over pulse areas", "number of pulses in the sequence", False),
        (
            "esop-map",
            "fidelity map of an M-pulse alternating family",
            "number of pulses (M >= 2)",
            True,
        ),
    ):
        p_map = command(name, help_text, lambda a, m=m_required: cmd_map(a, m_required=m))
        _add_family(p_map)
        p_map.add_argument("--pulses", type=int, required=m_required, help=pulses_help)
        p_map.add_argument("--threshold", type=float, help="minimum fidelity for reported maxima")

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
    p_bscan.add_argument("--fidelity", choices=FIDELITY_DEFINITIONS)

    p_opt = command("optimize", "optimize factors per area point", cmd_optimize)
    p_opt.add_argument("--what", choices=("areas", "third-qubit", "all-factors"))
    p_opt.add_argument("--b2", type=float)
    p_opt.add_argument("--c2", type=float)
    p_opt.add_argument("--min-c2", type=float, help="lower bound on the spectator factor squared")
    p_opt.add_argument("--min-sq", type=float, help="lower bound on every optimized factor squared")
    p_opt.add_argument("--grid", help="area grid lo:hi:step in units of pi")
    p_opt.add_argument("--areas", help="single area point 'odd,even' in units of pi")
    p_opt.add_argument("--restarts", type=int)
    p_opt.add_argument("--seed", type=int, help="seed of the random restart points")

    p_val = command("validate", "time-domain check of the analytical propagators", cmd_validate)
    p_val.add_argument("--samples", type=int, help="number of random protocols")
    p_val.add_argument("--seed", type=int, help="seed of the random protocols")
    p_val.add_argument("--tolerance", type=float)
    p_val.add_argument("--shape", choices=ENVELOPE_SHAPES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SopGateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
