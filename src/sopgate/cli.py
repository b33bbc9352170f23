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
the SHA-256 of the data file. Refuse before allocating: the commands check
their options, and the library checks the rest, including the size of a grid
or of an optimizer run, before it allocates anything. A ``cmd_*`` function
touches no disk: it returns ``(exit code, artifacts)``, each artifact a
``(config, file name, data bytes, sidecar extra)``, and only :func:`main`
writes, once the command has returned. So a refused command writes nothing,
and ``validate`` prints its summary before its ``wrote`` line. :func:`main`
refuses (exit 2, nothing written) a data or sidecar path that is an existing
directory. Files are written via a temporary name and renamed, so none is
left half written; a write that fails midway (a full disk, a denied
permission) keeps the files written before it. Exit codes: 0 ok, 2 bad
configuration, 3 validation failure.

:func:`main` builds the parser of the invoked command only, the first
argument; help, ``--version`` and an unknown command get the parser of every
command, so each help text and refusal reads as with the full parser.

Each option is declared once, as a row of :data:`OPTIONS`: its type, choices,
single-value check, help text and the ``optimize --what`` modes that read it.
The parsers and the checks of flag and config-file values are built from
those rows; each command's ``*_DEFAULTS`` dict names the options it reads and
their defaults, in the key order of the sidecar ``config``. A setting given by
flag or config file that the chosen ``--what`` mode does not read is refused.
Checks that read several values or parse text stay in the commands.

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
from dataclasses import dataclass

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
    fidelity_map,
    lattice_analysis,
    lattice_report_dict,
    map_csv_text,
    robustness_scan,
    sop_family,
)
from .model import Protocol, Pulse, StructuralVector
from .optimize import DEFAULT_RESTARTS, optimize_all_factors, optimize_areas, optimize_third_qubit
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


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def _artifact_paths(config: dict, name: str) -> tuple[str, str]:
    """The data file ``name`` under ``--out`` and its JSON sidecar."""
    data_path = os.path.join(config["out"], name)
    return data_path, os.path.splitext(data_path)[0] + ".json"


def _write_artifact(config: dict, name: str, data: bytes, extra: dict) -> None:
    """Write ``data`` to ``name`` under ``--out`` and a JSON sidecar with its SHA-256.

    ``--out`` is created here; only :func:`main` calls this, once every result exists.
    """
    os.makedirs(config["out"], exist_ok=True)
    data_path, sidecar_path = _artifact_paths(config, name)
    _write_atomic(data_path, data)
    meta = {
        "tool": f"sopgate {__version__}",
        "config": config,
        "content_sha256": hashlib.sha256(data).hexdigest(),
        **extra,
    }
    _write_atomic(sidecar_path, _json_bytes(meta))
    print(f"wrote {data_path}")


def _csv_text(header: str, rows) -> bytes:
    """The header line, then one line per row with 9 significant digits per value."""
    text = "".join([header + "\n"] + [",".join(f"{x:.9g}" for x in row) + "\n" for row in rows])
    return text.encode()


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
    if not (math.isfinite(odd * math.pi) and math.isfinite(even * math.pi)):
        raise SopGateError(f"area pair must be finite in radians, got {text!r}")
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


@dataclass(frozen=True)
class _Option:
    """One command-line option, stated once for every command that takes it.

    A flag is parsed to ``type`` (``bool``: an on/off flag; a tuple of types:
    text), and a config-file value must have it, where a JSON int counts as a
    float and a boolean only as a bool. ``repeat`` collects a repeated flag
    into a list. ``check`` is a (test, rule) pair that every value given by
    flag or config file must pass. ``modes`` names the ``optimize --what``
    modes that read the option; under any other mode, giving it is refused.
    A ``required`` flag must be given on the command line.
    """

    type: type | tuple[type, ...]
    help: str
    choices: tuple | None = None
    check: tuple | None = None
    modes: tuple[str, ...] | None = None  # None: every mode reads it
    repeat: bool = False
    required: bool = False


def _within(lo: float, hi: float) -> tuple:
    return (lambda value: lo <= value <= hi), f"in [{lo:g}, {hi:g}]"


_FINITE = math.isfinite, "finite"
_POSITIVE = (lambda value: 0 < value < math.inf), "finite and > 0"
_NON_NEGATIVE = (lambda value: 0 <= value < math.inf), "finite and >= 0"
_AT_LEAST_ONE = (lambda value: value >= 1), "at least 1"
_NON_EMPTY = (lambda value: len(value) > 0), "non-empty"
_AREAS, _THIRD, _ALL = "areas", "third-qubit", "all-factors"

#: Every option, keyed by its config key; a ``"<command> <key>"`` row serves
#: the one command whose option of that name differs. Each command's
#: ``*_DEFAULTS`` dict says which options it reads; every command also takes
#: ``--config`` and ``--threads``.
OPTIONS = {
    "config": _Option(str, "JSON config file (flags take precedence)"),
    "out": _Option(str, "output directory (default: current directory)"),
    "threads": _Option(int, "accepted for compatibility; has no effect", check=_AT_LEAST_ONE),
    "what": _Option(str, "what to optimize", choices=(_AREAS, _THIRD, _ALL)),
    "b2": _Option(float, "squared gate-qubit overlap", check=_NON_NEGATIVE, modes=(_THIRD, _AREAS)),
    "robustness b2": _Option((float, str), "comma-separated squared overlap factors"),
    "c2": _Option(float, "squared spectator factor", check=_NON_NEGATIVE, modes=(_ALL, _AREAS)),
    "qubits": _Option(int, "register size", choices=(2, 3)),
    "pulses": _Option(int, "pulses in the sequence", check=_within(1, MAX_PULSES)),
    "esop-map pulses": _Option(
        int, "pulses in the sequence", check=_within(2, MAX_PULSES), required=True
    ),
    "grid": _Option(str, "area grid lo:hi:step in units of pi"),
    "fidelity": _Option(str, "fidelity definition", choices=FIDELITY_DEFINITIONS),
    "threshold": _Option(float, "least fidelity of a reported maximum", check=_FINITE),
    "non_orthogonal": _Option(bool, "use the mirrored (b, a) even vector, not the orthogonal one"),
    "areas": _Option(str, "area pair 'odd,even' in units of pi", modes=(_THIRD, _ALL)),
    "bscan areas": _Option(
        str, "area pair 'odd,even' in units of pi (repeatable)", check=_NON_EMPTY, repeat=True
    ),
    "delta_max": _Option(float, "scan half-width in units of pi", check=_NON_NEGATIVE),
    "delta_step": _Option(float, "scan step in units of pi", check=_POSITIVE),
    "b2_max": _Option(float, "largest b^2 in the scan", check=_within(0, 1)),
    "b2_step": _Option(float, "b^2 step", check=_POSITIVE),
    "min_c2": _Option(float, "lower bound on c^2", check=_within(0, 0.5), modes=(_THIRD,)),
    "min_sq": _Option(float, "lower bound on each factor^2", check=_within(0, 0.5), modes=(_ALL,)),
    "restarts": _Option(int, "Nelder-Mead restarts per area point", check=_AT_LEAST_ONE),
    "seed": _Option(int, "seed of the random draws", check=_NON_NEGATIVE),
    "samples": _Option(int, "number of random protocols", check=_within(1, MAX_SAMPLES)),
    "tolerance": _Option(float, "largest deviation that passes", check=_POSITIVE),
    "shape": _Option(str, "pulse envelope", choices=ENVELOPE_SHAPES),
}

_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), bool: (bool,)}


def _option(command: str, key: str) -> _Option:
    return OPTIONS.get(f"{command} {key}") or OPTIONS[key]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _check_value(option: _Option, key: str, value, default) -> None:
    """Refuse a value of the wrong type, off its choices or failing its check."""
    if value is None and default is None:
        return  # null leaves an option that defaults to null unset
    types = option.type if isinstance(option.type, tuple) else (option.type,)
    items = value if option.repeat else [value]
    if not (
        type(items) is list
        and all(any(type(item) in _JSON_TYPES[t] for t in types) for item in items)
        and (option.choices is None or all(item in option.choices for item in items))
    ):
        raise SopGateError(f"config value {value!r} is not valid for {key!r}")
    if option.check and not option.check[0](value):
        raise SopGateError(f"{_flag(key)} must be {option.check[1]}, got {value!r}")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags beat config-file values, which beat defaults; every given value is checked.

    Config-file keys the command does not read are ignored. A value given
    for an option the chosen ``--what`` mode does not read is refused.
    """
    file_config = _read_config(args.config) if args.config else {}
    given = [(k, v) for k, v in file_config.items() if k in defaults]
    given += [(k, v) for k, v in vars(args).items() if k in OPTIONS and v is not None]  # set flags
    config = dict(defaults)
    for key, value in given:
        _check_value(_option(args.command, key), key, value, defaults.get(key))
        if key in defaults:
            config[key] = value
    mode = config.get("what")
    for key, value in given:
        modes = _option(args.command, key).modes
        if mode and modes and mode not in modes and value is not None:
            raise SopGateError(f"--what {mode} does not read {_flag(key)}")
    if os.path.exists(config["out"]) and not os.path.isdir(config["out"]):
        raise SopGateError(f"--out {config['out']} exists and is not a directory")
    return config


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


def cmd_map(args: argparse.Namespace) -> tuple[int, list]:
    config = _merge_config(args, MAP_DEFAULTS)
    family = sop_family(
        b2=config["b2"],
        c2=config["c2"],
        n_qubits=config["qubits"],
        m_pulses=config["pulses"],
        orthogonal=not config["non_orthogonal"],
    )
    config["qubits"] = family.n_qubits
    grid = _parse_grid(config["grid"])
    fmap = fidelity_map(family, grid, definition=config["fidelity"])
    try:
        report = lattice_report_dict(lattice_analysis(fmap, config["threshold"]))
    except SopGateError as exc:
        report = {"error": str(exc)}
    stem = "esop_map" if args.command == "esop-map" else "fidelity_map"
    extra = {"lattice": report, "max_fidelity": float(fmap.values.max())}
    return EXIT_OK, [(config, f"{stem}.csv", map_csv_text(fmap), extra)]


ROBUSTNESS_DEFAULTS = {
    "b2": 0.0,
    "areas": "2,2",
    "delta_max": 0.5,
    "delta_step": 0.005,
    "out": ".",
}


def cmd_robustness(args: argparse.Namespace) -> tuple[int, list]:
    config = _merge_config(args, ROBUSTNESS_DEFAULTS)
    try:
        b2_list = [float(x) for x in str(config["b2"]).split(",")]
    except ValueError as exc:
        raise SopGateError(f"b2 must be comma-separated numbers, got {config['b2']!r}") from exc
    area_odd, area_even = _parse_area_pair(config["areas"])
    deltas = _scan_axis(config, "delta", symmetric=True) * math.pi
    families = [sop_family(b2=b2) for b2 in b2_list]  # checks every b2 before any work
    protocols = [family.protocol(area_odd * math.pi, area_even * math.pi) for family in families]
    names = [f"robustness_b2_{b2:g}.csv" for b2 in b2_list]
    _refuse_shared_names(zip(b2_list, names))
    artifacts = []
    for b2, name, protocol in zip(b2_list, names, protocols):
        curves = robustness_scan(protocol, deltas)
        rows = zip(deltas / math.pi, curves.u11v, curves.u11a, curves.u11b)
        text = _csv_text("delta_a_over_pi,u11v,u11a,u11b", rows)
        artifacts.append(({**config, "b2": b2}, name, text, {}))
    return EXIT_OK, artifacts


BSCAN_DEFAULTS = {
    "areas": ["2,2"],
    "b2_max": 0.5,
    "b2_step": 0.005,
    "fidelity": "trace-sq",
    "out": ".",
}


def cmd_bscan(args: argparse.Namespace) -> tuple[int, list]:
    config = _merge_config(args, BSCAN_DEFAULTS)
    pairs = [_parse_area_pair(pair_text) for pair_text in config["areas"]]
    b2_grid = _scan_axis(config, "b2", symmetric=False)
    if b2_grid[-1] > 1.0:
        raise SopGateError(f"--b2-step takes the scan past 1, to b2 = {b2_grid[-1]:g}")
    names = [f"bscan_{odd:g}_{even:g}.csv".replace("-", "m") for odd, even in pairs]
    _refuse_shared_names(zip(pairs, names))
    artifacts = []
    for pair_text, pair, name in zip(config["areas"], pairs, names):
        f_orth = b_scan(pair, b2_grid, orthogonal=True, definition=config["fidelity"])
        f_non = b_scan(pair, b2_grid, orthogonal=False, definition=config["fidelity"])
        text = _csv_text("b2,f_orthogonal,f_non_orthogonal", zip(b2_grid, f_orth, f_non))
        artifacts.append(({**config, "areas": pair_text}, name, text, {}))
    return EXIT_OK, artifacts


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


def cmd_optimize(args: argparse.Namespace) -> tuple[int, list]:
    config = _merge_config(args, OPTIMIZE_DEFAULTS)
    what = config["what"]
    # Checked in every mode, also where --areas leaves it unused.
    grid = _parse_grid(config["grid"])
    if what == _AREAS:
        family = sop_family(b2=config["b2"], c2=config["c2"])
        bounds = (grid.lo * math.pi, grid.hi * math.pi)
        result = optimize_areas(
            family, (bounds, bounds), seed=config["seed"], restarts=config["restarts"]
        )
        payload = {
            "best_fidelity": float(result.best_fidelity),
            "best_area_odd_over_pi": float(result.best_parameters[0] / math.pi),
            "best_area_even_over_pi": float(result.best_parameters[1] / math.pi),
            "evaluations": int(result.evaluations),
        }
        return EXIT_OK, [(config, "optimize_areas.txt", _json_bytes(payload), {})]
    if config["areas"]:
        # One pair: batch shape (), 0-d results.
        areas = np.array(_parse_area_pair(config["areas"])) * math.pi
    else:
        check_grid_points(grid.n_points**2)
        axis = grid.values_radians()
        areas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    points = areas.reshape(-1, 2)
    common = {"seed": config["seed"], "restarts": config["restarts"]}
    # Every point and restart in one lockstep run.
    if what == _THIRD:
        result = optimize_third_qubit(areas, math.sqrt(config["b2"]), config["min_c2"], **common)
    else:
        result = optimize_all_factors(areas, math.sqrt(config["c2"]), config["min_sq"], **common)
    fidelities = np.reshape(result.best_fidelity, -1).tolist()
    parameters = np.reshape(result.best_parameters, (-1, 2)).tolist()
    param_names = "c_odd,c_even" if what == _THIRD else "phi_odd,phi_even"
    rows = [
        (ao / math.pi, ae / math.pi, fid, *p)
        for (ao, ae), fid, p in zip(points.tolist(), fidelities, parameters)
    ]
    text = _csv_text(f"a_odd_over_pi,a_even_over_pi,fidelity,{param_names}", rows)
    name = f"optimized_map_{what.replace('-', '_')}.csv"
    return EXIT_OK, [(config, name, text, {"max_fidelity": max(fidelities)})]


VALIDATE_DEFAULTS = {
    "samples": 100,
    "seed": 0,
    "tolerance": 1e-6,
    "shape": "squared-sine",
    "out": ".",
}


def cmd_validate(args: argparse.Namespace) -> tuple[int, list]:
    config = _merge_config(args, VALIDATE_DEFAULTS)
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
            {"index": index, "n_qubits": n_qubits, "n_pulses": n_pulses, **report.to_json_dict()}
        )
    passed = worst < config["tolerance"]
    payload = _json_bytes({"passed": passed, "max_deviation": worst, "runs": reports})
    print(f"validation {'passed' if passed else 'FAILED'}: max deviation {worst:.3e}")
    code = EXIT_OK if passed else EXIT_VALIDATION
    return code, [(config, "validation_report.txt", payload, {})]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose refusals print one ``error: <message>`` line and exit 2.

    Subparsers take the class of their parent, so this covers every command.
    """

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


#: Every command, in the order of the help text: (name, help, function, defaults).
COMMANDS = (
    ("map", "fidelity map over pulse areas", cmd_map, MAP_DEFAULTS),
    ("esop-map", "fidelity map of an M-pulse alternating family", cmd_map, MAP_DEFAULTS),
    ("robustness", "amplitudes vs pulse-area error", cmd_robustness, ROBUSTNESS_DEFAULTS),
    ("bscan", "fidelity vs b^2 for fixed-area protocols", cmd_bscan, BSCAN_DEFAULTS),
    ("optimize", "optimize factors per area point", cmd_optimize, OPTIMIZE_DEFAULTS),
    ("validate", "time-domain check of the propagators", cmd_validate, VALIDATE_DEFAULTS),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``sopgate`` parser, with the options of ``command`` only if it names one.

    Any other ``command`` (None, an option, an unknown name) builds every
    command, so that the top-level help and the refusal of an unknown
    command list them all.
    """
    parser = _Parser(
        prog="sopgate",
        description="Design and evaluate structured-light C-PHASE gate protocols.",
    )
    parser.add_argument("--version", action="version", version=f"sopgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, defaults in [c for c in COMMANDS if c[0] == command] or COMMANDS:
        cmd_parser = sub.add_parser(name, help=help_text)
        cmd_parser.set_defaults(func=func)
        for key in dict.fromkeys(["config", *defaults, "threads"]):
            option = _option(name, key)
            if option.type is bool:
                kwargs = {"action": "store_const", "const": True}
            else:
                kwargs = {
                    "action": "append" if option.repeat else "store",
                    "type": option.type if option.type in (int, float) else None,
                    "choices": option.choices,
                    "required": option.required,
                }
            rule = f" ({option.check[1]})" if option.check else ""
            cmd_parser.add_argument(_flag(key), help=option.help + rule, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code, artifacts = args.func(args)
        for path in (p for config, name, _, _ in artifacts for p in _artifact_paths(config, name)):
            if os.path.isdir(path):
                raise SopGateError(f"{path} is a directory")
        for artifact in artifacts:
            _write_artifact(*artifact)
        return code
    except (SopGateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
