import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sopgate.cli
from oracles import per_row_csv_text
from sopgate.cli import (
    MAP_DEFAULTS,
    MAX_PULSES,
    MAX_SAMPLES,
    OPTIMIZE_DEFAULTS,
    _write_atomic,
    build_parser,
    main,
)
from sopgate.errors import SopGateError
from sopgate.fidelity import csv_text
from sopgate.optimize import MAX_SIMPLICES


def read(path):
    return path.read_text()


def assert_config_error(capsys, argv):
    """The command exits 2 with exactly one ``error:`` line on stderr, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; importing it would cost the CLI's start-up.
    code = "import sys, sopgate.cli; sys.exit('scipy' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_start_leaves_numpy_random_unloaded():
    # Only optimize and validate draw random numbers; the others skip its import.
    code = "import sys, sopgate.cli; sopgate.cli.build_parser(); sys.exit('numpy.random' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable every command still runs.
    runs = [
        ["map"],
        ["esop-map", "--pulses", "4"],
        ["robustness"],
        ["bscan"],
        ["optimize", "--areas=2,2", "--restarts", "1"],
        ["optimize", "--what", "areas", "--grid=1:3:1", "--restarts", "1"],
        ["validate", "--samples", "1"],
    ]
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    code = (
        "import json, sys; sys.modules['scipy'] = None; from sopgate.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; print(json.dumps(codes))"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(runs), done.stderr


class TestMapCommand:
    def test_writes_csv_and_report(self, tmp_path):
        out = tmp_path / "run"
        code = main(["map", "--b2", "0", "--grid=-4:4:0.1", "--out", str(out)])
        assert code == 0
        csv_text = read(out / "fidelity_map.csv")
        assert csv_text.splitlines()[0] == "a_odd_over_pi,a_even_over_pi,fidelity"
        meta = json.loads(read(out / "fidelity_map.json"))
        assert meta["config"]["b2"] == 0
        assert meta["max_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert meta["lattice"]["rotation_angle_deg"] == pytest.approx(0.0, abs=0.5)
        assert meta["lattice"]["nn_spacing_over_pi"] == pytest.approx(4.0, abs=0.2)
        assert meta["content_sha256"] == hashlib.sha256(csv_text.encode()).hexdigest()
        assert not list(out.glob("*.tmp"))

    def test_byte_identical_reruns(self, tmp_path):
        args = ["map", "--b2", "0.1", "--grid=-2:2:0.2"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert read(tmp_path / "a" / "fidelity_map.csv") == read(tmp_path / "b" / "fidelity_map.csv")

    def test_three_qubit_map(self, tmp_path):
        out = tmp_path / "m3"
        code = main(
            ["map", "--qubits", "3", "--b2", "0.1", "--c2", "0.1", "--grid=-2:2:0.5", "--out", str(out)]
        )
        assert code == 0
        assert (out / "fidelity_map.csv").exists()

    def test_orthogonal_spectator_family_at_its_limit(self, tmp_path, capsys):
        # --c2 0.5 is the documented limit of the orthogonal 3-qubit family.
        out = tmp_path / "limit"
        assert main(["map", "--b2", "0.1", "--c2", "0.5", "--grid=0:0.5:0.5", "--out", str(out)]) == 0
        assert (out / "fidelity_map.csv").exists()
        out = tmp_path / "over"
        assert_config_error(capsys, ["map", "--b2", "0.1", "--c2", "0.5000001", "--grid=0:0.5:0.5", "--out", str(out)])
        assert not out.exists()

    def test_squares_summing_to_one(self, tmp_path):
        # 0.5 + 0.5 is 1, though sqrt(0.5)**2 + sqrt(0.5)**2 is just above it.
        out = tmp_path / "sumone"
        argv = ["map", "--b2", "0.5", "--c2", "0.5", "--non-orthogonal", "--grid=0:0.5:0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        data = (out / "fidelity_map.csv").read_bytes()
        meta = json.loads(read(out / "fidelity_map.json"))
        assert meta["content_sha256"] == hashlib.sha256(data).hexdigest()
        assert data.count(b"\n") == 1 + 4

    @pytest.mark.parametrize("b2, c2", [("0.5", "0.5"), ("0.7", "0.3"), ("0.53", "0.47")])
    def test_orthogonal_squares_summing_to_one(self, tmp_path, b2, c2):
        # The orthogonal 3-qubit family at b^2 + c^2 = 1 as given: the
        # roots square back just above 1 or leave 1 - b^2 - c^2 just below 0
        out = tmp_path / "sumone"
        assert main(["map", "--b2", b2, "--c2", c2, "--grid=0:0.5:0.5", "--out", str(out)]) == 0
        data = (out / "fidelity_map.csv").read_bytes()
        assert data.count(b"\n") == 1 + 4
        assert b"nan" not in data

    def test_bad_grid_is_config_error(self, tmp_path):
        assert main(["map", "--grid", "nonsense", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--b2", "-0.1", "--grid=-1:1:0.5"],
            ["map", "--b2", "nan", "--grid=-1:1:0.5"],
            ["map", "--b2", "inf", "--grid=-1:1:0.5"],
            ["map", "--qubits", "3", "--c2", "-0.1", "--grid=-1:1:0.5"],
            ["robustness", "--b2", "-0.1"],
            ["robustness", "--b2", "0,nan"],
            ["robustness", "--b2", "0.1,x"],
        ],
        ids=" ".join,
    )
    def test_bad_squared_factor_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--grid=0:1e9:0.001"],  # one axis over the cap
            ["map", "--grid=0:2100:1"],  # each axis under it, the map over it
            ["map", "--grid=0:inf:1"],
            ["optimize", "--grid=0:2100:1"],
        ],
        ids=" ".join,
    )
    def test_oversized_grid_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "big"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    def test_oversized_grid_message_is_short(self, tmp_path, capsys):
        out = tmp_path / "big"
        assert main(["map", "--grid=-1:1:1e-300", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: grid of 2e+300 points exceeds the limit of 4194304"]
        assert len(err[0]) < 100
        assert not out.exists()

    def test_config_path_is_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert_config_error(capsys, ["map", "--config", str(tmp_path), "--out", str(out)])
        assert not out.exists()

    def test_out_path_is_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("keep\n")
        assert_config_error(capsys, ["map", "--grid=-1:1:0.5", "--out", str(out)])
        assert read(out) == "keep\n"

    def test_temp_name_cannot_collide(self, tmp_path):
        # a leftover at the old fixed temporary name does not block the write
        out = tmp_path / "run"
        (out / "fidelity_map.csv.tmp").mkdir(parents=True)
        assert main(["map", "--grid=-1:1:0.5", "--out", str(out)]) == 0
        assert (out / "fidelity_map.csv").is_file()
        assert sorted(p.name for p in out.iterdir()) == [
            "fidelity_map.csv",
            "fidelity_map.csv.tmp",
            "fidelity_map.json",
        ]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        with pytest.raises(OSError):
            _write_atomic(str(target), b"data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["target"]

    def test_written_files_take_the_umask(self, tmp_path, monkeypatch):
        # The kernel applies the process umask to each new file, as open()
        # would; writing never sets the umask, not even to read it
        umask, calls = os.umask, []
        monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or umask(mask))
        out = tmp_path / "run"
        previous = umask(0o027)
        try:
            assert main(["map", "--grid=-1:1:0.5", "--out", str(out)]) == 0
        finally:
            umask(previous)
        assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == {
            "fidelity_map.csv": 0o640,
            "fidelity_map.json": 0o640,
        }
        assert calls == []

    def test_config_file_with_flag_precedence(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"b2": 0.5, "grid": "-1:1:0.5"}))
        out = tmp_path / "cfg"
        code = main(["map", "--config", str(config), "--b2", "0.1", "--out", str(out)])
        assert code == 0
        meta = json.loads(read(out / "fidelity_map.json"))
        assert meta["config"]["b2"] == 0.1  # flag wins
        assert meta["config"]["grid"] == "-1:1:0.5"  # file beats default


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--grid=-1:1:0.5"],
        ["esop-map", "--pulses", "4", "--grid=-1:1:0.5"],
        ["robustness", "--b2", "0,0.1", "--delta-step", "0.25"],
        ["bscan", "--areas=2,2", "--b2-step", "0.25"],
        ["optimize", "--areas=2,2", "--restarts", "1"],
        ["optimize", "--what", "areas", "--grid=1:3:1", "--restarts", "1"],
        ["validate", "--samples", "1"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_sidecar_hashes_the_written_bytes(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    sidecars = sorted(out.glob("*.json"))
    assert sidecars
    for sidecar in sidecars:
        (data,) = [p for p in out.iterdir() if p.stem == sidecar.stem and p != sidecar]
        meta = json.loads(sidecar.read_bytes())
        assert meta["content_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()


MAP_CONFIG_KEYS = ["b2", "c2", "qubits", "pulses", "grid", "threshold", "non_orthogonal", "out"]
OPTIMIZE_CONFIG_KEYS = ["what", "b2", "c2", "min_c2", "min_sq", "grid", "areas", "restarts", "seed", "out"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["map", "--grid=-1:1:0.5"], MAP_CONFIG_KEYS),
        (["esop-map", "--pulses", "4", "--grid=-1:1:0.5"], MAP_CONFIG_KEYS),
        (["robustness", "--delta-step", "0.25"], ["b2", "areas", "delta_max", "delta_step", "out"]),
        (["bscan", "--b2-step", "0.25"], ["areas", "b2_max", "b2_step", "out"]),
        (["optimize", "--areas=2,2", "--restarts", "1"], OPTIMIZE_CONFIG_KEYS),
        (["optimize", "--what", "all-factors", "--areas=2,2", "--restarts", "1"], OPTIMIZE_CONFIG_KEYS),
        (["optimize", "--what", "areas", "--grid=1:3:1", "--restarts", "1"], OPTIMIZE_CONFIG_KEYS),
        (["validate", "--samples", "1"], ["samples", "seed", "tolerance", "shape", "out"]),
    ],
    ids=["map", "esop-map", "robustness", "bscan", "optimize-third-qubit", "optimize-all-factors",
         "optimize-areas", "validate"],
)
def test_sidecar_config_keys(tmp_path, argv, keys):
    # Dropping or adding an option changes what every sidecar records: pinned here, per command.
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    sidecars = sorted(out.glob("*.json"))
    assert sidecars
    for sidecar in sidecars:
        assert list(json.loads(sidecar.read_bytes())["config"]) == keys


#: A command line and the library function in ``sopgate.cli`` that does its work.
COMMAND_WORK = [
    (["map", "--grid=-16:16:0.05"], "fidelity_map"),
    (["esop-map", "--pulses", "4"], "fidelity_map"),
    (["robustness"], "robustness_scan"),
    (["bscan"], "b_scan"),
    (["optimize", "--areas=2,2"], "optimize_third_qubit"),
    (["optimize", "--what", "areas"], "optimize_areas"),
    (["validate"], "validate_protocol"),
]
COMMAND_WORK_IDS = [" ".join(argv) for argv, _ in COMMAND_WORK]


class TestOutputDirectoryFirst:
    @pytest.mark.parametrize("argv, work", COMMAND_WORK, ids=COMMAND_WORK_IDS)
    def test_out_path_is_file_before_any_work(self, tmp_path, capsys, monkeypatch, argv, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(sopgate.cli, work, refuse)
        out = tmp_path / "out"
        out.write_text("keep\n")
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert read(out) == "keep\n"

    @pytest.mark.parametrize("argv, work", COMMAND_WORK, ids=COMMAND_WORK_IDS)
    def test_refused_work_creates_no_out(self, tmp_path, capsys, monkeypatch, argv, work):
        def refuse(*args, **kwargs):
            raise SopGateError(f"{work} refused its input")

        monkeypatch.setattr(sopgate.cli, work, refuse)
        out = tmp_path / "out"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    def test_out_parent_is_file_fails_at_write(self, tmp_path, capsys):
        parent = tmp_path / "a_file"
        parent.write_text("keep\n")
        assert_config_error(capsys, ["map", "--grid=-1:1:0.5", "--out", str(parent / "out")])
        assert read(parent) == "keep\n"


class TestOneWritePath:
    """A command returns its artifacts as bytes and touches no disk; only ``main`` writes."""

    @pytest.mark.parametrize("argv", [argv for argv, _ in COMMAND_WORK], ids=" ".join)
    def test_command_returns_the_bytes_main_writes(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = argv + ["--out", str(out)]
        args = build_parser().parse_args(argv)
        code, artifacts = args.func(args)
        assert code == 0 and artifacts
        assert not out.exists()
        assert main(argv) == code
        names = set()
        for _, name, data, _ in artifacts:
            assert type(data) is bytes
            assert (out / name).read_bytes() == data
            names |= {name, os.path.splitext(name)[0] + ".json"}
        assert {p.name for p in out.iterdir()} == names

    @pytest.mark.parametrize(
        "argv, work, refused_call",
        [
            (["robustness", "--b2", "0,0.1", "--delta-step", "0.25"], "robustness_scan", 2),
            (["bscan", "--areas=2,2", "--areas=2,6", "--b2-step", "0.25"], "b_scan", 3),
        ],
        ids=["robustness", "bscan"],
    )
    def test_refused_last_result_writes_nothing(
        self, tmp_path, capsys, monkeypatch, argv, work, refused_call
    ):
        original, calls = getattr(sopgate.cli, work), []

        def refuse_late(*args, **kwargs):
            calls.append(args)
            if len(calls) == refused_call:
                raise SopGateError(f"{work} refused its input")
            return original(*args, **kwargs)

        monkeypatch.setattr(sopgate.cli, work, refuse_late)
        out = tmp_path / "out"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert len(calls) == refused_call
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, taken",
        [
            (["map", "--grid=-1:1:0.5"], "fidelity_map.json"),
            (["robustness", "--b2", "0,0.1", "--delta-step", "0.25"], "robustness_b2_0.1.csv"),
        ],
        ids=["map", "robustness"],
    )
    def test_target_path_is_directory(self, tmp_path, capsys, argv, taken):
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert [p.name for p in out.iterdir()] == [taken]
        assert not any((out / taken).iterdir())


class TestScanAxes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bscan", "--b2-step", "0"],
            ["bscan", "--b2-step", "nan"],
            ["bscan", "--b2-step", "-0.1"],
            ["bscan", "--b2-step", "inf"],
            ["bscan", "--b2-step", "1e-10"],  # 5e9 points, over the grid cap
            ["bscan", "--b2-step", "5e-324"],  # an infinite point count: an invalid grid
            ["bscan", "--b2-max", "nan"],
            ["bscan", "--b2-max", "-0.1"],
            ["bscan", "--b2-max", "1.5"],
            ["bscan", "--areas", "2,2", "--areas", "x"],
            ["robustness", "--delta-step", "0"],
            ["robustness", "--delta-step", "-0.01"],
            ["robustness", "--delta-step", "1e-9"],  # 1e9 points, over the grid cap
            ["robustness", "--delta-max", "nan"],
            ["robustness", "--delta-max", "-1"],
            ["robustness", "--delta-max", "inf"],
            ["robustness", "--delta-max", "1.7e308", "--delta-step", "1e308"],  # span overflows
            ["validate", "--tolerance", "inf"],
            ["validate", "--tolerance", "nan"],
            ["validate", "--tolerance", "0"],
            ["validate", "--tolerance=-1e-6"],
            ["robustness", "--areas=nan,2", "--delta-max", "0.1"],
            ["robustness", "--areas=2,-inf"],
            ["bscan", "--areas=inf,2"],
            ["bscan", "--areas=2,2", "--areas=2,nan"],
            ["optimize", "--areas=nan,2"],
            ["optimize", "--what", "all-factors", "--areas=2,inf"],
        ],
        ids=" ".join,
    )
    def test_bad_axis_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["robustness", "--areas=1e308,0", "--delta-max", "0.01"],
            ["bscan", "--areas=1e308,1", "--b2-max", "0.01"],
            ["optimize", "--areas=1e308,1", "--restarts", "1"],
            ["map", "--grid=1e308:1e308:1"],
            ["optimize", "--what", "areas", "--grid=1e308:1e308:1", "--restarts", "1"],
            # finite areas and deltas whose shifted even-pulse area overflows
            ["robustness", "--areas=5e307,0", "--delta-max", "5e307", "--delta-step", "5e307"],
        ],
        ids=" ".join,
    )
    def test_area_overflowing_in_radians_is_config_error(self, tmp_path, capsys, argv):
        # Each value is finite in units of pi, but not once multiplied by pi.
        out = tmp_path / "bad"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name, want",
        [
            (["map", "--grid=0:1:0.35"], "fidelity_map.csv", ["0", "0.35", "0.7"]),
            (["bscan", "--b2-max", "0.5", "--b2-step", "0.3"], "bscan_2_2.csv", ["0", "0.3"]),
            (["bscan", "--b2-max", "1", "--b2-step", "0.6"], "bscan_2_2.csv", ["0", "0.6"]),
            (
                ["robustness", "--delta-max", "0.1", "--delta-step", "0.03"],
                "robustness_b2_0.csv",
                ["-0.1", "-0.07", "-0.04", "-0.01", "0.02", "0.05", "0.08"],
            ),
            # a step whose 1e-9 underflows still takes max: no empty scan
            (["robustness", "--delta-max", "0", "--delta-step", "5e-324"], "robustness_b2_0.csv", ["-0"]),
            (
                ["robustness", "--delta-max", "5e-324", "--delta-step", "5e-324"],
                "robustness_b2_0.csv",
                ["-4.94065646e-324", "0", "4.94065646e-324"],
            ),
        ],
        ids=["map", "bscan", "bscan-to-1", "robustness", "robustness-subnormal-step", "robustness-subnormal-max"],
    )
    def test_axis_ends_at_its_last_point_not_past_max(self, tmp_path, argv, name, want):
        out = tmp_path / "ok"
        assert main(argv + ["--out", str(out)]) == 0
        rows = read(out / name).strip().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == want

    def test_axis_values_unchanged(self, tmp_path):
        out = tmp_path / "ok"
        assert main(["bscan", "--b2-max", "1", "--b2-step", "0.25", "--out", str(out)]) == 0
        rows = read(out / "bscan_2_2.csv").strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]


class TestConfigFile:
    @pytest.mark.parametrize("text", ["[1, 2]", "b2 = 0.1", ""])
    def test_not_a_json_object(self, tmp_path, capsys, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert_config_error(capsys, ["map", "--config", str(config), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, values",
        [
            ("validate", {"samples": "2"}),
            ("validate", {"seed": "x"}),
            ("validate", {"samples": 2.5}),
            ("validate", {"tolerance": True}),
            ("map", {"qubits": 4}),
            ("map", {"non_orthogonal": "yes"}),
            ("robustness", {"b2": [0.1]}),
            ("bscan", {"areas": "2,2"}),
            ("bscan", {"areas": [2]}),
            ("optimize", {"restarts": None}),
            ("bscan", {"areas": []}),  # the flag form cannot give an empty list
        ],
        ids=[
            "validate-samples-text", "validate-seed-text", "validate-samples-float",
            "validate-tolerance-bool", "map-qubits-4", "map-non_orthogonal-text",
            "robustness-b2-list", "bscan-areas-text", "bscan-areas-one", "optimize-restarts-null",
            "bscan-areas-empty",
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, values):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert_config_error(capsys, [command, "--config", str(config), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, seed",
        [
            (["validate", "--samples", "1"], -1),
            (["optimize", "--areas=2,2", "--restarts", "1"], -5),
        ],
        ids=["validate", "optimize"],
    )
    def test_negative_seed_refused(self, tmp_path, capsys, argv, seed, form):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": seed}))
        given = ["--seed", str(seed)] if form == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        assert_config_error(capsys, argv + given + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, values",
        [
            (["map", "--grid=-1:1:1"], {"pulses": 3.0}),
            (["esop-map", "--pulses", "4", "--grid=-1:1:1"], {"pulses": 3.0}),
            (["optimize", "--areas=2,2"], {"restarts": 16.0}),
            (["optimize", "--areas=2,2", "--restarts", "1"], {"seed": 0.0}),
            (["validate"], {"samples": 100.0}),
            (["validate", "--samples", "1"], {"seed": 0.0}),
            (["map", "--grid=-1:1:1"], {"b2": False}),
            (["map", "--grid=-1:1:1"], {"non_orthogonal": 0}),
        ],
        ids=[
            "map-pulses-float", "esop-map-pulses-float", "optimize-restarts-float",
            "optimize-seed-float", "validate-samples-float", "validate-seed-float", "map-b2-bool",
            "map-non_orthogonal-int",
        ],
    )
    def test_value_needs_the_declared_type(self, tmp_path, capsys, argv, values):
        # A JSON int counts as a float, but no float counts as an int and a
        # boolean counts only for an on/off option.
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert_config_error(capsys, argv + ["--config", str(config), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("b2", [0.1, 0, "0,0.1"])
    def test_robustness_b2_number_or_list_text(self, tmp_path, b2):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"b2": b2, "delta_step": 0.25, "unknown": [1]}))
        assert main(["robustness", "--config", str(config), "--out", str(tmp_path)]) == 0

    def test_defaults_and_typed_values_accepted(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"qubits": None, "pulses": 2, "threshold": 1, "non_orthogonal": True})
        )
        out = tmp_path / "out"
        assert main(["map", "--config", str(config), "--grid=-1:1:0.5", "--out", str(out)]) == 0
        meta = json.loads(read(out / "fidelity_map.json"))
        assert meta["config"]["qubits"] == 2
        assert meta["config"]["non_orthogonal"] is True

    def test_fidelity_key_ignored(self, tmp_path):
        # Like any key a command does not read, it changes neither the data nor the sidecar.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"fidelity": "bogus"}))
        assert main(["map", "--grid=-1:1:0.5", "--out", str(tmp_path / "plain")]) == 0
        assert main(["map", "--config", str(config), "--grid=-1:1:0.5", "--out", str(tmp_path / "cfg")]) == 0
        for name in ("fidelity_map.csv", "fidelity_map.json"):
            plain = read(tmp_path / "plain" / name)
            assert read(tmp_path / "cfg" / name) == plain.replace(str(tmp_path / "plain"), str(tmp_path / "cfg"))

    def test_library_defaults_keep_their_sidecar_values(self):
        assert (MAP_DEFAULTS["grid"], MAP_DEFAULTS["threshold"]) == ("-8:8:0.05", 0.7)
        assert OPTIMIZE_DEFAULTS["restarts"] == 16


class TestEsopMapCommand:
    def test_rejects_single_pulse(self, tmp_path, capsys):
        out = tmp_path / "e1"
        assert_config_error(capsys, ["esop-map", "--pulses", "1", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map", "esop-map"])
    @pytest.mark.parametrize("pulses", [MAX_PULSES + 1, 10**9])
    def test_pulse_count_capped(self, tmp_path, capsys, command, pulses):
        out = tmp_path / "many"
        assert_config_error(capsys, [command, "--pulses", str(pulses), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", [["map"], ["esop-map", "--pulses", "4"]], ids=" ".join)
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_refused(self, tmp_path, capsys, command, threshold):
        out = tmp_path / "thr"
        argv = command + [f"--threshold={threshold}", "--grid=-1:1:0.5", "--out", str(out)]
        assert_config_error(capsys, argv)
        assert not out.exists()

    def test_pulse_count_required(self, tmp_path):
        out = tmp_path / "e"
        code = main(
            ["esop-map", "--pulses", "2", "--b2", "0.1", "--grid=-2:2:0.5", "--out", str(out)]
        )
        assert code == 0
        assert (out / "esop_map.csv").exists()


class TestRobustnessCommand:
    def test_curves_per_overlap(self, tmp_path):
        out = tmp_path / "rob"
        code = main(["robustness", "--b2", "0,0.1", "--delta-step", "0.05", "--out", str(out)])
        assert code == 0
        for b2 in ("0", "0.1"):
            text = read(out / f"robustness_b2_{b2}.csv")
            header, *rows = text.strip().splitlines()
            assert header == "delta_a_over_pi,u11v,u11a,u11b"
            middle = rows[len(rows) // 2].split(",")
            assert float(middle[0]) == pytest.approx(0.0)
            assert float(middle[1]) == pytest.approx(-1.0, abs=1e-9)

    def test_overlaps_sharing_a_file_name_refused(self, tmp_path, capsys):
        out = tmp_path / "rob"
        assert_config_error(capsys, ["robustness", "--b2", "0.1,0.1000001", "--out", str(out)])
        assert not out.exists()

    def test_repeated_overlap_writes_its_one_file(self, tmp_path):
        out = tmp_path / "rob"
        argv = ["robustness", "--b2", "0.1,0.1", "--delta-step", "0.25", "--out", str(out)]
        assert main(argv) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["robustness_b2_0.1.csv", "robustness_b2_0.1.json"]

    def test_repeated_overlap_is_scanned_once(self, tmp_path, capsys, monkeypatch):
        original, calls = sopgate.cli.robustness_scan, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sopgate.cli, "robustness_scan", counted)
        out = tmp_path / "rob"
        argv = ["robustness", "--b2", "0.1,0.1", "--delta-step", "0.25", "--out", str(out)]
        assert main(argv) == 0
        assert len(calls) == 1
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
        assert wrote == [f"wrote {out / 'robustness_b2_0.1.csv'}"]


class TestBscanCommand:
    def test_area_pairs_sharing_a_file_name_refused(self, tmp_path, capsys):
        out = tmp_path / "bs"
        argv = ["bscan", "--areas=2,2", "--areas=2.0000001,2", "--out", str(out)]
        assert_config_error(capsys, argv)
        assert not out.exists()

    def test_repeated_pair_is_scanned_and_written_once(self, tmp_path, capsys, monkeypatch):
        original, calls = sopgate.cli.b_scan, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sopgate.cli, "b_scan", counted)
        out = tmp_path / "bs"
        argv = ["bscan", "--areas=2,2", "--areas=2.0,2", "--areas=2,2", "--b2-step", "0.25"]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(calls) == 2  # one orthogonal and one mirrored scan
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
        assert wrote == [f"wrote {out / 'bscan_2_2.csv'}"]
        assert json.loads(read(out / "bscan_2_2.json"))["config"]["areas"] == "2,2"

    def test_orthogonal_and_mirrored_columns(self, tmp_path):
        out = tmp_path / "bs"
        code = main(
            ["bscan", "--areas", "2,2", "--areas", "2,6", "--b2-step", "0.1", "--out", str(out)]
        )
        assert code == 0
        text = read(out / "bscan_2_2.csv")
        assert text.splitlines()[0] == "b2,f_orthogonal,f_non_orthogonal"
        assert (out / "bscan_2_6.csv").exists()


class TestScanCsvColumns:
    """Every scan CSV equals the per-row ``f"{x:.9g}"`` rendering of the columns it was given."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["robustness", "--delta-max", "0"],  # one row
            ["robustness", "--areas=-3.5,1", "--b2", "0,0.45", "--delta-step", "0.01"],
            ["bscan", "--areas=-3.5,1", "--areas=2,2", "--b2-step", "0.01"],
            ["optimize", "--areas=-3.5,2", "--restarts", "2"],
            ["optimize", "--what", "all-factors", "--grid=-1:1:1", "--restarts", "1"],
        ],
        ids=" ".join,
    )
    def test_matches_per_row_rendering(self, tmp_path, monkeypatch, argv):
        rendered = []

        def recorded(header, columns):
            text = csv_text(header, columns)
            rendered.append((header, columns, text))
            return text

        monkeypatch.setattr(sopgate.cli, "csv_text", recorded)
        args = build_parser().parse_args(argv + ["--out", str(tmp_path)])
        code, artifacts = args.func(args)
        assert code == 0 and [data for _, _, data, _ in artifacts] == [r[2] for r in rendered]
        for header, columns, text in rendered:
            (n_rows,) = {len(column) for column in columns}
            assert text.count(b"\n") == 1 + n_rows
            rows = zip(*(np.asarray(column).tolist() for column in columns))
            assert text == per_row_csv_text(header, rows)


class TestOptimizeCommand:
    def test_single_point_third_qubit(self, tmp_path):
        out = tmp_path / "opt"
        code = main(
            [
                "optimize",
                "--what",
                "third-qubit",
                "--areas",
                "2.4,1.1",
                "--b2",
                "0.1",
                "--restarts",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = read(out / "optimized_map_third_qubit.csv")
        header, row = text.strip().splitlines()
        assert header == "a_odd_over_pi,a_even_over_pi,fidelity,c_odd,c_even"
        fields = row.split(",")
        assert float(fields[2]) > 0.8
        # CSV carries 9 significant digits; the exact bound holds pre-rounding
        assert float(fields[3]) ** 2 >= 0.1 - 1e-8

    def test_third_qubit_at_clamp_bound(self, tmp_path):
        # the optimizer clamps both spectator factors to sqrt(0.5) here
        out = tmp_path / "clamp"
        code = main(["optimize", "--what", "third-qubit", "--areas=4,1.5", "--out", str(out)])
        assert code == 0
        header, row = read(out / "optimized_map_third_qubit.csv").strip().splitlines()
        fidelity = float(row.split(",")[2])
        assert 0.0 <= fidelity <= 1.0

    def test_restarts_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "r0"
        assert_config_error(
            capsys, ["optimize", "--restarts", "0", "--areas=2,2", "--out", str(out)]
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--what", "third-qubit", "--b2", "-0.1"],
            ["--what", "all-factors", "--c2", "-0.1"],
        ],
        ids=" ".join,
    )
    def test_bad_squared_factor_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert_config_error(capsys, ["optimize", *argv, "--areas=2,2", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--what", "third-qubit", "--min-c2", "0.7"],
            ["--what", "third-qubit", "--b2", "0.95", "--min-c2", "0.1"],
            ["--what", "all-factors", "--min-sq", "0.6"],
            ["--what", "all-factors", "--c2", "1"],
            ["--what", "all-factors", "--min-sq", "nan"],
            # c^2 <= 1 - b^2 - 1e-12 is negative, or just below min_c2
            ["--what", "third-qubit", "--b2", "1", "--min-c2", "0"],
            ["--what", "third-qubit", "--b2", "0.5", "--min-c2", "0.5"],
        ],
        ids=" ".join,
    )
    def test_infeasible_bound_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert_config_error(capsys, ["optimize", *argv, "--grid=-2:2:2", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize(
        "command", [["optimize", "--areas=2,2"], ["map", "--grid=-1:1:1"]], ids=" ".join
    )
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        out = tmp_path / "t"
        assert_config_error(capsys, command + ["--threads", threads, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--areas=2,2", "--restarts", str(MAX_SIMPLICES + 1)],
            ["--grid=-8:8:0.5", "--restarts", str(MAX_SIMPLICES // (33 * 33) + 1)],
            ["--what", "areas", "--restarts", str(MAX_SIMPLICES + 1)],
        ],
        ids=" ".join,
    )
    def test_too_many_point_restarts_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "big"
        assert_config_error(capsys, ["optimize", *argv, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--what", "areas", "--areas=2,2"],
            ["--what", "areas", "--areas=nan,2"],
            ["--what", "areas", "--min-sq", "nan", "--min-c2", "nan"],
            ["--what", "areas", "--min-c2", "0.6"],
            ["--what", "areas", "--min-sq=-0.1"],
            ["--what", "third-qubit", "--min-sq", "nan"],
            ["--what", "third-qubit", "--min-sq", "0.51"],
            ["--what", "all-factors", "--min-c2", "nan"],
            ["--what", "all-factors", "--min-c2", "inf"],
        ],
        ids=" ".join,
    )
    def test_setting_a_mode_ignores_is_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert_config_error(
            capsys, ["optimize", *argv, "--grid=1:3:1", "--restarts", "1", "--out", str(out)]
        )
        assert not out.exists()

    @pytest.mark.parametrize("what", ["third-qubit", "all-factors"])
    def test_grid_checked_next_to_areas(self, tmp_path, capsys, what):
        out = tmp_path / "bad"
        argv = ["optimize", "--what", what, "--areas=2,2", "--grid=nonsense", "--restarts", "1"]
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--what", "third-qubit", "--c2", "0.9"], ["--what", "all-factors", "--b2", "0.99"]],
        ids=" ".join,
    )
    def test_unread_factor_flag_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        argv = ["optimize", *argv, "--areas=2,2", "--restarts", "1"]
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "values",
        [{"c2": 0.1}, {"what": "third-qubit", "c2": 0.9}, {"what": "all-factors", "b2": 0.1}],
        ids=["c2", "third-qubit-c2", "all-factors-b2"],
    )
    def test_unread_factor_in_config_file_refused(self, tmp_path, capsys, values):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "bad"
        argv = ["optimize", "--config", str(config), "--areas=2,2", "--restarts", "1"]
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "what, bound",
        [("third-qubit", "min_sq"), ("areas", "min_sq"), ("all-factors", "min_c2"), ("areas", "min_c2")],
    )
    @pytest.mark.parametrize("by_file", [False, True])
    def test_bound_a_mode_does_not_read_refused(self, tmp_path, capsys, what, bound, by_file):
        argv = ["optimize", "--what", what, "--grid=1:3:1", "--restarts", "1"]
        if what != "areas":
            argv.append("--areas=2,2")
        if by_file:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({bound: 0.2}))
            argv += ["--config", str(config)]
        else:
            argv += [f"--{bound.replace('_', '-')}", "0.2"]
        out = tmp_path / "bad"
        assert_config_error(capsys, argv + ["--out", str(out)])
        assert not out.exists()

    def test_null_areas_leaves_the_point_unset(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"what": "areas", "areas": None}))
        out = tmp_path / "ok"
        argv = ["optimize", "--config", str(config), "--grid=1:3:1", "--restarts", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(read(out / "optimize_areas.json"))["config"]["areas"] is None

    @pytest.mark.parametrize("what, factor", [("third-qubit", "b2"), ("all-factors", "c2")])
    def test_read_factor_accepted_and_defaults_recorded(self, tmp_path, what, factor):
        out = tmp_path / "ok"
        argv = ["optimize", "--what", what, f"--{factor}", "0.2", "--areas=2,2", "--restarts", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        config = json.loads(read(out / f"optimized_map_{what.replace('-', '_')}.json"))["config"]
        given = {"what": what, factor: 0.2, "areas": "2,2", "restarts": 1, "out": str(out)}
        assert config == {**OPTIMIZE_DEFAULTS, **given}

    def test_areas_payload(self, tmp_path):
        out = tmp_path / "areas"
        argv = ["optimize", "--what", "areas", "--grid=1:3:1", "--restarts", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads(read(out / "optimize_areas.txt"))
        assert set(payload) == {
            "best_fidelity", "best_area_odd_over_pi", "best_area_even_over_pi", "evaluations"
        }
        assert 0.0 <= payload["best_fidelity"] <= 1.0
        assert 1.0 <= payload["best_area_odd_over_pi"] <= 3.0
        assert type(payload["evaluations"]) is int and payload["evaluations"] >= 1

    @pytest.mark.parametrize("what", ["third-qubit", "all-factors"])
    def test_single_point_is_its_grid_row(self, tmp_path, what):
        common = ["optimize", "--what", what, "--restarts", "2", "--seed", "3"]
        assert main(common + ["--grid=-2:2:2", "--out", str(tmp_path / "grid")]) == 0
        assert main(common + ["--areas=2,-2", "--out", str(tmp_path / "point")]) == 0
        name = f"optimized_map_{what.replace('-', '_')}.csv"
        header, row = read(tmp_path / "point" / name).splitlines()
        grid_rows = read(tmp_path / "grid" / name).splitlines()
        assert grid_rows[0] == header
        assert [r for r in grid_rows[1:] if r.startswith("2,-2,")] == [row]

    def test_small_optimized_grid(self, tmp_path):
        out = tmp_path / "grid"
        code = main(
            [
                "optimize",
                "--what",
                "all-factors",
                "--grid=-2:2:2",
                "--c2",
                "0.1",
                "--restarts",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read(out / "optimized_map_all_factors.csv").strip().splitlines()
        assert len(rows) == 1 + 9


@pytest.mark.parametrize(
    "command", [["map"], ["esop-map", "--pulses", "4"], ["robustness"], ["bscan"]], ids=" ".join
)
def test_seed_refused_where_nothing_is_drawn(tmp_path, capsys, command):
    out = tmp_path / "seeded"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--seed" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["map", "--fidelity", "trace"], ["esop-map", "--pulses", "4", "--fidelity", "trace"],
     ["bscan", "--fidelity", "average"]],
    ids=["map", "esop-map", "bscan"],
)
def test_fidelity_option_refused(tmp_path, capsys, argv):
    # |Tr(T^dag U) / d|^2 is the one fidelity; no command takes a definition.
    out = tmp_path / "refused"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--fidelity" in err[0]
    assert not out.exists()


class TestValidateCommand:
    def test_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "val"
        code = main(["validate", "--samples", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        report = json.loads(read(out / "validation_report.txt"))
        assert report["passed"] is True
        assert len(report["runs"]) == 3
        assert report["max_deviation"] < 1e-6

    def test_gaussian_window_edge(self, tmp_path):
        # seed 429 draws Gaussian pulses whose last RK4 stage sits on the
        # nonzero edge of the truncated envelope
        out = tmp_path / "val_gauss"
        code = main(
            ["validate", "--samples", "1", "--seed", "429", "--shape", "gaussian", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(read(out / "validation_report.txt"))
        assert report["passed"] is True
        assert report["max_deviation"] < 1e-6

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, tmp_path, capsys, samples):
        out = tmp_path / "val0"
        code = main(["validate", "--samples", samples, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--samples" in err
        assert not out.exists()

    def test_samples_above_limit_rejected(self, tmp_path, capsys):
        out = tmp_path / "val_big"
        assert_config_error(capsys, ["validate", "--samples", str(MAX_SAMPLES + 1), "--out", str(out)])
        assert not out.exists()

    def test_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "val2"
        code = main(
            ["validate", "--samples", "2", "--seed", "7", "--tolerance", "1e-15", "--out", str(out)]
        )
        assert code == 3
        data = (out / "validation_report.txt").read_bytes()
        assert json.loads(data)["passed"] is False
        meta = json.loads(read(out / "validation_report.json"))
        assert meta["content_sha256"] == hashlib.sha256(data).hexdigest()
        # the summary line comes before the wrote line
        summary, wrote = capsys.readouterr().out.splitlines()
        assert summary.startswith("validation FAILED") and wrote.startswith("wrote ")


def every_option_argv(command, defaults):
    """An argv of ``command`` that sets every option row the command reads."""
    argv = [command]
    for key in dict.fromkeys(["config", *defaults, "threads"]):
        option, flag = sopgate.cli._option(command, key), sopgate.cli._flag(key)
        if option.type is bool:
            argv.append(flag)
        elif option.choices:
            argv += [flag, str(option.choices[-1])]
        else:
            argv += [flag, {int: "7", float: "0.25"}.get(option.type, "text")]
        if option.repeat:
            argv += [flag, "more"]
    return argv


class TestOneParser:
    """``main`` parses every command line with one parser, built once per process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "command, defaults",
        [(c[0], c[3]) for c in sopgate.cli.COMMANDS],
        ids=[c[0] for c in sopgate.cli.COMMANDS],
    )
    def test_parses_every_option(self, command, defaults):
        args = build_parser().parse_args(every_option_argv(command, defaults))
        assert all(value is not None for value in vars(args).values())
        assert {k for k in vars(args) if k in sopgate.cli.OPTIONS} == {"config", "threads", *defaults}

    @pytest.mark.parametrize("command", [c[0] for c in sopgate.cli.COMMANDS])
    def test_help_text(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: sopgate {command} ")

    @pytest.mark.parametrize(
        "first, second, written",
        [
            (["bscan", "--areas=1,1", "--b2-step", "0.25"], ["bscan"], "bscan_2_2.csv"),
            (
                ["optimize", "--what", "areas", "--grid=1:3:1", "--restarts", "1"],
                ["optimize", "--areas=2,2", "--restarts", "1"],
                "optimized_map_third_qubit.csv",
            ),
        ],
        ids=["bscan", "optimize"],
    )
    def test_calls_in_one_process_parse_independently(self, tmp_path, first, second, written):
        assert main(first + ["--out", str(tmp_path / "first")]) == 0
        out = tmp_path / "second"
        assert main(second + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [written, written.replace(".csv", ".json")]

    @pytest.mark.parametrize(
        "argv, want", [(["-h"], "{map,esop-map,"), (["--version"], "sopgate ")], ids=["help", "version"]
    )
    def test_top_level_help_and_version(self, argv, want, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert want in capsys.readouterr().out

    def test_unknown_command_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'validate'" in err[0]


#: Numeric text at the edges: not finite, the largest and least doubles, one ulp either side
#: of 1, negatives, empty and non-numeric text.
EDGE_NUMBERS = [
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324",
    repr(1.0 + 2.0**-52), repr(1.0 - 2.0**-53), "-1", "-0.5", "-0", "", "x", "1,2",
]
#: Integer text at the edges: zero, negatives, a fraction, an exponent, one past 2**64, no number.
EDGE_INTEGERS = ["0", "-1", "-0", "1.5", "1e3", str(2**64 + 1), "", "x", "nan"]


def joined(separator, parts, counts):
    """Text of ``parts`` joined by ``separator``, as many as one of ``counts``."""
    return st.sampled_from(counts).flatmap(lambda n: st.lists(parts, min_size=n, max_size=n)).map(separator.join)


def numbers(*usual):
    return [repr(float(x)) for x in usual], st.sampled_from(EDGE_NUMBERS)


def integers(*usual):
    return [str(x) for x in usual], st.sampled_from(EDGE_INTEGERS)


def number_lists(separator, usual, counts):
    return usual, joined(separator, st.sampled_from(["-1", "0", "0.5", "1", "2", *EDGE_NUMBERS]), counts)


#: Per option row: usual flag texts, and a strategy of edge texts. The usual values that size a
#: command's work keep it at a few points, restarts and samples at most 2; edges that would
#: size it larger must be refused.
OPTION_TEXT = {
    "b2": numbers(0, 0.1, 0.3),
    "robustness b2": number_lists(",", ["0.0", "0.1", "0.0,0.1"], [1, 2]),
    "c2": numbers(0, 0.1, 0.5),
    "qubits": integers(2, 3),
    "pulses": integers(1, 3, 4, 64, 65),
    "esop-map pulses": integers(2, 3, 5),
    "grid": number_lists(":", ["0:0:1", "0:0.5:0.5", "-1:1:1", "-1:1:0.5", "0.5:1:0.25"], [3, 3, 0, 1, 2, 4]),
    "threshold": numbers(0.5, 0.99, 2),
    "areas": number_lists(",", ["2,2", "-3.5,2", "1,0"], [2, 2, 1, 3]),
    "bscan areas": number_lists(",", ["2,2", "-3.5,1", "0,0"], [2, 2, 1]),
    "delta_max": numbers(0, 0.05, 0.1),
    "delta_step": numbers(0.05, 0.1),
    "b2_max": numbers(0, 0.1, 1),
    "b2_step": numbers(0.25, 0.5),
    "min_c2": numbers(0, 0.1, 0.5),
    "min_sq": numbers(0, 0.1, 0.5),
    "restarts": integers(1, 2),
    "seed": integers(0, 7),
    "threads": integers(1, 2),
    "samples": integers(1, 2),
    "tolerance": numbers(1e-6, 1e-15),
}

#: The options that size each command's work: always given by flag, so that no default or
#: config-file value makes an example slow.
SIZE_OPTIONS = {
    "map": ["grid"],
    "esop-map": ["grid", "pulses"],
    "robustness": ["delta_max", "delta_step"],
    "bscan": ["b2_max", "b2_step"],
    "optimize": ["grid", "restarts"],
    "validate": ["samples"],
}

#: Config-file values of wrong JSON types for an option, and some of a right type.
CONFIG_VALUES = [0.5, -math.inf, math.nan, 1.5, "0.5", "2,2", [0.5], ["2,2"], {"v": 0.5}, True, 0, None]


@st.composite
def contract_argv(draw, command):
    """An argv of ``command`` from the rows of ``cli.OPTIONS``, and a config file's text or None.

    Half the examples are clean: usual values of the options the ``optimize`` mode reads, no
    config file. The others draw edge values a quarter of the time, and options any mode reads.
    """
    defaults = next(c[3] for c in sopgate.cli.COMMANDS if c[0] == command)
    clean = draw(st.booleans())
    argv, mode = [command], defaults.get("what")
    for key in dict.fromkeys([*SIZE_OPTIONS[command], *defaults, "threads"]):
        option, flag = sopgate.cli._option(command, key), sopgate.cli._flag(key)
        if key in ("out", "config") or (key not in SIZE_OPTIONS[command] and draw(st.integers(0, 2))):
            continue
        if clean and option.modes and mode not in option.modes:
            continue
        if option.type is bool:
            argv.append(flag)
            continue
        if option.choices:
            usual, edge = [str(c) for c in option.choices], st.sampled_from(["", "x", "-1"])
        else:
            usual, edge = OPTION_TEXT.get(f"{command} {key}") or OPTION_TEXT[key]
        texts = st.sampled_from(usual) if clean else st.one_of(*[st.sampled_from(usual)] * 3, edge)
        for _ in range(draw(st.integers(1, 2)) if option.repeat else 1):
            text = draw(texts)
            argv.append(f"{flag}={text}")  # so that text starting with "-" is a value
        mode = text if key == "what" else mode
    config = None
    if not clean and draw(st.booleans()):  # a config file: values of any type, or no JSON object
        pairs = st.dictionaries(st.sampled_from([*defaults, "unread"]), st.sampled_from(CONFIG_VALUES), max_size=2)
        config = draw(st.one_of(pairs.map(json.dumps), st.sampled_from(["[]", "1", '"x"', "{", ""])))
    return argv, config


def _finite_json(text):
    """Parse sidecar JSON, refusing NaN and infinities."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"sidecar holds {name}"))


class TestInputContract:
    """Every command line exits 0 with finite, hashed artifacts, or 2 with one ``error:`` line and
    nothing written; ``validate`` may also exit 3, its report written. Nothing raises, no numpy
    floating-point error goes unhandled and no warning is issued."""

    @pytest.mark.parametrize("command", [c[0] for c in sopgate.cli.COMMANDS])
    def test_exit_zero_or_two(self, command):
        @given(contract_argv(command))
        @settings(max_examples=40)
        def check(drawn):
            argv, config = drawn
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "out")
                if config is not None:
                    with open(os.path.join(tmp, "config.json"), "w") as handle:
                        handle.write(config)
                    argv = [*argv, "--config", os.path.join(tmp, "config.json")]
                code, stderr = self._run([*argv, "--out", out])
                if code == 2:
                    lines = stderr.splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, config, stderr)
                    assert not os.path.exists(out), (argv, config)
                    return
                assert code == 0 or (command == "validate" and code == 3), (argv, config, code, stderr)
                self._check_artifacts(out)

        check()

    @staticmethod
    def _run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with (
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
            warnings.catch_warnings(),
            np.errstate(all="raise", under="ignore"),
        ):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser's refusals
                code = exc.code
        return code, stderr.getvalue()

    @staticmethod
    def _check_artifacts(out):
        names = sorted(os.listdir(out))
        data = [name for name in names if not name.endswith(".json")]
        assert data and len(names) == 2 * len(data), names
        for name in data:
            with open(os.path.join(out, name), "rb") as handle:
                body = handle.read()
            with open(os.path.join(out, os.path.splitext(name)[0] + ".json")) as handle:
                meta = _finite_json(handle.read())
            assert meta["content_sha256"] == hashlib.sha256(body).hexdigest(), name
            if name.endswith(".csv"):
                header, *rows = body.decode().splitlines()
                assert rows, f"{name} holds no rows"
                values = [float(x) for row in rows for x in row.split(",")]
                assert all(map(math.isfinite, values)) and all(len(r.split(",")) == header.count(",") + 1 for r in rows)
            else:
                _finite_json(body)
