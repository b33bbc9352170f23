"""The benchmark under ``bench/`` resolves sopgate names at run time.

Its traced run patches module globals by name (``bench/spans.py``) and its
scripts import from the package. A rename in ``src/`` breaks either one
without failing any other test, or leaves a trace counter silently at 0.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import sopgate.cli
import sopgate.fidelity
from sopgate.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(spans):
    originals = [
        (module, name, getattr(module, name))
        for _, name, _, modules in spans.SPANS
        for module in modules
    ]
    originals += [(cls, method, getattr(cls, method)) for cls, method, _ in spans.COUNTED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_traced_map_counts_its_layers(spans, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["map", "--grid=-1:1:0.5", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("fidelity_map", "family_diagonal_grid", "lattice_analysis", "map_csv_text"):
        assert metrics[f"fidelity.{name}.calls"] == 1, name
    assert metrics["propagator.star_propagator.calls"] > 0
    assert metrics["model.StructuralVector.constructions"] > 0


def test_traced_validate_counts_rabi_calls(spans, tmp_path):
    # The integrator reads each pulse's stage Rabi values once, for every block.
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["validate", "--samples", "1", "--seed", "6", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    (run,) = json.loads((tmp_path / "validation_report.txt").read_text())["runs"]
    assert metrics["tdse.validate_protocol.calls"] == 1
    assert metrics["tdse.PulseEnvelope.rabi.calls"] == run["n_pulses"]


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_script_imports_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sopgate"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sopgate"):
                    importlib.import_module(alias.name)


def test_map_renderer_is_shared_and_counted_in_bytes():
    # spans.py patches map_csv_text in sopgate.cli and counts len(result) as bytes.
    assert sopgate.cli.map_csv_text is sopgate.fidelity.map_csv_text
    fmap = sopgate.fidelity.FidelityMap(
        axis_odd=np.array([-np.pi, 0.0]), axis_even=np.array([0.5]), values=np.array([[0.25], [np.nan]])
    )
    text = sopgate.cli.map_csv_text(fmap)
    assert type(text) is str
    assert len(text) == len(text.encode("utf-8"))
