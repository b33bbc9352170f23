"""Span shims and counters for the traced run.

The shims wrap the public functions of each ``sopgate`` layer at the names
the consuming module looks them up (``sopgate.optimize.gate_fidelity``,
``sopgate.fidelity.star_propagator_batch``, ...), so nothing under ``src/``
changes. A layer's self time is its span's duration minus the time of the
spans it encloses. Untraced runs install nothing.

Spans of functions that run once per objective evaluation or per block
("hot" spans, tens of thousands per job) only add to their totals; every
other span is also kept as a record (id, parent, job, name, start, end) and
written out at the end of the run.
"""

import json
import time
from collections import defaultdict

import numpy as np

import sopgate.cli
import sopgate.fidelity
import sopgate.model
import sopgate.optimize
import sopgate.propagator
import sopgate.tdse

#: (layer, function, hot, modules whose global of that name is wrapped)
SPANS = (
    ("fidelity", "fidelity_map", False, (sopgate.cli,)),
    ("fidelity", "family_diagonal_grid", False, (sopgate.fidelity,)),
    ("fidelity", "fidelity_from_amplitudes", True, (sopgate.fidelity,)),
    ("fidelity", "lattice_analysis", False, (sopgate.cli,)),
    ("fidelity", "map_csv_text", False, (sopgate.cli,)),
    ("fidelity", "gate_fidelity", True, (sopgate.fidelity, sopgate.optimize)),
    ("fidelity", "b_scan", False, (sopgate.cli,)),
    ("fidelity", "robustness_scan", False, (sopgate.cli,)),
    ("propagator", "star_propagator_batch", False, (sopgate.fidelity,)),
    ("propagator", "star_propagator", True, (sopgate.propagator,)),
    ("propagator", "sequence_amplitude", True, (sopgate.propagator, sopgate.tdse)),
    ("propagator", "block_decompose", True, (sopgate.fidelity, sopgate.tdse)),
    ("model", "spectator_orthogonal_pair", True, (sopgate.fidelity, sopgate.optimize)),
    ("optimize", "optimize_third_qubit", False, (sopgate.cli,)),
    ("optimize", "optimize_all_factors", False, (sopgate.cli,)),
    ("optimize", "minimize", False, (sopgate.optimize,)),
    ("tdse", "validate_protocol", False, (sopgate.cli,)),
    ("tdse", "integrate_block", False, (sopgate.tdse,)),
)

#: Methods counted per call, without a span: (class, method, counter).
COUNTED = (
    (sopgate.model.StructuralVector, "__post_init__", "model.StructuralVector.constructions"),
    (sopgate.model.Protocol, "__post_init__", "model.Protocol.constructions"),
    (sopgate.tdse.PulseEnvelope, "rabi", "tdse.PulseEnvelope.rabi.calls"),
)

#: Counters derived from arguments and results, with their units.
COUNTERS = {
    "cli.artifact_bytes": "B",
    "propagator.star_propagator_batch.elements": "count",
    "propagator.star_propagator_batch.bytes_out_computed": "B",
    "fidelity.family_diagonal_grid.grid_points": "count",
    "fidelity.family_diagonal_grid.matmul_flops_computed": "flop",
    "fidelity.family_diagonal_grid.bytes_computed": "B",
    "fidelity.map_csv_text.bytes": "B",
    "model.StructuralVector.constructions": "count",
    "model.Protocol.constructions": "count",
    "optimize.objective_evals": "count",
    "optimize.evals_per_point": "evals/point",
    "optimize.points_failed": "count",
    "tdse.PulseEnvelope.rabi.calls": "count",
    "tdse.unitarity_drift_max": "1",
}

COMPLEX_BYTES = 16


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.main.calls": "count", "cli.main.self_s": "s"}
    for layer, name, _, _ in SPANS:
        units[f"{layer}.{name}.calls"] = "count"
        units[f"{layer}.{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """In-memory span recorder. ``install`` patches the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(float)
        self.records = []
        self.job = -1
        self._stack = []  # open frames: [span id, name, child seconds, child notes]
        self._next_id = 0
        self._patched = []

    def wrap(self, name: str, fn, hot: bool = False, on_result=None):
        """``fn`` inside a span named ``name``.

        ``on_result(args, result, notes, parent)`` computes counters after the
        span closed; ``notes`` collects what child spans left for it.
        """

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, 0.0, []]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[f"{name}.raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                total = self.totals[name]
                total[0] += 1
                total[1] += end - start - frame[2]
                if parent is not None:
                    parent[2] += end - start
                if not hot:
                    self.records.append(
                        (frame[0], parent[0] if parent else None, self.job, name, start, end)
                    )
            if on_result is not None:
                on_result(args, result, frame[3], parent)
                if parent is not None:
                    # Counter bookkeeping is tracer cost, not the parent's own work.
                    parent[2] += time.perf_counter() - end
            return result

        return traced

    def _count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        hooks = {
            "propagator.star_propagator_batch": self._on_star_batch,
            "fidelity.family_diagonal_grid": self._on_diagonal_grid,
            "fidelity.map_csv_text": self._on_csv_text,
            "optimize.optimize_third_qubit": self._on_optimized,
            "optimize.optimize_all_factors": self._on_optimized,
            "tdse.integrate_block": self._on_integrated,
        }
        for layer, fname, hot, modules in SPANS:
            name = f"{layer}.{fname}"
            original = getattr(modules[0], fname)
            shim = self.wrap(name, original, hot, hooks.get(name))
            for module in modules:
                self._patch(module, fname, shim)
        for cls, method, name in COUNTED:
            self._patch(cls, method, self._count(name, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- counters computed from arguments and results

    def _on_star_batch(self, args, result, notes, parent):
        self.counters["propagator.star_propagator_batch.elements"] += result.size
        self.counters["propagator.star_propagator_batch.bytes_out_computed"] += result.nbytes
        if parent is not None:
            parent[3].append(result.shape)

    def _on_diagonal_grid(self, args, result, notes, parent):
        family = args[0]
        points = len(args[1]) * len(args[2])
        flops = moved = 0
        # One block per basis state, one star propagator per pulse; the
        # m - 1 batched d x d complex products of a block read two operands
        # and write one (8 d^3 real flops per product and point).
        for shape in notes[:: family.m_pulses]:
            d = shape[-1]
            flops += (family.m_pulses - 1) * 8 * d**3 * points
            moved += (family.m_pulses - 1) * 3 * d * d * COMPLEX_BYTES * points
        self.counters["fidelity.family_diagonal_grid.grid_points"] += points
        self.counters["fidelity.family_diagonal_grid.matmul_flops_computed"] += flops
        self.counters["fidelity.family_diagonal_grid.bytes_computed"] += moved + result.nbytes

    def _on_csv_text(self, args, result, notes, parent):
        self.counters["fidelity.map_csv_text.bytes"] += len(result)

    def _on_optimized(self, args, result, notes, parent):
        self.counters["optimize.objective_evals"] += result.evaluations

    def _on_integrated(self, args, result, notes, parent):
        drift = float(np.abs(result.conj().T @ result - np.eye(result.shape[0])).max())
        key = "tdse.unitarity_drift_max"
        self.counters[key] = max(self.counters[key], drift)

    # -- report

    def metrics(self) -> dict[str, float]:
        values = {name: self.counters.get(name, 0) for name in metric_units()}
        for name, (calls, self_s) in self.totals.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        targets = ("optimize.optimize_third_qubit", "optimize.optimize_all_factors")
        failed = sum(self.counters.get(f"{t}.raised", 0) for t in targets)
        solved = sum(values[f"{t}.calls"] for t in targets) - failed
        values["optimize.points_failed"] = failed
        values["optimize.evals_per_point"] = values["optimize.objective_evals"] / solved if solved else 0.0
        return values

    def write_records(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, job, name, start, end in self.records:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "job": job, "name": name,
                                "start": start, "end": end}) + "\n"
                )
