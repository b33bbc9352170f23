import importlib
import types

import pytest

import sopgate

EXPORTS = {
    "DimensionMismatchError",
    "EmptyGridError",
    "GridSpec",
    "GridTooLargeError",
    "InfeasibleStartError",
    "NoMaximaFoundError",
    "NotNormalizedError",
    "Protocol",
    "ProtocolFamily",
    "Pulse",
    "SignatureMismatchError",
    "SopGateError",
    "StepTooLargeError",
    "StructuralVector",
    "b_scan",
    "basis_labels",
    "fidelity_map",
    "gate_fidelity",
    "lattice_analysis",
    "optimize_all_factors",
    "optimize_areas",
    "optimize_third_qubit",
    "robustness_scan",
    "sop_family",
    "spectator_orthogonal_pair",
    "star_propagator",
    "validate_protocol",
}

#: Names the package no longer re-exports, each with the module it lives in.
MODULE_ONLY = {
    "FidelityMap": "fidelity",
    "LatticeReport": "fidelity",
    "RobustnessCurves": "fidelity",
    "fidelity_from_amplitudes": "fidelity",
    "map_maxima": "fidelity",
    "cphase_signature": "model",
    "OptimizationResult": "optimize",
    "nelder_mead_constrained": "optimize",
    "PulseEnvelope": "tdse",
    "envelopes_for_protocol": "tdse",
}


def test_package_exports_exactly_its_names():
    # Public attributes, less the submodules an import binds on the package
    public = {
        name
        for name in dir(sopgate)
        if not name.startswith("_") and not isinstance(getattr(sopgate, name), types.ModuleType)
    }
    assert len(EXPORTS) == 27
    assert public == EXPORTS


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_module_only_name(name, module):
    assert not hasattr(sopgate, name)
    assert hasattr(importlib.import_module(f"sopgate.{module}"), name)
