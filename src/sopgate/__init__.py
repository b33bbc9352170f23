"""Fast controlled-phase gate protocols on blockaded atom registers.

Library + CLI for designing and evaluating two- and three-qubit C-PHASE gate
protocols driven by spatio-temporally structured pulses: exact blockade-block
propagators, pulse-area fidelity maps and their lattice geometry, constrained
optimization of the geometrical factors, and an independent time-domain
integration check. Every return amplitude comes from one propagator
formula, :func:`star_propagator`, and one product kernel; the closed-form
amplitudes of the paper are test oracles and live with the tests.
"""

from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    GridTooLargeError,
    InfeasibleStartError,
    NoMaximaFoundError,
    NotNormalizedError,
    SignatureMismatchError,
    SopGateError,
    StepTooLargeError,
    ZeroVectorError,
)
from .fidelity import (
    FidelityMap,
    GridSpec,
    LatticeReport,
    ProtocolFamily,
    RobustnessCurves,
    b_scan,
    fidelity_from_amplitudes,
    fidelity_map,
    gate_fidelity,
    lattice_analysis,
    map_maxima,
    robustness_scan,
    sop_family,
)
from .model import (
    GateSignature,
    Protocol,
    Pulse,
    StructuralVector,
    basis_labels,
    cphase_signature,
    make_structural_vector,
    spectator_orthogonal_pair,
)
from .optimize import (
    OptimizationResult,
    nelder_mead_constrained,
    optimize_all_factors,
    optimize_areas,
    optimize_third_qubit,
)
from .tdse import (
    PulseEnvelope,
    ValidationReport,
    envelopes_for_protocol,
    integrate_block,
    validate_protocol,
)
from .propagator import block_amplitudes, sequence_amplitude, star_propagator

__version__ = "0.1.0"
