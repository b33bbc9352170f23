"""Fast controlled-phase gate protocols on blockaded atom registers.

Library + CLI for designing and evaluating two- and three-qubit C-PHASE gate
protocols driven by spatio-temporally structured pulses: exact blockade-block
propagators, pulse-area fidelity maps and their lattice geometry, constrained
optimization of the geometrical factors, and an independent time-domain
integration check.
"""

from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    GridTooLargeError,
    InfeasibleStartError,
    LengthMismatchError,
    NoDarkSubspaceError,
    NoMaximaFoundError,
    NotNormalizedError,
    SignatureMismatchError,
    SopGateError,
    StepTooLargeError,
    UnsupportedPulseCountError,
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
    OptimizationProblem,
    OptimizationResult,
    nelder_mead_constrained,
    optimize_all_factors,
    optimize_areas,
    optimize_third_qubit,
    refine_map_maximum,
)
from .tdse import (
    PulseEnvelope,
    ValidationReport,
    envelopes_for_protocol,
    integrate_block,
    validate_protocol,
)
from .propagator import (
    SubsystemBlock,
    block_amplitudes,
    block_decompose,
    dark_state,
    diagonal_amplitudes,
    rotate_areas,
    sequence_amplitude,
    star_propagator,
    u11alpha,
    u11v_esop,
    u11v_esop_exact,
    u11v_sop,
    u11v_threepulse,
)

__version__ = "0.1.0"
