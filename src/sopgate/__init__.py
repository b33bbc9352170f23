"""Fast controlled-phase gate protocols on blockaded atom registers.

Library + CLI for designing and evaluating two- and three-qubit C-PHASE gate
protocols driven by spatio-temporally structured pulses: exact blockade-block
propagators, pulse-area fidelity maps and their lattice geometry, constrained
optimization of the geometrical factors, and an independent time-domain
integration check. Return amplitudes come from two kernels: a gemm kernel
that multiplies :func:`star_propagator` matrices for maps, scans and single
protocols, and a BLAS-free row kernel, the same propagators in closed form,
for optimizer candidates. The closed-form amplitudes of the paper are test
oracles and live with the tests.
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
)
from .fidelity import (
    GridSpec,
    ProtocolFamily,
    b_scan,
    fidelity_map,
    gate_fidelity,
    lattice_analysis,
    robustness_scan,
    sop_family,
)
from .model import Protocol, Pulse, StructuralVector, basis_labels, spectator_orthogonal_pair
from .optimize import optimize_all_factors, optimize_areas, optimize_third_qubit
from .tdse import validate_protocol
from .propagator import star_propagator

__version__ = "0.1.0"
