"""Independent time-domain integration of the blockade-restricted dynamics.

Validates the closed-form propagators by integrating i dU/dt = H(t) U with
explicit pulse envelopes and a fixed-step fourth-order Runge-Kutta scheme.
For resonant driving the final propagator must depend on the pulse areas
only, not on the envelope shapes, so any envelope with the right area has to
land on the analytical result.

Within one pulse the Hamiltonian is a time-dependent Rabi frequency times a
constant coupling pattern, so each RK4 step is a degree-4 matrix polynomial
in that pattern, with coefficients from the step's three stage Rabi values.
The steps of a pulse are built as one array and multiplied in time order by
a pairwise tree reduction: the same RK4 scheme as a step-by-step loop, with
no per-step Python work.

The steps are stored entries first, as a ``(d, d, n_steps)`` array with
step i at ``[:, :, i]``, and each level of the tree multiplies its pairs
entry-wise: a loop over k of d elementwise products across all pairs. The
matrices are 1x1 to 4x4, so a stacked ``@`` would make one BLAS call per
pair, and that call costs more than the pair's arithmetic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SopGateError, StepTooLargeError
from .model import Protocol, basis_labels
from .propagator import (  # noqa: F401  sequence_amplitude: bench shims
    SubsystemBlock,
    block_decompose,
    diagonal_amplitudes,
    sequence_amplitude,
)

ENVELOPE_SHAPES = ("squared-sine", "gaussian")

#: Truncation half-width of the Gaussian envelope, in units of sigma.
GAUSSIAN_CUT = 4.0

#: Default time resolution: enough RK4 steps to resolve the fastest Rabi
#: oscillation of the envelope (steps scale with peak_rabi * duration, i.e.
#: roughly 300 steps per pi of area for a squared-sine pulse and finer for
#: the peakier Gaussian), with a floor of 400 steps per pulse.
STEPS_PER_RADIAN = 64
MIN_STEPS_PER_PULSE = 400

UNITARITY_DRIFT_LIMIT = 1e-6

#: Length of every pulse, in arbitrary time units (resonant dynamics depend
#: on the pulse areas only).
PULSE_DURATION = 1.0


def _unit_peak_area(shape: str, duration: float) -> float:
    """Time integral of a ``shape`` envelope of unit peak Rabi frequency."""
    if shape == "squared-sine":
        return duration / 2.0
    if shape == "gaussian":
        sigma = duration / (2.0 * GAUSSIAN_CUT)
        return sigma * math.sqrt(2.0 * math.pi) * math.erf(GAUSSIAN_CUT / math.sqrt(2.0))
    raise SopGateError(f"unknown envelope shape {shape!r}")


@dataclass(frozen=True)
class PulseEnvelope:
    """Temporal profile of one pulse: a shape, a duration and a peak Rabi frequency.

    ``peak_rabi`` carries the sign of the area; time units are arbitrary
    since only the accumulated area enters the resonant dynamics. Time is
    the offset from the pulse start, so a list of envelopes is a sequence of
    pulses, one after the other.
    """

    shape: str
    duration: float
    peak_rabi: float

    def __post_init__(self):
        if self.shape not in ENVELOPE_SHAPES:
            raise SopGateError(f"unknown envelope shape {self.shape!r}")
        if not (math.isfinite(self.duration) and math.isfinite(self.peak_rabi)):
            raise SopGateError(
                f"envelope duration {self.duration} and peak Rabi frequency "
                f"{self.peak_rabi} must be finite"
            )
        if self.duration <= 0:
            raise SopGateError("envelope duration must be positive")

    @property
    def area(self) -> float:
        """Time integral of the Rabi frequency (analytic per shape)."""
        return self.peak_rabi * _unit_peak_area(self.shape, self.duration)

    @classmethod
    def from_area(cls, shape: str, duration: float, area: float) -> "PulseEnvelope":
        """Choose the peak Rabi frequency so the time integral equals ``area``."""
        peak = area / _unit_peak_area(shape, duration)
        return cls(shape=shape, duration=duration, peak_rabi=peak)

    def rabi(self, tau):
        """Rabi frequency at offset ``tau`` from the pulse start, clamped into the window.

        Clamping keeps the (nonzero) edge value of a truncated envelope at an
        offset that float round-off puts just past the window.
        """
        tau = np.clip(np.asarray(tau, dtype=float), 0.0, self.duration)
        if self.shape == "squared-sine":
            return self.peak_rabi * np.sin(np.pi * tau / self.duration) ** 2
        sigma = self.duration / (2.0 * GAUSSIAN_CUT)
        return self.peak_rabi * np.exp(-((tau - 0.5 * self.duration) ** 2) / (2.0 * sigma**2))


def envelopes_for_protocol(protocol: Protocol, shape: str = "squared-sine") -> list[PulseEnvelope]:
    """Envelopes realizing a protocol's pulse areas, in pulse order."""
    return [PulseEnvelope.from_area(shape, PULSE_DURATION, pulse.area) for pulse in protocol.pulses]


def _pulse_steps(env: PulseEnvelope, dt: float | None) -> int:
    if dt is not None:
        return max(2, int(math.ceil(env.duration / dt)))
    by_rate = int(math.ceil(STEPS_PER_RADIAN * abs(env.peak_rabi) * env.duration))
    return max(MIN_STEPS_PER_PULSE, by_rate)


def _entry_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a[:, :, j] @ b[:, :, j]`` of two ``(d, d, n)`` stacks, as a k-loop.

    Row k of every right factor scales column k of the matching left factor,
    all n pairs at once, so a tiny matrix never goes to BLAS on its own.
    """
    out = a[:, :1] * b[None, 0]
    for k in range(1, a.shape[0]):
        out += a[:, k : k + 1] * b[None, k]
    return out


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """Ordered product ``S_{n-1} @ ... @ S_1 @ S_0`` of ``S_i = steps[:, :, i]``.

    Pairwise reduction on the last axis: each level multiplies adjacent
    pairs, the later factor on the left; an unpaired last factor moves along
    to the next level.
    """
    while steps.shape[-1] > 1:
        n = steps.shape[-1]
        pairs = _entry_product(steps[..., 1::2], steps[..., 0 : n - 1 : 2])
        steps = np.concatenate((pairs, steps[..., n - 1 :]), axis=-1) if n % 2 else pairs
    return steps[..., 0]


def _pulse_propagator(coupling: np.ndarray, env: PulseEnvelope, dt: float | None) -> np.ndarray:
    """RK4 propagator of one pulse: the ordered product of its step polynomials."""
    dim = 1 + coupling.size
    # X = -i P for the pattern P that couples ground and Rydberg levels by -coupling / 2
    x_mat = np.zeros((dim, dim), dtype=complex)
    x_mat[0, 1:] = 0.5j * coupling
    x_mat[1:, 0] = 0.5j * coupling
    # powers[p] = X^p, flattened, p = 0..4
    powers = np.empty((5, dim * dim), dtype=complex)
    power = np.eye(dim, dtype=complex)
    for p in range(5):
        powers[p] = power.ravel()
        power = x_mat @ power
    n_steps = _pulse_steps(env, dt)
    h = env.duration / n_steps
    # Rabi values at the half-step offsets 0, h/2, ..., n_steps * h;
    # step i takes entries 2i, 2i + 1 and 2i + 2
    stage_rabi = env.rabi(0.5 * h * np.arange(2 * n_steps + 1))
    a, b, c = stage_rabi[0:-1:2], stage_rabi[1::2], stage_rabi[2::2]
    coeffs = np.empty((5, n_steps), dtype=complex)
    coeffs[0] = 1.0
    coeffs[1] = h / 6.0 * (a + 4.0 * b + c)
    coeffs[2] = h**2 / 6.0 * (a * b + b * b + b * c)
    coeffs[3] = h**3 / 12.0 * (a * b * b + b * b * c)
    coeffs[4] = h**4 / 24.0 * a * b * b * c
    # entries first: steps[:, :, i] is step i
    steps = (powers.T @ coeffs).reshape(dim, dim, n_steps)
    return _ordered_product(steps)


def integrate_block(
    block: SubsystemBlock, envelopes, dt: float | None = None
) -> np.ndarray:
    """Propagator of one blockade block under explicit pulse envelopes.

    Integrates U' = -i H(t) U through the envelopes, one per pulse and in
    pulse order, with classic RK4 at fixed step (``dt`` overrides the default
    resolution). The stage Rabi values of step ``i`` come from
    :meth:`PulseEnvelope.rabi` at the offsets ``h * i``, ``h * (i + 0.5)``
    and ``h * (i + 1)``, so the last stage of a pulse lands on its window
    edge, never past it.

    Within a pulse H(t) = Omega(t) P with a constant coupling pattern P, so
    with X = -i P and stage values a, b, c one RK4 step is exactly the matrix
    polynomial

        S_i = I + h/6 (a + 4b + c) X + h^2/6 (ab + b^2 + bc) X^2
              + h^3/12 (ab^2 + b^2 c) X^3 + h^4/24 ab^2c X^4.

    All steps of a pulse are built as one ``(d, d, n_steps)`` array, entries
    first with S_i at ``[:, :, i]``, and multiplied in their order,
    S_{n-1} ... S_1 S_0, by a pairwise tree reduction whose pairs are
    multiplied entry-wise across the whole level; one BLAS call per
    d x d pair would cost more than its arithmetic. This is the RK4 scheme
    itself, not the closed-form propagator: X is never diagonalized and the
    order of the factors is kept.

    Raises
    ------
    StepTooLargeError
        If the accumulated unitarity drift of the result exceeds 1e-6.
    """
    envelopes = list(envelopes)
    if len(envelopes) != block.couplings.shape[0]:
        raise SopGateError(
            f"{len(envelopes)} envelopes for {block.couplings.shape[0]} pulses"
        )
    dim = block.dimension
    u_tot = np.eye(dim, dtype=complex)
    for coupling, env in zip(block.couplings, envelopes):
        u_tot = _pulse_propagator(coupling, env, dt) @ u_tot
    drift = np.abs(u_tot.conj().T @ u_tot - np.eye(dim)).max()
    if drift > UNITARITY_DRIFT_LIMIT:
        raise StepTooLargeError(
            f"unitarity drift {drift:.2e} exceeds {UNITARITY_DRIFT_LIMIT:.0e}; reduce dt"
        )
    return u_tot


@dataclass(frozen=True)
class ValidationReport:
    """Per-state deviation of the numerical propagation from the closed forms."""

    deviations: dict[str, float]
    max_deviation: float
    tolerance: float
    passed: bool
    settings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "per_state_deviation": dict(self.deviations),
            "settings": dict(self.settings),
        }


def validate_protocol(
    protocol: Protocol, tolerance: float = 1e-6, shape: str = "squared-sine"
) -> ValidationReport:
    """Compare analytical and integrated return amplitudes for every basis state.

    The analytical amplitudes of all blocks come from one
    :func:`diagonal_amplitudes` call, in :func:`block_decompose` order; each
    block is integrated with the default step of :func:`integrate_block`.
    Deviations above ``tolerance`` are flagged in the report, not fatal.
    """
    envelopes = envelopes_for_protocol(protocol, shape=shape)
    deviations = {}
    for block, analytic in zip(block_decompose(protocol), diagonal_amplitudes(protocol)):
        numeric = integrate_block(block, envelopes)[0, 0]
        deviations[block.initial_state] = float(abs(analytic - numeric))
    max_dev = max(deviations.values())
    return ValidationReport(
        deviations=deviations,
        max_deviation=max_dev,
        tolerance=tolerance,
        passed=max_dev < tolerance,
        settings={
            "shape": shape,
            "pulse_duration": PULSE_DURATION,
            "dt": None,
            "states": list(basis_labels(protocol.n_qubits)),
        },
    )
