"""Independent time-domain integration of the blockade-restricted dynamics.

Validates the closed-form propagators by integrating i dU/dt = H(t) U with
explicit pulse envelopes and a fixed-step fourth-order Runge-Kutta scheme.
For resonant driving the final propagator must depend on the pulse areas
only, not on the envelope shapes, so any envelope with the right area has to
land on the analytical result.

Within one pulse the Hamiltonian is a time-dependent Rabi frequency times a
constant real symmetric coupling pattern P, so each RK4 step is a degree-4
polynomial in X = -i P, with coefficients from the step's three stage Rabi
values. The steps of a pulse therefore commute, and their product is taken
as scalars in the LAPACK ``eigh`` basis of P: one ``eigh`` per block and
pulse, one product of step factors per eigenvalue. This is still the RK4
scheme, with its amplification factor in place of the exponential, and it
shares no code with :func:`~sopgate.propagator.star_propagator`.

The step coefficients depend on the envelope only: they are computed once
per pulse and shared by every block. :func:`validate_protocol` stacks the
blocks of one dimension; :func:`integrate_block` is the same integration of
a stack of one block, with the same bits.
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


def _step_coefficients(env: PulseEnvelope, dt: float | None) -> np.ndarray:
    """Coefficients of X^0 ... X^4 in every RK4 step of one pulse, shape ``(5, n_steps)``.

    They depend on the envelope only, so every block driven by the pulse
    shares them.
    """
    n_steps = _pulse_steps(env, dt)
    h = env.duration / n_steps
    # Rabi values at the half-step offsets 0, h/2, ..., n_steps * h;
    # step i takes entries 2i, 2i + 1 and 2i + 2
    stage_rabi = env.rabi(0.5 * h * np.arange(2 * n_steps + 1))
    a, b, c = stage_rabi[0:-1:2], stage_rabi[1::2], stage_rabi[2::2]
    coeffs = np.empty((5, n_steps))
    coeffs[0] = 1.0
    coeffs[1] = h / 6.0 * (a + 4.0 * b + c)
    coeffs[2] = h**2 / 6.0 * (a * b + b * b + b * c)
    coeffs[3] = h**3 / 12.0 * (a * b * b + b * b * c)
    coeffs[4] = h**4 / 24.0 * a * b * b * c
    return coeffs


def _pulse_propagators(couplings: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """RK4 propagators of one pulse for a stack of blocks of one dimension, ``(blocks, d, d)``.

    ``couplings`` holds the pulse's couplings of each block, shape
    ``(blocks, d - 1)``, and ``coeffs`` its :func:`_step_coefficients`.
    Every step is a polynomial p_i in X = -i P, so the steps commute and
    their product is diagonal in the eigenbasis V of the real symmetric
    pattern P: at an eigenvalue mu of P each step is the scalar p_i(-i mu),
    whose real and imaginary parts 1 - c2 mu^2 + c4 mu^4 and
    -c1 mu + c3 mu^3 are formed in real arithmetic.
    """
    n_blocks, dim = couplings.shape[0], 1 + couplings.shape[1]
    # P couples the ground level to each Rydberg level by -coupling / 2
    pattern = np.zeros((n_blocks, dim, dim))
    pattern[:, 0, 1:] = -0.5 * couplings
    pattern[:, 1:, 0] = -0.5 * couplings
    mu, basis = np.linalg.eigh(pattern)
    mu2 = mu * mu
    c = coeffs[:, :, None, None]
    steps = np.empty((coeffs.shape[1], n_blocks, dim), dtype=complex)
    steps.real = 1.0 - c[2] * mu2 + c[4] * (mu2 * mu2)
    steps.imag = (c[3] * mu2 - c[1]) * mu
    factors = np.prod(steps, axis=0)
    # one contiguous d x d matrix per block, so that each later @ is the one-block @
    return np.ascontiguousarray((basis * factors[:, None, :]) @ basis.swapaxes(1, 2))


def _integrate(stacks, envelopes, dt: float | None) -> list[np.ndarray]:
    """RK4 propagators of stacks of blocks, one ``(blocks, d, d)`` array per stack.

    Each stack holds the couplings of blocks of one dimension, shape
    ``(blocks, n_pulses, d - 1)``. Pulse by pulse, the step coefficients
    are computed once for every stack, and each stack's pulse propagators
    multiply onto its running product, one ``@`` per block.

    Raises
    ------
    StepTooLargeError
        If the unitarity drift of any block's result exceeds 1e-6.
    """
    u_tots = [
        np.repeat(np.eye(1 + c.shape[2], dtype=complex)[None], c.shape[0], axis=0) for c in stacks
    ]
    for p, env in enumerate(envelopes):
        coeffs = _step_coefficients(env, dt)
        for s, couplings in enumerate(stacks):
            u_tots[s] = _pulse_propagators(couplings[:, p], coeffs) @ u_tots[s]
    drift = max(
        np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max() for u in u_tots
    )
    if drift > UNITARITY_DRIFT_LIMIT:
        raise StepTooLargeError(
            f"unitarity drift {drift:.2e} exceeds {UNITARITY_DRIFT_LIMIT:.0e}; reduce dt"
        )
    return u_tots


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

    These steps commute, so their product S_{n-1} ... S_1 S_0 is taken in
    the LAPACK ``eigh`` basis of P, where each step is a scalar. The result is
    still the RK4 scheme, not the closed-form propagator (it shares no code
    with :func:`~sopgate.propagator.star_propagator`), and it is the one-block
    case of the stacked integration :func:`validate_protocol` runs, with the
    same bits.

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
    return _integrate([block.couplings[None]], envelopes, dt)[0][0]


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
    :func:`diagonal_amplitudes` call, in :func:`block_decompose` order. The
    blocks are integrated as :func:`integrate_block` does at its default
    step, with the same bits, but stacked: each pulse's step coefficients
    are computed once for every block, and the blocks of one dimension take
    their ``eigh`` and step products together. The integration shares no
    code with :func:`~sopgate.propagator.star_propagator`, so a wrong
    analytic kernel shows as a deviation. Deviations above
    ``tolerance`` are flagged in the report, not fatal.
    """
    envelopes = envelopes_for_protocol(protocol, shape=shape)
    blocks = block_decompose(protocol)
    analytic = diagonal_amplitudes(protocol)
    by_dimension = {}
    for index, block in enumerate(blocks):
        by_dimension.setdefault(block.dimension, []).append(index)
    groups = by_dimension.values()
    stacks = [np.stack([blocks[i].couplings for i in indices]) for indices in groups]
    numeric = [0j] * len(blocks)
    for indices, u_stack in zip(groups, _integrate(stacks, envelopes, None)):
        for i, u_block in zip(indices, u_stack):
            numeric[i] = u_block[0, 0]
    deviations = {
        block.initial_state: float(abs(a - u)) for block, a, u in zip(blocks, analytic, numeric)
    }
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
