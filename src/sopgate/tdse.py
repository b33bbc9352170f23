"""Independent time-domain integration of the blockade-restricted dynamics.

Validates the closed-form propagators by integrating i dU/dt = H(t) U with
explicit pulse envelopes and a fixed-step fourth-order Runge-Kutta scheme.
For resonant driving the final propagator must depend on the pulse areas
only, not on the envelope shapes, so any envelope with the right area has to
land on the analytical result. Every pulse lasts :data:`PULSE_DURATION`, in
arbitrary time units: an envelope is a shape and a peak Rabi frequency,
which sets its area.

Within one pulse the Hamiltonian is a time-dependent Rabi frequency times a
constant real symmetric coupling pattern P, so each RK4 step is a degree-4
polynomial in X = -i P, with coefficients from the step's three stage Rabi
values. The steps of a pulse therefore commute, and their product is taken
as scalars in the LAPACK ``eigh`` basis of P. One ``eigh`` call decomposes
the patterns of all pulses at once. Envelopes are mirror-symmetric about the
pulse centre and a step's coefficients symmetric in its first and last stage
values, so step n - 1 - i of an n-step pulse repeats step i. Per pulse, one
real matrix product forms the first ceil(n / 2) step factors at every
eigenvalue; the pulse's factor is the pairwise product in place of the first
n // 2, squared, times the middle step if n is odd. This is still the RK4
scheme, with its amplification factor in place of the exponential, and it
shares no code with :func:`~sopgate.propagator.star_propagator`.

Reports repeat byte for byte on one host. Across hosts the last digits of a
deviation (about 1e-10 at the default step) may differ: they depend on the
LAPACK and BLAS kernels behind ``eigh`` and ``@`` and, for the Gaussian
envelope, on the ``exp`` loop numpy dispatches for the CPU.

:func:`validate_protocol` integrates the whole perfectly blockaded register
at once, with patterns built from the pulse vectors alone, so it shares no
block decomposition with the analytic kernel; :func:`integrate_block` is the
same integration of one block's star pattern.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SopGateError, StepTooLargeError
from .model import Protocol, basis_labels
from .propagator import SubsystemBlock, diagonal_amplitudes

# Not called here: bench/spans.py traces these names in this module.
from .propagator import block_decompose, sequence_amplitude  # noqa: F401

#: Truncation half-width of the Gaussian envelope, in units of sigma.
GAUSSIAN_CUT = 4.0

#: Default time resolution: enough RK4 steps to resolve the fastest Rabi
#: oscillation of the envelope (steps scale with peak_rabi * PULSE_DURATION, i.e.
#: roughly 300 steps per pi of area for a squared-sine pulse and finer for
#: the peakier Gaussian), with a floor of 400 steps per pulse.
STEPS_PER_RADIAN = 64
MIN_STEPS_PER_PULSE = 400

UNITARITY_DRIFT_LIMIT = 1e-6

#: Length of every pulse, in arbitrary time units (resonant dynamics depend
#: on the pulse areas only).
PULSE_DURATION = 1.0

#: Standard deviation of the Gaussian envelope.
_SIGMA = PULSE_DURATION / (2.0 * GAUSSIAN_CUT)

#: Per envelope shape: the time integral of its envelope of unit peak Rabi
#: frequency, and its profile at offsets ``tau`` in [0, PULSE_DURATION].
_ENVELOPES = {
    "squared-sine": (PULSE_DURATION / 2.0, lambda tau: np.sin(np.pi * tau / PULSE_DURATION) ** 2),
    "gaussian": (
        _SIGMA * math.sqrt(2.0 * math.pi) * math.erf(GAUSSIAN_CUT / math.sqrt(2.0)),
        lambda tau: np.exp(-((tau - 0.5 * PULSE_DURATION) ** 2) / (2.0 * _SIGMA**2)),
    ),
}

ENVELOPE_SHAPES = tuple(_ENVELOPES)


@dataclass(frozen=True)
class PulseEnvelope:
    """Temporal profile of one pulse: a shape and a peak Rabi frequency on [0, PULSE_DURATION].

    ``peak_rabi`` carries the sign of the area. Every pulse lasts
    :data:`PULSE_DURATION`, since only the accumulated area enters the
    resonant dynamics. Time is the offset from the pulse start, so a list of
    envelopes is a sequence of pulses, one after the other.
    """

    shape: str
    peak_rabi: float

    def __post_init__(self):
        if self.shape not in ENVELOPE_SHAPES:
            raise SopGateError(f"unknown envelope shape {self.shape!r}")
        if not math.isfinite(self.peak_rabi):
            raise SopGateError(f"envelope peak Rabi frequency {self.peak_rabi} must be finite")

    @property
    def area(self) -> float:
        """Time integral of the Rabi frequency (analytic per shape)."""
        return self.peak_rabi * _ENVELOPES[self.shape][0]

    @classmethod
    def from_area(cls, shape: str, area: float) -> "PulseEnvelope":
        """Choose the peak Rabi frequency so the time integral equals ``area``."""
        return cls(shape=shape, peak_rabi=area / cls(shape, 1.0).area)

    def rabi(self, tau):
        """Rabi frequency at offset ``tau`` from the pulse start, clamped into the window.

        Clamping keeps the (nonzero) edge value of a truncated envelope at an
        offset that float round-off puts just past the window.
        """
        tau = np.clip(np.asarray(tau, dtype=float), 0.0, PULSE_DURATION)
        return self.peak_rabi * _ENVELOPES[self.shape][1](tau)


def envelopes_for_protocol(protocol: Protocol, shape: str = "squared-sine") -> list[PulseEnvelope]:
    """Envelopes realizing a protocol's pulse areas, in pulse order."""
    return [PulseEnvelope.from_area(shape, pulse.area) for pulse in protocol.pulses]


def _pulse_steps(env: PulseEnvelope, dt: float | None) -> int:
    if dt is not None:
        return max(2, int(math.ceil(PULSE_DURATION / dt)))
    by_rate = int(math.ceil(STEPS_PER_RADIAN * abs(env.peak_rabi) * PULSE_DURATION))
    return max(MIN_STEPS_PER_PULSE, by_rate)


def _step_coefficients(env: PulseEnvelope, dt: float | None) -> tuple[np.ndarray, int]:
    """Coefficients of X^0 ... X^4 in the first ceil(n / 2) RK4 steps of one n-step pulse, and n.

    They depend on the envelope only, not on the coupling pattern; the
    second half of the steps mirrors the first (see the module docstring).
    """
    n_steps = _pulse_steps(env, dt)
    n_half = -(-n_steps // 2)
    h = PULSE_DURATION / n_steps
    # Rabi values at the half-step offsets 0, h/2, ..., n_half * h;
    # step i takes entries 2i, 2i + 1 and 2i + 2
    stage_rabi = env.rabi(0.5 * h * np.arange(2 * n_half + 1))
    a, b, c = stage_rabi[0:-1:2], stage_rabi[1::2], stage_rabi[2::2]
    coeffs = np.empty((5, n_half))
    coeffs[0] = 1.0
    # rows 1 and 4 hold a + c and b^2 until the rows that share them are formed
    a_plus_c, b_squared = np.add(a, c, out=coeffs[1]), np.multiply(b, b, out=coeffs[4])
    np.multiply(b_squared, a_plus_c, out=coeffs[3])
    np.add(np.multiply(b, a_plus_c, out=coeffs[2]), b_squared, out=coeffs[2])
    coeffs[1] += 4.0 * b
    coeffs[4] *= a * c
    coeffs[1:] *= np.array([[h / 6.0], [h**2 / 6.0], [h**3 / 12.0], [h**4 / 24.0]])
    return coeffs, n_steps


def _pairwise_product(steps: np.ndarray) -> np.ndarray:
    """Product over axis 0 of ``steps``, shape ``(n, ...)``, taken pairwise in place.

    Each level multiplies the first half of the rows by the last half into
    the first half; with an odd count the middle row waits for the next
    level. The rows are commuting scalars, so the pairing does not change
    the product, only its rounding, which grows with log2(n), not n. No
    second array of the size of ``steps`` is allocated; ``steps`` is
    overwritten and the product is its first row.
    """
    n = len(steps)
    while n > 1:
        half = n // 2
        np.multiply(steps[:half], steps[n - half : n], out=steps[:half])
        n -= half
    return steps[0]


def _eigen_propagators(mu: np.ndarray, basis: np.ndarray, coeffs: np.ndarray, n_steps: int) -> np.ndarray:
    """RK4 propagator of one n-step pulse from the ``eigh`` output of its pattern P, ``(d,)`` and ``(d, d)``.

    ``coeffs`` holds the coefficients of the pulse's first ceil(n / 2)
    steps, shape ``(5, ceil(n / 2))``, as :func:`_step_coefficients` returns
    them. Every step is a polynomial p_i in X = -i P, so the steps commute
    and their product is diagonal in the eigenbasis V of P: V diag(z) V^T.
    At an eigenvalue mu of P step i is the scalar
    p_i(-i mu) = (1 - c2 mu^2 + c4 mu^4) + i (c3 mu^2 - c1) mu, so all these
    steps come from one real product ``coeffs.T @ lift``: ``lift`` holds,
    for each eigenvalue, a real column (1, 0, -mu^2, 0, mu^4) and an
    imaginary column (0, -mu, 0, mu^3, 0) side by side, so the float result
    is the ``(ceil(n / 2), d)`` complex step array. z is the
    :func:`_pairwise_product` of its first n // 2 rows, squared, times the
    middle row if n is odd: the whole pulse's, mirrored as the module
    docstring describes.
    """
    mu2 = mu * mu
    lift = np.zeros((5, mu.size, 2))
    lift[0, :, 0] = 1.0
    lift[1, :, 1] = -mu
    lift[2, :, 0] = -mu2
    lift[3, :, 1] = mu2 * mu
    lift[4, :, 0] = mu2 * mu2
    steps = (coeffs.T @ lift.reshape(5, -1)).view(complex)
    z = _pairwise_product(steps[: n_steps // 2])
    z = z * z * steps[-1] if n_steps % 2 else z * z
    return (basis * z) @ basis.T


def _integrate(patterns: np.ndarray, envelopes, dt: float | None) -> np.ndarray:
    """RK4 propagator of pulses in sequence, one real symmetric pattern each, ``(n_pulses, d, d)``.

    One ``eigh`` call decomposes the whole stack of patterns. For each
    pulse, :func:`_eigen_propagators` forms the whole pulse's factors from
    its first half of steps, and the pulse propagator V diag(z) V^T
    multiplies the propagator so far from the left.

    Raises
    ------
    StepTooLargeError
        If the unitarity drift of the result exceeds 1e-6.
    """
    mus, bases = np.linalg.eigh(patterns)
    u_tot = np.eye(patterns.shape[-1], dtype=complex)
    for mu, basis, env in zip(mus, bases, envelopes):
        u_tot = _eigen_propagators(mu, basis, *_step_coefficients(env, dt)) @ u_tot
    drift = np.abs(u_tot.conj().T @ u_tot - np.eye(len(u_tot))).max()
    if drift > UNITARITY_DRIFT_LIMIT:
        raise StepTooLargeError(
            f"unitarity drift {drift:.2e} exceeds {UNITARITY_DRIFT_LIMIT:.0e}; reduce dt"
        )
    return u_tot


def _register_patterns(protocol: Protocol) -> np.ndarray:
    """Coupling patterns of the whole blockaded register, one per pulse, ``(n_pulses, D, D)``.

    The register holds the 2^n computational states in :func:`basis_labels`
    order, then one singly-excited state r per (state s, |0> qubit q) pair,
    in that order: D = 8 for 2 qubits, 20 for 3. A pulse with vector v sets
    P[s, r] = P[r, s] = -v_q / 2, from the labels, not from any blocks.
    """
    labels = basis_labels(protocol.n_qubits)
    pairs = [(s, q) for s, label in enumerate(labels) for q, bit in enumerate(label) if bit == "0"]
    dim = len(labels) + len(pairs)
    patterns = np.zeros((protocol.n_pulses, dim, dim))
    for r, (s, q) in enumerate(pairs, start=len(labels)):
        patterns[:, s, r] = patterns[:, r, s] = [-0.5 * p.vector.components[q] for p in protocol.pulses]
    return patterns


def integrate_block(block: SubsystemBlock, envelopes, dt: float | None = None) -> np.ndarray:
    """Propagator of one blockade block under explicit pulse envelopes.

    Integrates U' = -i H(t) U through the envelopes, one per pulse and in
    pulse order, with classic RK4 at fixed step (``dt`` overrides the default
    resolution). The stage Rabi values of step ``i`` are those of
    :meth:`PulseEnvelope.rabi` at the offsets ``h * i``, ``h * (i + 0.5)``
    and ``h * (i + 1)``; they are read for the first ceil(n / 2) steps only,
    since the second half mirrors the first.

    Within a pulse H(t) = Omega(t) P, with the block's star pattern P
    coupling the ground level to each Rydberg level by -coupling / 2. With
    X = -i P and stage values a, b, c one RK4 step is exactly the matrix polynomial

        S_i = I + h/6 (a + 4b + c) X + h^2/6 (ab + b^2 + bc) X^2
              + h^3/12 (ab^2 + b^2 c) X^3 + h^4/24 ab^2c X^4.

    These steps commute and S_{n-1-i} = S_i, so their product S_{n-1} ... S_1 S_0
    is (S_{k-1} ... S_0)^2 with k = n // 2, times S_k when n is odd. It is taken in
    the LAPACK ``eigh`` basis of P, where each step is a scalar: one
    ``eigh`` call for the patterns of all pulses, one real matrix product
    for a pulse's first-half step factors and a pairwise product of them
    (see :func:`_integrate`). The result is still the RK4 scheme, not the
    closed-form propagator (it shares no code with
    :func:`~sopgate.propagator.star_propagator`), and it is the one-block
    case of the register integration :func:`validate_protocol` runs.

    Raises
    ------
    StepTooLargeError
        If the accumulated unitarity drift of the result exceeds 1e-6.
    """
    envelopes = list(envelopes)
    n_pulses, n_zero = block.couplings.shape
    if len(envelopes) != n_pulses:
        raise SopGateError(f"{len(envelopes)} envelopes for {n_pulses} pulses")
    patterns = np.zeros((n_pulses, 1 + n_zero, 1 + n_zero))
    patterns[:, 0, 1:] = patterns[:, 1:, 0] = -0.5 * block.couplings
    return _integrate(patterns, envelopes, dt)


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

    The analytical amplitudes come from one :func:`diagonal_amplitudes`
    call. The numerical ones are the first 2^n diagonal entries of one
    propagator of the whole blockaded register (:func:`_register_patterns`),
    integrated as :func:`integrate_block` integrates a block, at the
    default step. The check shares neither the block decomposition nor
    :func:`~sopgate.propagator.star_propagator` with the analytic kernel,
    so a wrong decomposition or a wrong propagator shows as a deviation.
    The all-|1> state is dark to every pulse, but ``eigh`` may mix it with
    other dark states, so its deviation is round-off (of order 1e-16), not
    0 by construction. Deviations above ``tolerance`` are flagged in the
    report, not fatal. They repeat bit for bit on one host; their last
    digits depend on the LAPACK/BLAS kernels and numpy's ``exp`` loop (see
    the module docstring).
    """
    envelopes = envelopes_for_protocol(protocol, shape=shape)
    labels = basis_labels(protocol.n_qubits)
    analytic = diagonal_amplitudes(protocol)
    numeric = np.diagonal(_integrate(_register_patterns(protocol), envelopes, None))
    deviations = {label: float(abs(a - u)) for label, a, u in zip(labels, analytic, numeric)}
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
            "states": list(labels),
        },
    )
