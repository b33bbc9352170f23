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

The steps are stored entries first, as a ``(d, d, blocks, n_steps)`` array
with step i of block j at ``[:, :, j, i]`` (built in runs of at most
:data:`_STEP_RUN` steps, with the same bits), and each level of the tree
multiplies its pairs entry-wise: a loop over k of d elementwise products
across all pairs of all blocks. The matrices are 1x1 to 4x4, so a stacked
``@`` would make one BLAS call per pair, and that call costs more than the
pair's arithmetic.

The step coefficients depend on the envelope only: they are computed once
per pulse and shared by every block. :func:`validate_protocol` stacks the
blocks of one dimension and runs one tree per pulse and block size;
:func:`integrate_block` is the same integration of a stack of one block.
The factors multiply in the same order either way, so both give the same
bits.
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
    """Products ``a[:, :, ...] @ b[:, :, ...]`` of two ``(d, d, ...)`` stacks, as a k-loop.

    Row k of every right factor scales column k of the matching left factor,
    all pairs at once, so a tiny matrix never goes to BLAS on its own.
    """
    out = a[:, :1] * b[None, 0]
    for k in range(1, a.shape[0]):
        out += a[:, k : k + 1] * b[None, k]
    return out


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """Ordered product ``S_{n-1} @ ... @ S_1 @ S_0`` of ``S_i = steps[:, :, ..., i]``.

    Pairwise reduction on the last axis: each level multiplies adjacent
    pairs, the later factor on the left; an unpaired last factor moves along
    to the next level. Axes between the matrix axes and the step axis are
    independent stacks.
    """
    while steps.shape[-1] > 1:
        n = steps.shape[-1]
        pairs = _entry_product(steps[..., 1::2], steps[..., 0 : n - 1 : 2])
        steps = np.concatenate((pairs, steps[..., n - 1 :]), axis=-1) if n % 2 else pairs
    return steps[..., 0]


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
    coeffs = np.empty((5, n_steps), dtype=complex)
    coeffs[0] = 1.0
    coeffs[1] = h / 6.0 * (a + 4.0 * b + c)
    coeffs[2] = h**2 / 6.0 * (a * b + b * b + b * c)
    coeffs[3] = h**3 / 12.0 * (a * b * b + b * b * c)
    coeffs[4] = h**4 / 24.0 * a * b * b * c
    return coeffs


#: Most steps of a pulse built as one array, a power of two. Each whole run
#: of this many steps reduces to the factor that the first log2(_STEP_RUN)
#: levels of the pulse's tree form from it, and a last, shorter run to the
#: factor those levels carry on; reducing the runs' products finishes the
#: same tree with the same bits, while a stack's step array stays under 2 MB
#: (three 3x3 blocks).
_STEP_RUN = 4096


def _pulse_propagators(couplings: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """RK4 propagators of one pulse for a stack of blocks of one dimension, ``(blocks, d, d)``.

    ``couplings`` holds the pulse's couplings of each block, shape
    ``(blocks, d - 1)``, and ``coeffs`` its :func:`_step_coefficients`.
    """
    n_blocks, dim = couplings.shape[0], 1 + couplings.shape[1]
    # X = -i P for the pattern P that couples ground and Rydberg levels by -coupling / 2
    x_mat = np.zeros((n_blocks, dim, dim), dtype=complex)
    x_mat[:, 0, 1:] = 0.5j * couplings
    x_mat[:, 1:, 0] = 0.5j * couplings
    # powers[p] = X^p of every block, entries first as (d, d, blocks), p = 0..4
    powers = np.empty((5, dim, dim, n_blocks), dtype=complex)
    power = np.repeat(np.eye(dim, dtype=complex)[None], n_blocks, axis=0)
    for p in range(5):
        powers[p] = power.transpose(1, 2, 0)
        power = x_mat @ power
    powers = powers.reshape(5, -1).T
    # steps[:, :, j, i] is step i of block j
    runs = [
        _ordered_product((powers @ coeffs[:, i : i + _STEP_RUN]).reshape(dim, dim, n_blocks, -1))
        for i in range(0, coeffs.shape[1], _STEP_RUN)
    ]
    # one contiguous d x d matrix per block, so that each later @ is the one-block @
    return np.ascontiguousarray(_ordered_product(np.stack(runs, axis=-1)).transpose(2, 0, 1))


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

    The steps of a pulse are built entries first, S_i at ``[:, :, 0, i]``
    of a ``(d, d, 1, n_steps)`` array (in runs of :data:`_STEP_RUN` steps),
    and multiplied in their order, S_{n-1} ... S_1 S_0, by a pairwise tree
    reduction whose pairs are multiplied entry-wise across the whole level;
    one BLAS call per d x d pair would cost more than its arithmetic. This
    is the RK4 scheme itself, not the closed-form propagator: X is never
    diagonalized and the order of the factors is kept. It is the one-block
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
    are computed once for every block, and the blocks of one dimension share
    one ``(d, d, blocks, n_steps)`` step array and one product tree per
    pulse, with the factors in the same order. Deviations above
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
