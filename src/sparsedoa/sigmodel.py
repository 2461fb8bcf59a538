"""Narrowband signal model for partially calibrated subarrays.

Directions are normalized as ``theta = sin(angle)`` with half-wavelength
sensor spacing, so a sensor at integer position ``n`` responds to a source
at ``theta`` with phase ``exp(j*pi*n*theta)`` and ``theta`` lives in
``[-1, 1)``.  Each subarray sees the same source waveforms but applies its
own unknown phase offset, which models uncalibrated local oscillators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import TypeIILayout, _as_positions, _integer

__all__ = [
    "SourceSet",
    "Scenario",
    "SnapshotBatch",
    "steering_vector",
    "steering_matrix",
    "exact_covariance",
    "simulate_snapshots",
    "sample_covariance",
    "noise_power_for_snr",
]


def _steering(positions: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``exp(j*pi*position*theta)``: one row per position, one column per direction."""
    return np.exp(1j * np.pi * positions[..., None] * thetas)


def _check_direction_range(thetas) -> np.ndarray:
    th = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    if not np.all((th >= -1.0) & (th <= 1.0)):
        raise ValueError("normalized directions must lie in [-1, 1]")
    return th


@dataclass(frozen=True)
class SourceSet:
    """Far-field sources: strictly increasing directions with positive powers."""

    thetas: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        powers = tuple(float(p) for p in self.powers)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "powers", powers)
        if not thetas:
            raise ValueError("a source set needs at least one source")
        if len(powers) != len(thetas):
            raise ValueError("one power per direction required")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("directions must be strictly increasing (no duplicates)")
        _check_direction_range(thetas)
        if not all(0 < p < np.inf for p in powers):
            raise ValueError("source powers must be positive")

    @classmethod
    def equal_power(cls, thetas, power: float = 1.0) -> "SourceSet":
        thetas = tuple(float(t) for t in thetas)
        return cls(thetas, (float(power),) * len(thetas))

    @property
    def count(self) -> int:
        return len(self.thetas)

    @property
    def theta_array(self) -> np.ndarray:
        return np.asarray(self.thetas, dtype=np.float64)

    @property
    def power_array(self) -> np.ndarray:
        return np.asarray(self.powers, dtype=np.float64)


def steering_vector(positions, theta: float) -> np.ndarray:
    """Steering vector ``exp(j*pi*position*theta)`` at the given positions.

    Accepts an :class:`ArrayGeometry` or a raw position sequence, so the same
    routine serves physical sensors and virtual (coarray) positions.
    """
    pos = _as_positions(positions, np.float64)
    th = _check_direction_range(theta)
    if th.size != 1:
        raise ValueError("steering_vector takes a single direction")
    return _steering(pos, th.ravel())[:, 0]


def steering_matrix(positions, directions) -> np.ndarray:
    """Stack steering vectors column-wise, one per source direction.

    Args:
        positions: :class:`ArrayGeometry`, sequence of positions, or a stack
            of position rows, which gives the stack of their matrices.
        directions: :class:`SourceSet` or sequence of directions; column
            order follows the input order.
    """
    thetas = directions.thetas if isinstance(directions, SourceSet) else tuple(
        float(t) for t in directions
    )
    if not thetas:
        raise ValueError("at least one source direction is required")
    if len(set(thetas)) != len(thetas):
        raise ValueError("duplicate source directions")
    return _steering(_as_positions(positions, np.float64), _check_direction_range(thetas))


def exact_covariance(positions, sources: SourceSet, noise_power: float) -> np.ndarray:
    """Ensemble covariance ``A diag(p) A^H + noise_power * I`` (a stack for stacked positions)."""
    if not 0 <= noise_power < np.inf:
        raise ValueError("noise power must be non-negative")
    a = steering_matrix(positions, sources)
    r = (a * sources.power_array) @ a.conj().swapaxes(-1, -2) + noise_power * np.eye(a.shape[-2])
    return (r + r.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class Scenario:
    """One simulation setting: layout, sources, noise level, snapshot count."""

    layout: TypeIILayout
    sources: SourceSet
    noise_power: float
    snapshots: int
    seed: int | None = None

    def __post_init__(self):
        if not 0 <= self.noise_power < np.inf:
            raise ValueError("noise power must be non-negative")
        object.__setattr__(self, "snapshots", _integer("snapshots", self.snapshots))
        if self.snapshots < 1:
            raise ValueError("need at least one snapshot")

    @cached_property
    def steering(self) -> np.ndarray:
        """The ``(L, n_sensors, D)`` subarray steering stack, built once per scenario."""
        positions = np.add.outer(self.layout.offsets, self.layout.base.positions)
        steering = _steering(positions, self.sources.theta_array)
        steering.setflags(write=False)
        return steering


@dataclass(frozen=True)
class SnapshotBatch:
    """Simulated data: an ``(L, n_sensors, snapshots)`` stack (``(B, L, ...)`` for a block)."""

    matrices: np.ndarray
    phase_shifts: np.ndarray


def simulate_snapshots(
    scenario: Scenario | list[Scenario],
    rng=None,
    phases=None,
    pin_reference_phase: bool = False,
) -> SnapshotBatch:
    """Draw one batch of snapshots for every subarray of the scenario, or a block of batches.

    The source waveforms are shared across subarrays at each snapshot; noise
    is drawn independently per subarray.  Each subarray's data is rotated by
    its own phase offset ``exp(-j*phi_l)``; the offsets are drawn uniformly
    from [0, 2*pi) per batch unless ``phases`` pins them.  Rotating the whole
    observation (noise included) leaves the noise statistics unchanged, since
    circular Gaussian noise is rotation invariant, and makes every covariance
    computed downstream independent of the offsets.

    A block of B scenarios, which may differ only in noise power, runs just the
    random draws per scenario and the rest once: its ``(B, L, n_sensors,
    snapshots)`` matrices and ``(B, L)`` phase shifts are B one-scenario calls'.

    Args:
        scenario: what to simulate, or the scenarios of a block.
        rng: generator to consume, or a ``SeedSequence`` that spawns as ``default_rng``
            of it would; one per scenario for a block.  Defaults to the scenario's seed.
            Signal, noise, and phase draws come from independent child
            streams spawned off this generator, so pinning ``phases`` never
            shifts the signal or noise realizations.  The signal stream yields
            the real then the imaginary waveform block, the noise stream the
            real then the imaginary noise block of each subarray in turn.
        phases: optional per-subarray phase offsets overriding the draw.
        pin_reference_phase: zero the first subarray's drawn offset, for
            experiments that treat subarray 0 as the calibration reference.
    """
    if isinstance(scenario, Scenario):
        batch = simulate_snapshots([scenario], [rng], phases, pin_reference_phase)
        return SnapshotBatch(batch.matrices[0], batch.phase_shifts[0])
    scenarios = list(scenario)
    if len({(s.layout, s.sources, s.snapshots) for s in scenarios}) != 1:
        raise ValueError("a block needs scenarios that differ at most in noise power")
    first = scenarios[0]
    n_sub, n_sensors, n_sources = first.steering.shape
    phases = None if phases is None else np.asarray(phases, dtype=np.float64)
    if phases is not None and phases.shape != (n_sub,):
        raise ValueError(f"expected {n_sub} phase offsets, got shape {phases.shape}")
    signal = np.empty((len(scenarios), 2, n_sources, first.snapshots))
    noise = np.empty((len(scenarios), n_sub, 2, n_sensors, first.snapshots))
    offsets = np.empty((len(scenarios), n_sub))
    for row, (s, r) in enumerate(zip(scenarios, rng, strict=True)):
        if isinstance(r, np.random.SeedSequence):  # as default_rng(r).spawn(3) would
            signal_rng, noise_rng, phase_rng = map(np.random.default_rng, r.spawn(3))
        else:
            signal_rng, noise_rng, phase_rng = (r or np.random.default_rng(s.seed)).spawn(3)
        signal_rng.standard_normal(out=signal[row])
        noise_rng.standard_normal(out=noise[row])
        offsets[row] = phase_rng.uniform(0.0, 2.0 * np.pi, n_sub) if phases is None else phases
    if phases is None and pin_reference_phase:
        offsets[:, 0] = 0.0
    amplitudes = np.sqrt(first.sources.power_array)[:, None]
    waveforms = np.sqrt(0.5) * (signal[:, 0] + 1j * signal[:, 1]) * amplitudes
    noise *= np.sqrt(np.array([s.noise_power for s in scenarios]) / 2.0)[:, None, None, None, None]
    # In place, in the order of ``rotations * (steering @ waveforms + noise)``.
    matrices = first.steering @ waveforms[:, None]
    matrices.real += noise[:, :, 0]
    matrices.imag += noise[:, :, 1]
    np.multiply(np.exp(-1j * offsets)[..., None, None], matrices, out=matrices)
    return SnapshotBatch(matrices, offsets)


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Biased sample covariance ``X X^H / T`` of each matrix of a ``(..., N, T)`` stack.

    The product is re-symmetrized so the result is exactly Hermitian; raw
    matrix products differ between mirrored entries by rounding noise.
    """
    x = np.asarray(snapshots)
    if x.ndim < 2 or x.shape[-1] < 1:
        raise ValueError("snapshots must be at least 2-D with at least one snapshot")
    r = x @ x.conj().swapaxes(-1, -2) / x.shape[-1]
    return (r + r.conj().swapaxes(-1, -2)) / 2.0


def noise_power_for_snr(snr_db: float, signal_power: float = 1.0) -> float:
    """Noise power giving the requested per-source SNR in dB; ValueError unless finite."""
    try:
        power = float(signal_power) * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        power = np.inf
    if np.isfinite(power):
        return power
    raise ValueError(f"SNR {snr_db:g} dB at signal power {signal_power:g}: no finite noise power")
