"""Coarray-domain processing: lag extraction, spatial smoothing, subspaces.

A sensor covariance carries one measurement per sensor pair; indexing those
measurements by the pair's position difference turns an N-sensor covariance
into a single virtual snapshot on the difference coarray.  Forward spatial
smoothing over the contiguous center of that coarray then rebuilds a full
rank covariance whose signal subspace matches a virtual uniform array of
``M = contiguous_half + 1`` sensors at positions ``0..M-1``.  That matrix is
``R_v R_v^H / M`` for the Hermitian Toeplitz matrix ``R_v`` of the central
lag values (Liu & Vaidyanathan, IEEE SPL 2015), so the subspaces come from
``R_v`` itself, in real arithmetic since ``R_v`` is centro-Hermitian (Huarng &
Yeh, IEEE TSP 1991), and the smoothed matrix is derived only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateCoarrayError, TooManySourcesError
from .geometry import _as_positions, _contiguous_half, _lag_plan

__all__ = [
    "CoarraySignal",
    "SmoothedCovariance",
    "SubspaceDecomposition",
    "covariance_to_coarray",
    "spatial_smooth",
    "signal_subspace",
]


@dataclass(frozen=True)
class CoarraySignal:
    """Virtual snapshot on the difference coarray, one value per distinct lag (last axis)."""

    lags: tuple[int, ...]
    values: np.ndarray

    @cached_property
    def contiguous_half(self) -> int:
        return _contiguous_half(set(self.lags))

    def value_at(self, lag: int) -> complex | np.ndarray:
        """The value at ``lag``: a scalar, or an array of one per signal of a stack."""
        return self.values[..., self.lags.index(int(lag))]

    def central_values(self) -> np.ndarray:
        """Values on the contiguous center, lags ascending from -c to c."""
        c = self.contiguous_half
        start = self.lags.index(-c)
        return self.values[..., start : start + 2 * c + 1]


def covariance_to_coarray(covariance, geometry, rule: str = "average") -> CoarraySignal:
    """Map covariance entries onto difference-coarray lags.

    Entry ``R[m, n]`` measures the lag ``position[m] - position[n]``.  Lags
    realized by several sensor pairs are deduplicated either by averaging
    all their entries (``rule="average"``, the default, which lowers the
    variance of sample estimates) or by keeping the first entry in the
    column-major vectorization order of R (``rule="first"``).

    Args:
        covariance: Hermitian ``N x N`` matrix (exact or sample), or a stack ``(..., N, N)``.
        geometry: :class:`ArrayGeometry` or position sequence of length N.
        rule: ``"average"`` or ``"first"``.

    Returns:
        :class:`CoarraySignal` with lags sorted ascending and ``(..., K)`` values.
    """
    if rule not in ("average", "first"):
        raise ValueError(f"unknown dedup rule {rule!r}")
    pos = _as_positions(geometry)
    r = np.asarray(covariance)
    n = pos.size
    if r.ndim < 2 or r.shape[-2:] != (n, n):
        raise ValueError(f"covariance shape {r.shape} does not match {n} positions")

    plan = _lag_plan(tuple(pos.tolist()))
    vec = r.swapaxes(-1, -2).reshape(*r.shape[:-2], n * n)  # each matrix column-major
    if rule == "first":
        values = vec[..., plan.first]
    else:
        # Matrix j's lags go to bins j*K..j*K+K-1; each bin sums in column-major order.
        k = len(plan.lags)
        bins = (plan.inverse + k * np.arange(vec.size // (n * n))[:, None]).ravel()
        values = (
            np.bincount(bins, weights=vec.real.ravel())
            + 1j * np.bincount(bins, weights=vec.imag.ravel())
        ).reshape(*r.shape[:-2], k) / plan.counts
    return CoarraySignal(plan.lags, values)


@dataclass(frozen=True)
class SmoothedCovariance:
    """Smoothed covariance ``root root^H / window`` on virtual positions 0..window-1."""

    root: np.ndarray

    @property
    def window(self) -> int:
        return self.root.shape[-1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The smoothed matrix (read-only), built from ``root`` on first use."""
        smoothed = self.root @ self.root.conj().swapaxes(-1, -2) / self.window
        smoothed = (smoothed + smoothed.conj().swapaxes(-1, -2)) / 2.0
        smoothed.setflags(write=False)
        return smoothed


def _smoothing_window(contiguous_half: int) -> int:
    """The virtual array size ``M = c + 1`` that smoothing over a contiguous half ``c`` yields."""
    if contiguous_half < 1:
        raise DegenerateCoarrayError(
            "spatial smoothing needs a contiguous coarray segment beyond lag 0"
        )
    return contiguous_half + 1


def spatial_smooth(signal: CoarraySignal) -> SmoothedCovariance:
    """Forward spatial smoothing over the contiguous coarray center.

    With contiguous half-width c and window length ``M = c + 1``, window
    ``i`` (1-based) collects the lags ``{c-i+1-(M-1), ..., c-i+1}`` in
    ascending order onto virtual positions ``0..M-1``; window 1 therefore
    ends at the maximum contiguous lag and window M at lag 0.  The smoothed
    matrix is the average of the M window outer products, which is Hermitian
    positive semidefinite and, for exact statistics, equals
    ``(1/M) * (A_v diag(p) A_v^H + noise_power * I)^2`` on the virtual array.
    The windows are the columns of ``R_v[i, k] = v(i - k)``, the only matrix built.

    Raises:
        DegenerateCoarrayError: if the contiguous center is a single lag.
    """
    c = _smoothing_window(signal.contiguous_half) - 1
    i = np.arange(c + 1)
    root = signal.central_values()[..., i[:, None] - i[None, :] + c]
    return SmoothedCovariance(root)


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Eigendecomposition split into signal and noise subspaces.

    Eigenvalues are sorted descending.  Eigenvectors keep the phase that ``eigh``
    (or, for a smoothed covariance, the unitary map of its real eigenvectors) gives
    them, since only ``U U^H`` enters a spectrum; the phase convention of
    :func:`_fix_vector_phases` lives in the ``run --dump-intermediates`` dump.
    """

    signal_basis: np.ndarray
    noise_basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dimension(self) -> int:
        return self.signal_basis.shape[-2]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix from its eigenpairs."""
        basis = np.concatenate([self.signal_basis, self.noise_basis], axis=-1)
        return (basis * self.eigenvalues[..., None, :]) @ basis.conj().swapaxes(-1, -2)


def _fix_vector_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's first non-negligible entry real positive, on a (..., n, D) stack."""
    magnitudes = np.abs(vectors)
    anchors = np.argmax(magnitudes > 1e-12 * magnitudes.max(-2, keepdims=True), -2)[..., None, :]
    phases = np.take_along_axis(vectors, anchors, -2) / np.take_along_axis(magnitudes, anchors, -2)
    return vectors * np.conj(phases)


def _check_sources(n_sources: int, dim: int) -> None:
    """Raise unless ``1 <= n_sources < dim``: a decomposition must keep a noise subspace."""
    if n_sources < 1:
        raise ValueError("need at least one source")
    if n_sources >= dim:
        raise TooManySourcesError(
            f"{n_sources} sources exceed the {dim - 1}-source limit of a "
            f"{dim}-dimensional covariance"
        )


def _unitary_map(vectors: np.ndarray) -> np.ndarray:
    """``Q @ vectors`` for :func:`_real_form_plan`'s Q: mirrored rows, no complex product."""
    m = vectors.shape[-2] // 2
    a, b = np.sqrt(0.5) * vectors[..., :m, :], np.sqrt(0.5) * vectors[..., -m:, :]
    return np.concatenate([a + 1j * b, vectors[..., m:-m, :], (a - 1j * b)[..., ::-1, :]], axis=-2)


@lru_cache(maxsize=None)
def _real_form_plan(size: int):
    """Per entry of the real ``Q^H T Q``, for the Hermitian Toeplitz ``T`` of first column
    ``t``, the indices into ``[Re t, Im t]`` and the weights of its (at most two) terms.
    ``Q``'s columns: the m = size // 2 sums ``(e_i + e_{size-1-i}) / sqrt 2``, ``e_m`` if
    size is odd, then the m differences ``j (e_i - e_{size-1-i}) / sqrt 2``."""
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    ones = np.abs(lag) == np.arange(size)[:, None, None]
    basis = np.concatenate([ones, 1j * np.sign(lag) * ones])
    q = _unitary_map(np.eye(size))
    weights = (q.conj().T @ basis @ q).real
    index = np.argsort(-np.abs(weights), axis=0, kind="stable")[:2]
    return index, np.take_along_axis(weights, index, 0)


def signal_subspace(covariance, n_sources: int) -> SubspaceDecomposition:
    """Split a Hermitian covariance, or each of a stack of them, into signal and noise subspaces.

    A :class:`SmoothedCovariance` is decomposed through the Hermitian Toeplitz
    lower triangle of ``R_v``, as the real ``Re(Q^H R_v Q)``: its eigenpairs ranked
    by ``|lambda|`` are the smoothed matrix's, with eigenvalues ``lambda^2 / window``.

    Args:
        covariance: :class:`SmoothedCovariance` or a plain Hermitian matrix
            (the latter serves physical-domain processing), either stacked.
        n_sources: number of sources D; must satisfy ``D <= dim - 1`` so a
            noise subspace remains.

    Raises:
        TooManySourcesError: if ``n_sources >= dim``.
    """
    smoothed = isinstance(covariance, SmoothedCovariance)
    matrix = covariance.root if smoothed else np.asarray(covariance)
    dim = matrix.shape[-1]
    if matrix.ndim < 2 or matrix.shape[-2] != dim:
        raise ValueError("covariance must be square")
    _check_sources(n_sources, dim)
    if smoothed:
        index, weights = _real_form_plan(dim)  # lags 0..c: the lower triangle eigh reads
        t = np.concatenate([matrix[..., :, 0].real, matrix[..., :, 0].imag], axis=-1)
        eigenvalues, eigenvectors = np.linalg.eigh((t[..., index] * weights).sum(-3))
        order = np.argsort(-np.abs(eigenvalues), axis=-1, kind="stable")
        eigenvalues = np.take_along_axis(eigenvalues, order, -1) ** 2 / covariance.window
        eigenvectors = _unitary_map(np.take_along_axis(eigenvectors, order[..., None, :], -1))
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        eigenvalues, eigenvectors = eigenvalues[..., ::-1], eigenvectors[..., ::-1]
    return SubspaceDecomposition(
        signal_basis=eigenvectors[..., :n_sources],
        noise_basis=eigenvectors[..., n_sources:],
        eigenvalues=eigenvalues,
    )
