"""Coarray-domain processing: lag extraction, spatial smoothing, subspaces.

A sensor covariance carries one measurement per sensor pair; indexing those
measurements by the pair's position difference turns an N-sensor covariance
into a single virtual snapshot on the difference coarray.  Forward spatial
smoothing over the contiguous center of that coarray then rebuilds a full
rank covariance whose signal subspace matches a virtual uniform array of
``M = contiguous_half + 1`` sensors at positions ``0..M-1``.  That matrix is
``R_v R_v^H / M`` for the Hermitian Toeplitz matrix ``R_v`` of the central
lag values (Liu & Vaidyanathan, IEEE SPL 2015), so the subspaces come from
``R_v`` itself and the smoothed matrix is derived only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @property
    def sdof(self) -> int:
        return len(self.lags)

    @cached_property
    def contiguous_half(self) -> int:
        return _contiguous_half(set(self.lags))

    def value_at(self, lag: int) -> complex:
        return complex(self.values[self.lags.index(int(lag))])

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

    Eigenvalues are sorted descending.  Eigenvectors keep the phase ``eigh``
    gives them, since only ``U U^H`` enters a spectrum; the phase convention
    of :func:`_fix_vector_phases` lives in the ``run --dump-intermediates`` dump.
    """

    signal_basis: np.ndarray
    noise_basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dimension(self) -> int:
        return self.signal_basis.shape[-2]

    @property
    def n_sources(self) -> int:
        return self.signal_basis.shape[-1]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix from its eigenpairs."""
        basis = np.concatenate([self.signal_basis, self.noise_basis], axis=-1)
        return (basis * self.eigenvalues[..., None, :]) @ basis.conj().swapaxes(-1, -2)


def _fix_vector_phases(vectors: np.ndarray) -> np.ndarray:
    magnitudes = np.abs(vectors)
    anchors = np.argmax(magnitudes > 1e-12 * magnitudes.max(axis=0), axis=0)
    columns = np.arange(vectors.shape[1])
    phases = vectors[anchors, columns] / magnitudes[anchors, columns]
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


def signal_subspace(covariance, n_sources: int) -> SubspaceDecomposition:
    """Split a Hermitian covariance, or each of a stack of them, into signal and noise subspaces.

    A :class:`SmoothedCovariance` is decomposed through ``R_v``: its eigenpairs
    ranked by ``|lambda|`` are the smoothed matrix's, with eigenvalues ``lambda^2 / window``.

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
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if smoothed:
        order = np.argsort(-np.abs(eigenvalues), axis=-1, kind="stable")
        eigenvalues = np.take_along_axis(eigenvalues, order, -1) ** 2 / covariance.window
        eigenvectors = np.take_along_axis(eigenvectors, order[..., None, :], -1)
    else:
        eigenvalues, eigenvectors = eigenvalues[..., ::-1], eigenvectors[..., ::-1]
    return SubspaceDecomposition(
        signal_basis=eigenvectors[..., :n_sources],
        noise_basis=eigenvectors[..., n_sources:],
        eigenvalues=eigenvalues,
    )
