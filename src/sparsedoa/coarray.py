"""Coarray-domain processing: lag extraction, spatial smoothing, subspaces.

A sensor covariance carries one measurement per sensor pair; indexing those
measurements by the pair's position difference turns an N-sensor covariance
into a single virtual snapshot on the difference coarray.  Forward spatial
smoothing over the contiguous center of that coarray then rebuilds a full
rank covariance whose signal subspace matches a virtual uniform array of
``M = contiguous_half + 1`` sensors at positions ``0..M-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCoarrayError, TooManySourcesError
from .geometry import ArrayGeometry

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
    """Virtual snapshot on the difference coarray, one value per distinct lag."""

    lags: tuple[int, ...]
    values: np.ndarray
    dedup_rule: str

    @property
    def sdof(self) -> int:
        return len(self.lags)

    @cached_property
    def contiguous_half(self) -> int:
        lag_set = set(self.lags)
        c = 0
        while (c + 1) in lag_set and -(c + 1) in lag_set:
            c += 1
        return c

    def value_at(self, lag: int) -> complex:
        return complex(self.values[self.lags.index(int(lag))])

    def central_values(self) -> np.ndarray:
        """Values on the contiguous center, lags ascending from -c to c."""
        c = self.contiguous_half
        start = self.lags.index(-c)
        return self.values[start : start + 2 * c + 1]


def covariance_to_coarray(covariance, geometry, rule: str = "average") -> CoarraySignal:
    """Map covariance entries onto difference-coarray lags.

    Entry ``R[m, n]`` measures the lag ``position[m] - position[n]``.  Lags
    realized by several sensor pairs are deduplicated either by averaging
    all their entries (``rule="average"``, the default, which lowers the
    variance of sample estimates) or by keeping the first entry in the
    column-major vectorization order of R (``rule="first"``).

    Args:
        covariance: Hermitian ``N x N`` matrix (exact or sample).
        geometry: :class:`ArrayGeometry` or position sequence of length N.
        rule: ``"average"`` or ``"first"``.

    Returns:
        :class:`CoarraySignal` with lags sorted ascending.
    """
    if rule not in ("average", "first"):
        raise ValueError(f"unknown dedup rule {rule!r}")
    pos = (
        geometry.position_array()
        if isinstance(geometry, ArrayGeometry)
        else np.asarray(list(geometry), dtype=np.int64)
    )
    r = np.asarray(covariance)
    n = pos.size
    if r.shape != (n, n):
        raise ValueError(f"covariance shape {r.shape} does not match {n} positions")

    lag_of_pair = (pos[:, None] - pos[None, :]).ravel(order="F")
    vec = r.ravel(order="F")
    lags, first_index, inverse, counts = np.unique(
        lag_of_pair, return_index=True, return_inverse=True, return_counts=True
    )
    if rule == "first":
        values = vec[first_index]
    else:
        values = (
            np.bincount(inverse, weights=vec.real)
            + 1j * np.bincount(inverse, weights=vec.imag)
        ) / counts
    return CoarraySignal(tuple(int(l) for l in lags), values, rule)


@dataclass(frozen=True)
class SmoothedCovariance:
    """Spatially smoothed coarray covariance on the virtual array 0..window-1."""

    matrix: np.ndarray
    window: int
    subarray_index: int | None = None


def spatial_smooth(signal: CoarraySignal, subarray_index: int | None = None) -> SmoothedCovariance:
    """Forward spatial smoothing over the contiguous coarray center.

    With contiguous half-width c and window length ``M = c + 1``, window
    ``i`` (1-based) collects the lags ``{c-i+1-(M-1), ..., c-i+1}`` in
    ascending order onto virtual positions ``0..M-1``; window 1 therefore
    ends at the maximum contiguous lag and window M at lag 0.  The smoothed
    matrix is the average of the M window outer products, which is Hermitian
    positive semidefinite and, for exact statistics, equals
    ``(1/M) * (A_v diag(p) A_v^H + noise_power * I)^2`` on the virtual array.

    Raises:
        DegenerateCoarrayError: if the contiguous center is a single lag.
    """
    c = signal.contiguous_half
    if c < 1:
        raise DegenerateCoarrayError(
            "spatial smoothing needs a contiguous coarray segment beyond lag 0"
        )
    m = c + 1
    center = signal.central_values()  # lags -c..c ascending, length 2m-1
    windows = np.column_stack([center[m - i : 2 * m - i] for i in range(1, m + 1)])
    smoothed = windows @ windows.conj().T / m
    smoothed = (smoothed + smoothed.conj().T) / 2.0
    return SmoothedCovariance(smoothed, m, subarray_index)


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Eigendecomposition split into signal and noise subspaces.

    Eigenvalues are sorted descending; each eigenvector's first component of
    non-negligible magnitude is rotated to be real positive, which fixes the
    otherwise arbitrary phase and makes decompositions reproducible.
    """

    signal_basis: np.ndarray
    noise_basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dimension(self) -> int:
        return self.signal_basis.shape[0]

    @property
    def n_sources(self) -> int:
        return self.signal_basis.shape[1]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix from its eigenpairs."""
        basis = np.hstack([self.signal_basis, self.noise_basis])
        return (basis * self.eigenvalues) @ basis.conj().T


def _fix_vector_phases(vectors: np.ndarray) -> np.ndarray:
    magnitudes = np.abs(vectors)
    anchors = np.argmax(magnitudes > 1e-12 * magnitudes.max(axis=0), axis=0)
    columns = np.arange(vectors.shape[1])
    phases = vectors[anchors, columns] / magnitudes[anchors, columns]
    return vectors * np.conj(phases)


def signal_subspace(covariance, n_sources: int) -> SubspaceDecomposition:
    """Split a Hermitian covariance into signal and noise subspaces.

    Args:
        covariance: :class:`SmoothedCovariance` or a plain Hermitian matrix
            (the latter serves physical-domain processing).
        n_sources: number of sources D; must satisfy ``D <= dim - 1`` so a
            noise subspace remains.

    Raises:
        TooManySourcesError: if ``n_sources >= dim``.
    """
    matrix = (
        covariance.matrix
        if isinstance(covariance, SmoothedCovariance)
        else np.asarray(covariance)
    )
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise ValueError("covariance must be square")
    if n_sources < 1:
        raise ValueError("need at least one source")
    if n_sources >= dim:
        raise TooManySourcesError(
            f"{n_sources} sources exceed the {dim - 1}-source limit of a "
            f"{dim}-dimensional covariance"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = _fix_vector_phases(eigenvectors[:, ::-1])
    return SubspaceDecomposition(
        signal_basis=eigenvectors[:, :n_sources],
        noise_basis=eigenvectors[:, n_sources:],
        eigenvalues=eigenvalues,
    )
