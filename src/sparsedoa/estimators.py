"""MUSIC-style direction estimators for partially calibrated subarrays.

All estimators score candidate directions on a uniform grid over [-1, 1) by
how close a steering vector comes to the span of per-subarray signal
subspaces, then read off the largest spectrum peaks.

One residual kernel serves them all: the projection deficit
``|a|^2 - |U^H a|^2`` of the steering vector ``a`` at integer positions ``p``
against a subarray's signal basis ``U``.  It is evaluated in the lag
domain.  With ``P = U U^H`` and ``c_k`` the sum of the entries ``P[j, i]``
whose positions differ by ``p_j - p_i = k > 0``, the deficit is the real
trigonometric polynomial ``len(p) - tr P - sum_k 2 (Re c_k cos(pi k theta)
+ Im c_k sin(pi k theta))``, so one real product of the coefficients with a
cached cosine/sine table scores every subarray on the whole grid.  These
are the Laurent coefficients in ``z = exp(j pi theta)`` that root-MUSIC
would root.  Two rules merge the per-subarray deficits.  The merged
rule takes the reciprocal of their sum, which is ``1 / (b^H (I - P) b)`` for
the stacked steering vector ``b`` and the block-diagonal projector ``P`` of
:class:`MergedProjector`.  The averaged rule takes the mean of their
reciprocals.

``gca_music`` applies the merged rule in the coarray domain, so a direction
scores high only where every subarray's smoothed covariance agrees.
``avca_music`` applies the averaged rule to the same virtual steering
vectors.  ``g_music`` applies the merged rule to the physical sensor
covariances with physical steering vectors, which caps it at
``n_sensors - 1`` sources per subarray.  A subarray's offset only multiplies
its steering vector by a unit phase, which cancels in ``|U^H a|^2``, so
``g_music`` scores every subarray on the base positions.  ``gca_spectrum``
and ``avca_spectrum`` evaluate the two coarray rules at arbitrary
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coarray import signal_subspace
from .errors import TooManySourcesError
from .geometry import TypeIILayout, _lag_plan

__all__ = [
    "SpectrumGrid",
    "DoaEstimate",
    "MergedProjector",
    "gca_music",
    "g_music",
    "avca_music",
    "gca_spectrum",
    "avca_spectrum",
    "find_peaks",
    "grid_thetas",
    "DENOMINATOR_FLOOR",
]

#: Denominators are clamped here before inversion so exact nulls stay finite.
DENOMINATOR_FLOOR = 1e-30


@dataclass(frozen=True)
class SpectrumGrid:
    """Spectrum values over a direction grid."""

    thetas: np.ndarray
    values: np.ndarray

    @property
    def size(self) -> int:
        return self.thetas.size


@dataclass(frozen=True)
class DoaEstimate:
    """Estimated directions, ascending, with peak diagnostics."""

    thetas: np.ndarray
    peak_values: np.ndarray
    degraded: bool = False


@dataclass(frozen=True)
class MergedProjector:
    """Block-diagonal signal-subspace projector over all subarrays."""

    bases: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return sum(b.shape[0] for b in self.bases)

    @property
    def rank(self) -> int:
        return sum(b.shape[1] for b in self.bases)

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        row = 0
        for basis in self.bases:
            size = basis.shape[0]
            out[row : row + size, row : row + size] = basis @ basis.conj().T
            row += size
        return out

    def complement(self) -> np.ndarray:
        return np.eye(self.dim) - self.matrix()

    def complement_form(self, stacked: np.ndarray) -> float:
        """Quadratic form ``b^H (I - P) b`` computed block by block."""
        blocks = np.split(stacked, np.cumsum([u.shape[0] for u in self.bases])[:-1])
        deficits = [
            np.vdot(b, b).real - np.sum(np.abs(u.conj().T @ b) ** 2)
            for u, b in zip(self.bases, blocks)
        ]
        return float(sum(deficits))


def grid_thetas(grid_size: int) -> np.ndarray:
    """Uniform direction grid: ``grid_size`` points covering [-1, 1)."""
    if grid_size < 3:
        raise ValueError("grid needs at least 3 points for peak finding")
    return -1.0 + (2.0 / grid_size) * np.arange(grid_size)


def _trig_table(max_lag: int, thetas: np.ndarray) -> np.ndarray:
    """Rows ``cos(pi k theta)`` for k = 1..max_lag, then ``sin(pi k theta)``."""
    phase = np.pi * np.arange(1, max_lag + 1, dtype=np.float64)[:, None] * thetas[None, :]
    return np.concatenate([np.cos(phase), np.sin(phase)])


@lru_cache(maxsize=64)
def _cached_table(max_lag: int, grid_size: int) -> np.ndarray:
    table = _trig_table(max_lag, grid_thetas(grid_size))
    table.setflags(write=False)
    return table


def _check_subspaces(subspaces) -> tuple[list[np.ndarray], int]:
    """The decompositions' signal bases, and their common virtual array size."""
    subspaces = tuple(subspaces)
    if not subspaces:
        raise ValueError("need at least one subarray decomposition")
    dims = {s.dimension for s in subspaces}
    counts = {s.n_sources for s in subspaces}
    if len(dims) != 1 or len(counts) != 1:
        raise ValueError("subarray decompositions disagree on dimensions")
    return [s.signal_basis for s in subspaces], dims.pop()


def _deficits(bases, positions: tuple[int, ...], table: np.ndarray) -> np.ndarray:
    """Projection deficits ``|a|^2 - |U^H a|^2``: one row per basis of the ``(..., n, D)``
    stack ``bases``, one column per direction.

    ``a`` is the steering vector at the strictly increasing ``positions``; ``table`` is
    ``_trig_table(positions[-1] - positions[0], thetas)`` for the directions.
    """
    u = np.asarray(bases)
    projectors = u @ u.conj().swapaxes(-1, -2)
    plan = _lag_plan(positions)
    lower = projectors[..., plan.rows, plan.cols]
    coefficients = np.concatenate([lower.real @ plan.binning, lower.imag @ plan.binning], axis=-1)
    trace = np.trace(projectors, axis1=-2, axis2=-1).real
    deficits = coefficients @ table
    deficits *= -2.0  # in place: a block's stack is the largest array of a sweep
    deficits += (len(positions) - trace)[..., None]
    return deficits


def _merged(deficits: np.ndarray) -> np.ndarray:
    """The ``gca`` and ``g_music`` rule: reciprocal of the deficits summed over axis -2."""
    return 1.0 / np.maximum(deficits.sum(axis=-2), DENOMINATOR_FLOOR)


def _averaged(deficits: np.ndarray) -> np.ndarray:
    """The ``avca`` rule: mean over axis -2 of the reciprocal deficits."""
    subarrays = np.moveaxis(deficits, -2, 0)
    return sum(1.0 / np.maximum(d, DENOMINATOR_FLOOR) for d in subarrays) / len(subarrays)


def _coarray_spectrum(rule, subspaces, thetas) -> np.ndarray:
    bases, m = _check_subspaces(subspaces)
    table = _trig_table(m - 1, np.asarray(thetas, dtype=np.float64))
    return rule(_deficits(bases, tuple(range(m)), table))


def _grid_estimates(rules, bases: np.ndarray, positions, grid_size: int, refine: bool = True):
    """Grid spectra and peaks of a ``(draws, L, n, D)`` basis stack, one row per draw.

    The deficits are computed once and shared by every merge rule in ``rules``; each
    rule gives ``(spectra, thetas, peak values, degraded)`` as in :func:`_peaks`.
    """
    table = _cached_table(positions[-1] - positions[0], grid_size)
    deficits = _deficits(bases, positions, table)
    thetas = grid_thetas(grid_size)
    return [(values, *_peaks(values, thetas, bases.shape[-1], refine))
            for values in (rule(deficits) for rule in rules)]


def _music(rule, bases, positions, n_sources, grid_size, refine):
    """Grid spectrum by ``rule`` of ``bases``, checked against ``n_sources``, and its peaks."""
    d = bases[0].shape[1]
    if n_sources is not None and n_sources != d:
        raise ValueError(f"decompositions hold {d} sources, caller expects {n_sources}")
    ((values, thetas, peak_values, degraded),) = _grid_estimates(
        [rule], np.asarray(bases)[None], positions, grid_size, refine)
    spectrum = SpectrumGrid(grid_thetas(grid_size), values[0])
    return spectrum, DoaEstimate(thetas[0], peak_values[0], bool(degraded[0]))


def _coarray_music(rule, subspaces, n_sources, grid_size, refine):
    bases, m = _check_subspaces(subspaces)
    return _music(rule, bases, tuple(range(m)), n_sources, grid_size, refine)


def gca_spectrum(subspaces, thetas) -> np.ndarray:
    """Merged-coarray pseudo-spectrum evaluated at arbitrary directions.

    The value at ``theta`` is ``1 / (b^H (I - P) b)`` where P is the merged
    block projector and b stacks one virtual steering vector per subarray;
    with identical virtual arrays this is the reciprocal of the summed
    per-subarray projection deficits.
    """
    return _coarray_spectrum(_merged, subspaces, thetas)


def avca_spectrum(subspaces, thetas) -> np.ndarray:
    """Average of the per-subarray reciprocal coarray spectra."""
    return _coarray_spectrum(_averaged, subspaces, thetas)


def gca_music(
    subspaces,
    n_sources: int | None = None,
    grid_size: int = 2001,
    refine: bool = True,
) -> tuple[SpectrumGrid, DoaEstimate]:
    """Merged-coarray MUSIC over all subarrays.

    Args:
        subspaces: one :class:`SubspaceDecomposition` per subarray, all on
            the same virtual array and built for the same source count.
        n_sources: optional cross-check against the decompositions.
        grid_size: number of grid points over [-1, 1).
        refine: parabolically interpolate peak locations off the grid.

    Returns:
        ``(SpectrumGrid, DoaEstimate)``.
    """
    return _coarray_music(_merged, subspaces, n_sources, grid_size, refine)


def avca_music(
    subspaces,
    n_sources: int | None = None,
    grid_size: int = 2001,
    refine: bool = True,
) -> tuple[SpectrumGrid, DoaEstimate]:
    """Average-coarray MUSIC: mean of the per-subarray reciprocal spectra."""
    return _coarray_music(_averaged, subspaces, n_sources, grid_size, refine)


def g_music(
    covariances,
    layout: TypeIILayout,
    n_sources: int,
    grid_size: int = 2001,
    refine: bool = True,
) -> tuple[SpectrumGrid, DoaEstimate]:
    """Physical-domain MUSIC with per-subarray subspace blocks.

    Each subarray covariance is eigendecomposed on its own (one call on their
    stack); the composite steering vector stacks the physical steering vectors
    at the subarrays' absolute positions.  Because every block is only
    ``n_sensors`` tall, the source count must stay below the per-subarray sensor count.

    Raises:
        TooManySourcesError: if ``n_sources >= layout.base.n_sensors``.
    """
    n = layout.base.n_sensors
    if n_sources >= n:
        raise TooManySourcesError(
            f"physical-domain processing identifies at most {n - 1} sources "
            f"with {n}-sensor subarrays, got {n_sources}"
        )
    covariances = np.asarray(covariances)
    if covariances.ndim != 3 or len(covariances) != layout.n_subarrays:
        raise ValueError("one covariance per subarray required")
    bases = signal_subspace(covariances, n_sources).signal_basis
    return _music(_merged, bases, layout.base.positions, n_sources, grid_size, refine)


def _local_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the strict local maxima of each row, in row-major order.

    A run of equal values counts at its first index and is a peak when both
    neighbouring runs of its row are lower; each NaN and each infinity is a run
    of its own.  Only run ends that fall next are examined, and a plateau looks
    back for the slope before it.
    """
    slopes = np.diff(values, axis=-1)
    rows, ends = np.nonzero((slopes[:, :-1] >= 0) & (slopes[:, 1:] < 0))
    starts = ends + 1
    for n in np.flatnonzero(slopes[rows, ends] == 0):
        before = np.flatnonzero(slopes[rows[n], : ends[n]])
        starts[n] = before[-1] + 1 if before.size else 0
    peaks = (starts > 0) & (slopes[rows, starts - 1] > 0)
    return rows[peaks], starts[peaks]


def _parabolic_offsets(left, center, right) -> np.ndarray:
    """Vertex offsets, in grid steps within [-0.5, 0.5], of the parabolas through
    ``(-1, left), (0, center), (1, right)``; 0 unless the curvature is finite
    and negative."""
    curvature = left - 2.0 * center + right
    ok = np.isfinite(curvature) & (curvature < 0)
    offsets = np.where(ok, 0.5 * (left - right) / np.where(ok, curvature, -1.0), 0.0)
    return np.clip(offsets, -0.5, 0.5)


def _peaks(values: np.ndarray, thetas: np.ndarray, n_sources: int, refine: bool = True):
    """The rule of :func:`find_peaks` on each row of ``values`` (sampled at ``thetas``).

    Only the local maxima are ranked, all rows in one sort.  Returns the
    estimates and peak values, ``(rows, D)`` each, and the rows' degraded flags.
    """
    rows, cols = _local_maxima(values)
    counts = np.bincount(rows, minlength=len(values))
    order = np.lexsort((cols, -values[rows, cols], rows))  # by row, value down, leftmost first
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    degraded = counts < n_sources
    top = np.sort(order[rank < n_sources])  # back in row-major order: by direction
    chosen = np.empty((len(values), min(n_sources, values.shape[-1])), dtype=np.intp)
    chosen[~degraded] = cols[top[~degraded[rows[top]]]].reshape(-1, chosen.shape[1])
    fallback = np.argsort(-values[degraded], axis=-1, kind="stable")[:, :n_sources]
    chosen[degraded] = np.sort(fallback, axis=-1)
    row_index = np.arange(len(values))[:, None]
    estimates = thetas[chosen]
    if refine:
        r, c = row_index[~degraded], chosen[~degraded]
        offsets = _parabolic_offsets(values[r, c - 1], values[r, c], values[r, c + 1])
        estimates[~degraded] += (thetas[1] - thetas[0]) * offsets
    return estimates, values[row_index, chosen], degraded


def find_peaks(spectrum: SpectrumGrid, n_sources: int, refine: bool = True) -> DoaEstimate:
    """Pick the ``n_sources`` largest spectrum peaks as direction estimates.

    Strict local maxima are ranked by value (ties keep the leftmost) and the
    top ``n_sources`` are re-sorted by direction.  When fewer local maxima
    exist than sources sought, the estimate falls back to the largest grid
    values anywhere and flags itself degraded.  With ``refine`` each proper
    peak is moved to the vertex of the parabola through its three samples.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    if spectrum.values.size < 3:
        raise ValueError("grid too small for peak finding")
    thetas, peak_values, degraded = _peaks(spectrum.values[None], spectrum.thetas, n_sources,
                                           refine)
    return DoaEstimate(thetas[0], peak_values[0], bool(degraded[0]))
