"""Spectra, the merged projector, and peak picking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedoa import estimators
from sparsedoa.coarray import (
    SubspaceDecomposition,
    covariance_to_coarray,
    signal_subspace,
    spatial_smooth,
)
from sparsedoa.errors import TooManySourcesError
from sparsedoa.estimators import (
    DENOMINATOR_FLOOR,
    MergedProjector,
    SpectrumGrid,
    _deficits,
    _local_maxima,
    _parabolic_offsets,
    _peaks,
    _trig_table,
    avca_music,
    avca_spectrum,
    find_peaks,
    g_music,
    gca_music,
    gca_spectrum,
    grid_thetas,
)
from sparsedoa.geometry import build_mra, build_nested2, compose_type2
from sparsedoa.sigmodel import SourceSet, exact_covariance, steering_matrix


def exact_subspaces(thetas, n_subarrays=3, noise_power=1.0, power=1.0):
    """The decomposition stacked over the subarrays, from analytically exact covariances."""
    base = build_nested2(4, 3)
    layout = compose_type2(base, n_subarrays, 1)
    sources = SourceSet.equal_power(thetas, power=power)
    covariances = exact_covariance(np.add.outer(layout.offsets, base.positions), sources,
                                   noise_power)
    smoothed = spatial_smooth(covariance_to_coarray(covariances, base))
    return layout, signal_subspace(smoothed, sources.count)


def subarrays(subspaces):
    """Each subarray of a stacked decomposition, as a stack of one."""
    fields = (subspaces.signal_basis, subspaces.noise_basis, subspaces.eigenvalues)
    return [SubspaceDecomposition(*(f[l : l + 1] for f in fields))
            for l in range(len(subspaces.signal_basis))]


def random_orthonormal(rng, rows, cols):
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(z)
    return q[:, :cols]


class TestGridThetas:
    def test_covers_half_open_interval(self):
        grid = grid_thetas(2001)
        assert grid[0] == -1.0
        assert grid[-1] < 1.0
        assert np.allclose(np.diff(grid), 2.0 / 2001)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            grid_thetas(2)


class TestMergedProjector:
    def test_idempotent_with_correct_rank(self):
        rng = np.random.default_rng(0)
        projector = MergedProjector(tuple(random_orthonormal(rng, 15, 6) for _ in range(3)))
        p = projector.matrix()
        assert projector.dim == 45
        assert projector.rank == 18
        assert np.linalg.norm(p @ p - p) <= 1e-8
        assert np.trace(p).real == pytest.approx(18.0, abs=1e-9)

    def test_complement_form_matches_dense_complement(self):
        rng = np.random.default_rng(1)
        projector = MergedProjector(tuple(random_orthonormal(rng, 8, 2) for _ in range(2)))
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        dense = np.vdot(b, projector.complement() @ b).real
        assert projector.complement_form(b) == pytest.approx(dense, rel=1e-12)


class TestOnePath:
    """The grid estimators, the spectrum functions and the projector agree."""

    THETAS = (-0.7, -0.5, -0.3, 0.3, 0.5, 0.7)

    @pytest.mark.parametrize(
        "music,spectrum", [(gca_music, gca_spectrum), (avca_music, avca_spectrum)]
    )
    def test_music_grid_is_the_spectrum_on_the_grid(self, music, spectrum):
        _, subspaces = exact_subspaces(self.THETAS, noise_power=0.5)
        grid, _ = music(subspaces, grid_size=501)
        assert np.array_equal(grid.thetas, grid_thetas(501))
        assert np.array_equal(grid.values, spectrum(subspaces, grid_thetas(501)))

    def test_gca_spectrum_is_the_merged_projector_residual(self):
        _, subspaces = exact_subspaces(self.THETAS, noise_power=0.5)
        projector = MergedProjector(tuple(subspaces.signal_basis))
        m = subspaces.dimension
        probes = np.array([-0.93, -0.61, -0.11, 0.0, 0.42, 0.77])  # away from sources
        for theta, value in zip(probes, gca_spectrum(subspaces, probes)):
            stacked = np.tile(np.exp(1j * np.pi * np.arange(m) * theta), len(projector.bases))
            assert value == pytest.approx(
                1.0 / projector.complement_form(stacked), rel=1e-12
            )

    def test_g_music_is_the_merged_projector_residual_on_physical_steering(self):
        layout = compose_type2(build_nested2(2, 2), 3, 1)
        sources = SourceSet.equal_power((-0.4, 0.1, 0.6))
        covariances = [
            exact_covariance(layout.subarray_positions(l), sources, 0.5) for l in range(3)
        ]
        grid, _ = g_music(covariances, layout, sources.count, grid_size=101)
        projector = MergedProjector(
            tuple(signal_subspace(r, sources.count).signal_basis for r in covariances)
        )
        positions = np.concatenate([layout.subarray_positions(l) for l in range(3)])
        for i in (0, 17, 50, 83):
            stacked = np.exp(1j * np.pi * positions * grid.thetas[i])
            assert grid.values[i] == pytest.approx(
                1.0 / projector.complement_form(stacked), rel=1e-12
            )


class TestLagKernel:
    """The lag-domain deficits against explicit steering columns."""

    @pytest.mark.parametrize(
        "positions",
        [
            tuple(range(29)),  # the virtual ULA of naq2-4-3
            build_mra(7).positions,
            tuple(10 + p for p in build_nested2(3, 3).positions),  # a base at offset 10
            (0, 1, 4, 9, 11, 15, 16),  # lag 13 missing: zero columns in the lag binning
        ],
    )
    def test_matches_explicit_projection_residual(self, positions):
        rng = np.random.default_rng(len(positions))
        bases = [random_orthonormal(rng, len(positions), 5) for _ in range(3)]
        thetas = np.array([-1.0, -0.83, -0.47, -0.1, 0.0, 0.26, 0.58, 0.91])
        kernel = _deficits(bases, positions, _trig_table(positions[-1] - positions[0], thetas))
        a = steering_matrix(positions, thetas)
        for basis, row in zip(bases, kernel):
            explicit = len(positions) - np.sum(np.abs(basis.conj().T @ a) ** 2, axis=0)
            assert np.min(explicit) > 1e-2  # away from the nulls
            np.testing.assert_allclose(row, explicit, rtol=1e-12)

    def test_g_music_does_not_depend_on_subarray_spacing(self):
        sources = SourceSet.equal_power((-0.4, 0.1, 0.6))
        base = build_nested2(2, 2)
        covariances = [
            exact_covariance(compose_type2(base, 3, 4).subarray_positions(l), sources, 0.5)
            for l in range(3)
        ]
        near, _ = g_music(covariances, compose_type2(base, 3, 1), sources.count, grid_size=201)
        far, _ = g_music(covariances, compose_type2(base, 3, 4), sources.count, grid_size=201)
        assert np.array_equal(near.values, far.values)


class TestGcaMusic:
    def test_exact_recovery_six_sources(self):
        thetas = (-0.7, -0.5, -0.3, 0.3, 0.5, 0.7)
        _, subspaces = exact_subspaces(thetas)
        _, estimate = gca_music(subspaces, 6)
        assert not estimate.degraded
        assert np.max(np.abs(estimate.thetas - np.array(thetas))) < 1e-3

    def test_exact_recovery_beyond_sensor_count(self):
        """Ten sources with seven-sensor subarrays resolve via the coarray."""
        thetas = tuple(np.linspace(-0.9, 0.9, 10))
        _, subspaces = exact_subspaces(thetas)
        _, estimate = gca_music(subspaces, 10)
        assert np.max(np.abs(estimate.thetas - np.array(thetas))) < 1e-3

    def test_exact_recovery_at_identifiability_limit(self):
        # (sdof - 1) / 2 = 14 sources is the most the smoothed coarray holds.
        thetas = tuple(np.linspace(-0.95, 0.95, 14))
        _, subspaces = exact_subspaces(thetas)
        _, estimate = gca_music(subspaces, 14)
        assert np.max(np.abs(estimate.thetas - np.array(thetas))) < 1e-3

    def test_spectrum_peaks_at_sources(self):
        thetas = (-0.4, 0.2)
        _, subspaces = exact_subspaces(thetas)
        on_source = gca_spectrum(subspaces, thetas)
        off_source = gca_spectrum(subspaces, (-0.05, 0.65))
        assert np.all(on_source > 100 * off_source.max())

    def test_source_count_mismatch_raises(self):
        _, subspaces = exact_subspaces((-0.4, 0.2))
        with pytest.raises(ValueError):
            gca_music(subspaces, 3)

    def test_inconsistent_decompositions_raise(self):
        """Only a stack of at least one subarray is accepted; per-subarray lists, which
        could disagree with each other, are rejected, as is an empty stack."""
        _, stack = exact_subspaces((-0.4, 0.2))
        empty = SubspaceDecomposition(stack.signal_basis[:0], stack.noise_basis[:0],
                                      stack.eigenvalues[:0])
        for rejected in (subarrays(stack), empty, ()):
            for estimate in (gca_music, avca_music):
                with pytest.raises(ValueError):
                    estimate(rejected)
            for spectrum in (gca_spectrum, avca_spectrum):
                with pytest.raises(ValueError):
                    spectrum(rejected, (0.0,))

    def test_grid_snapped_estimates_land_on_grid(self):
        thetas = (-0.5, 0.5)
        _, subspaces = exact_subspaces(thetas)
        _, estimate = gca_music(subspaces, 2, grid_size=1001, refine=False)
        grid = grid_thetas(1001)
        for value in estimate.thetas:
            assert value in grid


class TestAvcaMusic:
    def test_matches_gca_for_single_subarray(self):
        """With one subarray, averaging reciprocals is the same estimator."""
        thetas = (-0.6, 0.1, 0.55)
        _, subspaces = exact_subspaces(thetas, n_subarrays=1)
        spectrum_g, estimate_g = gca_music(subspaces, 3)
        spectrum_a, estimate_a = avca_music(subspaces, 3)
        assert np.array_equal(spectrum_g.values, spectrum_a.values)
        assert np.array_equal(estimate_g.thetas, estimate_a.thetas)

    def test_is_mean_of_reciprocal_spectra(self):
        thetas = (-0.3, 0.4)
        _, subspaces = exact_subspaces(thetas)
        probe = np.array([-0.8, -0.1, 0.2, 0.9])
        averaged = avca_spectrum(subspaces, probe)
        single = np.mean(
            [avca_spectrum(s, probe) for s in subarrays(subspaces)], axis=0
        )
        assert np.allclose(averaged, single, rtol=1e-12)

    def test_exact_recovery(self):
        thetas = (-0.7, -0.5, -0.3, 0.3, 0.5, 0.7)
        _, subspaces = exact_subspaces(thetas)
        _, estimate = avca_music(subspaces, 6)
        assert np.max(np.abs(estimate.thetas - np.array(thetas))) < 1e-3


class TestGMusic:
    def test_exact_recovery_small_source_count(self):
        base = build_nested2(4, 3)
        layout = compose_type2(base, 3, 1)
        thetas = (-0.5, 0.0, 0.5)
        sources = SourceSet.equal_power(thetas)
        covariances = [
            exact_covariance(layout.subarray_positions(l), sources, 0.1)
            for l in range(3)
        ]
        _, estimate = g_music(covariances, layout, 3)
        assert np.max(np.abs(estimate.thetas - np.array(thetas))) < 1e-3

    def test_raises_at_sensor_count(self):
        base = build_nested2(4, 3)
        layout = compose_type2(base, 3, 1)
        sources = SourceSet.equal_power(tuple(np.linspace(-0.8, 0.8, 7)))
        covariances = [
            exact_covariance(layout.subarray_positions(l), sources, 0.1)
            for l in range(3)
        ]
        with pytest.raises(TooManySourcesError):
            g_music(covariances, layout, 7)

    def test_requires_one_covariance_per_subarray(self):
        base = build_nested2(4, 3)
        layout = compose_type2(base, 3, 1)
        sources = SourceSet.equal_power((0.2,))
        r = exact_covariance(layout.subarray_positions(0), sources, 0.1)
        with pytest.raises(ValueError):
            g_music([r], layout, 1)


class TestFindPeaks:
    def grid(self, values):
        values = np.asarray(values, dtype=float)
        return SpectrumGrid(np.linspace(-1.0, 1.0, values.size), values)

    def test_picks_local_maxima(self):
        estimate = find_peaks(self.grid([0, 1, 0, 2, 0]), 2, refine=False)
        assert np.allclose(estimate.thetas, [-0.5, 0.5])
        assert np.allclose(estimate.peak_values, [1.0, 2.0])
        assert not estimate.degraded

    def test_plateau_resolves_to_left_edge(self):
        estimate = find_peaks(self.grid([0, 1, 1, 0]), 1, refine=False)
        assert np.allclose(estimate.thetas, [-1 / 3])

    def test_equal_peaks_keep_leftmost_first(self):
        estimate = find_peaks(self.grid([0, 2, 0, 2, 0]), 1, refine=False)
        assert np.allclose(estimate.thetas, [-0.5])

    def test_endpoints_are_not_peaks(self):
        estimate = find_peaks(self.grid([5, 0, 1, 0, 4]), 1, refine=False)
        assert np.allclose(estimate.thetas, [0.0])

    def test_monotone_spectrum_degrades(self):
        estimate = find_peaks(self.grid([0, 1, 2, 3]), 2, refine=False)
        assert estimate.degraded
        # Fallback keeps the largest grid values, sorted by direction.
        assert np.allclose(estimate.thetas, [1 / 3, 1.0])

    def test_parabolic_refinement_is_exact_on_parabolas(self):
        """A sampled parabola refines to its true vertex."""
        vertex = 0.30052
        grid = np.linspace(-1.0, 1.0, 201)
        values = 5.0 - (grid - vertex) ** 2
        estimate = find_peaks(SpectrumGrid(grid, values), 1, refine=True)
        assert estimate.thetas[0] == pytest.approx(vertex, abs=1e-12)

    def test_vectorised_refinement_matches_the_scalar_formula(self):
        def scalar_offset(left, center, right):
            curvature = left - 2.0 * center + right
            if not np.isfinite(curvature) or curvature >= 0:
                return 0.0
            return float(np.clip(0.5 * (left - right) / curvature, -0.5, 0.5))

        rng = np.random.default_rng(12)
        triples = rng.standard_normal((5000, 3)) * rng.choice([1e-3, 1.0, 1e300], (5000, 3))
        specials = np.array([np.inf, -np.inf, np.nan, 0.0, 1.0])
        mask = rng.random((5000, 3)) < 0.1
        triples[mask] = rng.choice(specials, mask.sum())
        triples[:500, 0] = triples[:500, 1]  # flat on the left
        triples[500:1000] = triples[500:1000, 1:2]  # flat: zero curvature
        # Zero curvature up to rounding.
        triples[1000:1500, 2] = 2.0 * triples[1000:1500, 1] - triples[1000:1500, 0]
        with np.errstate(all="ignore"):
            expected = [scalar_offset(*t) for t in triples]
        with np.errstate(all="ignore", divide="raise"):  # the divisor is never 0
            offsets = _parabolic_offsets(*triples.T)
        assert np.array_equal(offsets, expected)

    def test_refinement_never_leaves_the_cell(self):
        values = np.array([0.0, 1.0, 10.0, 1.5, 0.0])
        grid = np.linspace(-1.0, 1.0, 5)
        estimate = find_peaks(SpectrumGrid(grid, values), 1, refine=True)
        assert abs(estimate.thetas[0] - 0.0) <= 0.25  # half a grid step

    def test_plateau_refines_to_midpoint_of_equal_samples(self):
        values = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        grid = np.linspace(-1.0, 1.0, 5)
        estimate = find_peaks(SpectrumGrid(grid, values), 1, refine=True)
        assert estimate.thetas[0] == pytest.approx(-0.25)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            find_peaks(self.grid([0, 1, 0]), 0)
        with pytest.raises(ValueError):
            find_peaks(SpectrumGrid(np.array([-1.0, 1.0]), np.array([0.0, 1.0])), 1)


def reference_local_maxima(values):
    """Oracle: a strict local maximum rises into its position and falls at
    the next nonzero slope, so plateaus count once, at their left edge."""
    diffs = np.sign(np.diff(values))
    nonzero = np.flatnonzero(diffs)
    if nonzero.size == 0:
        return np.empty(0, dtype=np.intp)
    # Next nonzero slope at or after each position (0 past the end).
    slot = np.searchsorted(nonzero, np.arange(diffs.size))
    next_slope = np.where(
        slot < nonzero.size, diffs[nonzero[np.minimum(slot, nonzero.size - 1)]], 0
    )
    interior = np.arange(1, values.size - 1)
    is_peak = (diffs[interior - 1] == 1) & (next_slope[interior] == -1)
    return interior[is_peak]


# A small value set makes ties and plateaus common; any float may also appear.
tie_prone_floats = st.one_of(
    st.sampled_from([-1.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf]), st.floats()
)


def tie_prone_arrays(min_size):
    return st.lists(tie_prone_floats, min_size=min_size, max_size=60).map(np.array)


def reference_find_peaks(values, thetas, n_sources, refine):
    """Oracle: the one-row rule of ``find_peaks``, with the slope reference for its maxima."""
    peaks = reference_local_maxima(values)
    degraded = peaks.size < n_sources
    candidates = np.arange(values.size) if degraded else peaks
    ranked = candidates[np.argsort(-values[candidates], kind="stable")]
    chosen = np.sort(ranked[:n_sources])
    estimates = thetas[chosen]
    if refine and not degraded:
        offsets = _parabolic_offsets(values[chosen - 1], values[chosen], values[chosen + 1])
        estimates = estimates + (thetas[1] - thetas[0]) * offsets
    return estimates, values[chosen], degraded


def tie_prone_stacks():
    """1 to 6 rows of one length from 3 to 40."""
    return st.integers(3, 40).flatmap(lambda n: st.lists(
        st.lists(tie_prone_floats, min_size=n, max_size=n), min_size=1, max_size=6
    )).map(np.array)


class TestLocalMaximaProperties:
    @settings(max_examples=500, deadline=None)
    @given(tie_prone_arrays(min_size=1))
    def test_matches_the_slope_reference(self, values):
        with np.errstate(invalid="ignore"):
            rows, found = _local_maxima(values[None])
            expected = reference_local_maxima(values)
        assert found.dtype == expected.dtype
        assert np.array_equal(found, expected)
        assert not rows.any()

    @settings(max_examples=150, deadline=None)
    @given(tie_prone_stacks())
    def test_rows_match_the_slope_reference_one_by_one(self, values):
        with np.errstate(invalid="ignore"):
            rows, cols = _local_maxima(values)
            expected = [reference_local_maxima(row) for row in values]
        assert np.array_equal(rows, np.repeat(np.arange(len(values)), list(map(len, expected))))
        assert np.array_equal(cols, np.concatenate(expected))

    @settings(max_examples=300, deadline=None)
    @given(tie_prone_arrays(min_size=3), st.integers(1, 4), st.booleans())
    def test_find_peaks_matches_the_slope_reference(self, values, n_sources, refine):
        spectrum = SpectrumGrid(np.linspace(-1.0, 1.0, values.size), values)
        with np.errstate(all="ignore"):
            found = find_peaks(spectrum, n_sources, refine=refine)
            thetas, peak_values, degraded = reference_find_peaks(
                values, spectrum.thetas, n_sources, refine)
        assert np.array_equal(found.thetas, thetas, equal_nan=True)
        assert np.array_equal(found.peak_values, peak_values, equal_nan=True)
        assert found.degraded is degraded

    @settings(max_examples=150, deadline=None)
    @given(tie_prone_stacks(), st.integers(1, 4), st.booleans())
    def test_stacked_peaks_match_the_reference_row_by_row(self, values, n_sources, refine):
        """Plateaus, NaNs, ties and degraded rows mixed in one stack."""
        thetas = np.linspace(-1.0, 1.0, values.shape[1])
        with np.errstate(all="ignore"):
            found = _peaks(values, thetas, n_sources, refine)
            expected = [reference_find_peaks(row, thetas, n_sources, refine) for row in values]
        for part, reference in zip(found, zip(*expected)):
            assert np.array_equal(part, np.array(reference), equal_nan=True)


class TestDenominatorFloor:
    def test_exact_nulls_stay_finite(self):
        thetas = (-0.2, 0.35)
        _, subspaces = exact_subspaces(thetas, noise_power=0.0)
        values = gca_spectrum(subspaces, thetas)
        assert np.all(np.isfinite(values))
        assert np.all(values <= 1.0 / DENOMINATOR_FLOOR)
