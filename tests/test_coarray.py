"""Coarray mapping, spatial smoothing, and subspace extraction."""

import json

import numpy as np
import pytest

from sparsedoa.cli import main
from sparsedoa.coarray import (
    _fix_vector_phases,
    covariance_to_coarray,
    signal_subspace,
    spatial_smooth,
)
from sparsedoa.errors import DegenerateCoarrayError, TooManySourcesError
from sparsedoa.geometry import build_mra, build_nested2, build_ula, difference_coarray
from sparsedoa.sigmodel import (
    SourceSet,
    exact_covariance,
    sample_covariance,
    steering_matrix,
)


def fix_vector_phases_reference(vectors):
    """Column-by-column phase convention, the reference for the vectorised one."""
    fixed = np.array(vectors)
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        magnitudes = np.abs(col)
        anchor = int(np.argmax(magnitudes > 1e-12 * magnitudes.max()))
        phase = col[anchor] / magnitudes[anchor]
        fixed[:, k] = col * np.conj(phase)
    return fixed


def coarray_value_oracle(lag, sources, noise_power):
    """Direct expansion: sum of p_d * exp(j*pi*lag*theta_d) plus noise at lag 0."""
    value = np.sum(
        sources.power_array * np.exp(1j * np.pi * lag * sources.theta_array)
    )
    if lag == 0:
        value += noise_power
    return value


def window_average_reference(signal):
    """Forward smoothing written out: the average of the M window outer products."""
    m = signal.contiguous_half + 1
    center = signal.central_values()
    windows = np.column_stack([center[m - i : 2 * m - i] for i in range(1, m + 1)])
    smoothed = windows @ windows.conj().T / m
    return (smoothed + smoothed.conj().T) / 2.0


# Base positions of ula-7, naq2-4-3 and mra-7, and a nested base at offset 10.
SMOOTHING_POSITIONS = [
    build_ula(7).positions,
    build_nested2(4, 3).positions,
    build_mra(7).positions,
    tuple(10 + p for p in build_nested2(3, 3).positions),
]


def sample_signal(positions, rule, seed=0):
    """Coarray signal of a 60-snapshot sample covariance with three sources."""
    rng = np.random.default_rng(seed)
    a = steering_matrix(positions, (-0.45, 0.1, 0.55))
    s = rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60))
    noise = rng.standard_normal((a.shape[0], 60)) + 1j * rng.standard_normal((a.shape[0], 60))
    return covariance_to_coarray(sample_covariance(a @ s + 0.5 * noise), positions, rule=rule)


class TestCovarianceToCoarray:
    def test_two_sensor_toy(self):
        r = np.array([[2.0, 1.0], [1.0, 2.0]])
        signal = covariance_to_coarray(r, build_ula(2))
        assert signal.lags == (-1, 0, 1)
        assert np.allclose(signal.values, [1.0, 2.0, 1.0])

    @pytest.mark.parametrize("rule", ["average", "first"])
    def test_exact_covariance_maps_to_oracle(self, rule):
        geom = build_nested2(4, 3)
        sources = SourceSet.equal_power((-0.7, -0.2, 0.4, 0.8))
        r = exact_covariance(geom, sources, 0.7)
        signal = covariance_to_coarray(r, geom, rule=rule)
        assert signal.lags == difference_coarray(geom).lags
        for lag in signal.lags:
            expected = coarray_value_oracle(lag, sources, 0.7)
            assert signal.value_at(lag) == pytest.approx(expected, abs=1e-12)

    def test_rules_agree_on_exact_input(self):
        geom = build_nested2(3, 2)
        sources = SourceSet.equal_power((-0.5, 0.25))
        r = exact_covariance(geom, sources, 1.0)
        averaged = covariance_to_coarray(r, geom, rule="average")
        first = covariance_to_coarray(r, geom, rule="first")
        assert np.allclose(averaged.values, first.values, atol=1e-13)

    @pytest.mark.parametrize("rule", ["average", "first"])
    def test_conjugate_symmetry_is_exact(self, rule):
        """Hermitian input gives exactly conjugate values on mirrored lags."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 40)) + 1j * rng.standard_normal((7, 40))
        r = sample_covariance(x)
        signal = covariance_to_coarray(r, build_nested2(4, 3), rule=rule)
        for lag in signal.lags:
            assert signal.value_at(-lag) == np.conj(signal.value_at(lag))

    def test_central_values_cover_contiguous_segment(self):
        geom = build_nested2(4, 3)
        r = exact_covariance(geom, SourceSet.equal_power((0.3,)), 0.1)
        signal = covariance_to_coarray(r, geom)
        center = signal.central_values()
        assert signal.contiguous_half == 14
        assert center.size == 29
        assert center[14] == signal.value_at(0)
        assert center[-1] == signal.value_at(14)

    def test_rejects_unknown_rule_and_bad_shape(self):
        r = np.eye(3)
        with pytest.raises(ValueError):
            covariance_to_coarray(r, build_ula(3), rule="median")
        with pytest.raises(ValueError):
            covariance_to_coarray(r, build_ula(4))

    def test_rejects_non_integer_positions(self):
        with pytest.raises(ValueError, match="1.5"):
            covariance_to_coarray(np.eye(2), (0, 1.5))
        assert covariance_to_coarray(np.eye(2), (0.0, 1.0)).lags == (-1, 0, 1)

    def test_value_at_missing_lag_raises(self):
        signal = covariance_to_coarray(np.eye(2), build_ula(2))
        with pytest.raises(ValueError):
            signal.value_at(5)


class TestSpatialSmooth:
    def test_two_sensor_toy_by_hand(self):
        # Coarray values (1, 2, 1) on lags (-1, 0, 1): windows (2,1) and (1,2).
        signal = covariance_to_coarray(np.array([[2.0, 1.0], [1.0, 2.0]]), build_ula(2))
        smoothed = spatial_smooth(signal)
        assert smoothed.window == 2
        assert np.allclose(smoothed.matrix, [[2.5, 2.0], [2.0, 2.5]])

    def test_window_count_for_seven_sensor_nested(self):
        geom = build_nested2(4, 3)
        sdof = difference_coarray(geom).sdof
        assert sdof == 29
        r = exact_covariance(geom, SourceSet.equal_power((0.2,)), 1.0)
        smoothed = spatial_smooth(covariance_to_coarray(r, geom))
        assert smoothed.window == (sdof + 1) // 2 == 15
        assert smoothed.matrix.shape == (15, 15)

    def test_exact_input_matches_squared_covariance(self):
        """Smoothing exact statistics gives (1/M)(A p A^H + noise I)^2."""
        geom = build_nested2(4, 3)
        sources = SourceSet.equal_power((-0.65, -0.1, 0.3, 0.75), power=1.3)
        noise_power = 0.6
        r = exact_covariance(geom, sources, noise_power)
        smoothed = spatial_smooth(covariance_to_coarray(r, geom))
        m = smoothed.window
        a_virtual = steering_matrix(range(m), sources)
        c = (a_virtual * sources.power_array) @ a_virtual.conj().T
        c += noise_power * np.eye(m)
        assert np.allclose(smoothed.matrix, c @ c / m, atol=1e-10)

    def test_smoothed_is_hermitian_psd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 60)) + 1j * rng.standard_normal((7, 60))
        signal = covariance_to_coarray(sample_covariance(x), build_nested2(4, 3))
        smoothed = spatial_smooth(signal).matrix
        assert np.allclose(smoothed, smoothed.conj().T)
        assert np.min(np.linalg.eigvalsh(smoothed)) >= -1e-12

    def test_degenerate_center_raises(self):
        # Positions (0, 2) have no lag 1, so the contiguous center is just {0}.
        signal = covariance_to_coarray(np.eye(2), (0, 2))
        with pytest.raises(DegenerateCoarrayError):
            spatial_smooth(signal)

    @pytest.mark.parametrize("rule", ["average", "first"])
    @pytest.mark.parametrize("positions", SMOOTHING_POSITIONS)
    def test_matrix_equals_window_average(self, positions, rule):
        signal = sample_signal(positions, rule)
        smoothed = spatial_smooth(signal)
        np.testing.assert_allclose(
            smoothed.matrix, window_average_reference(signal), rtol=1e-12, atol=0
        )

    def test_matrix_is_read_only(self):
        smoothed = spatial_smooth(sample_signal(build_nested2(4, 3).positions, "average"))
        assert not smoothed.matrix.flags.writeable
        with pytest.raises(ValueError):
            smoothed.matrix[0, 0] = 1.0


class TestSignalSubspace:
    def make_smoothed(self, thetas=(-0.4, 0.1, 0.6), noise_power=0.5):
        geom = build_nested2(4, 3)
        sources = SourceSet.equal_power(thetas)
        r = exact_covariance(geom, sources, noise_power)
        return spatial_smooth(covariance_to_coarray(r, geom)), sources

    def test_eigenvalues_descend_and_reconstruct(self):
        smoothed, _ = self.make_smoothed()
        decomposition = signal_subspace(smoothed, 3)
        values = decomposition.eigenvalues
        assert np.all(np.diff(values) <= 1e-12)
        assert np.linalg.norm(
            decomposition.reconstruct() - smoothed.matrix
        ) <= 1e-10 * np.linalg.norm(smoothed.matrix)

    def test_basis_is_orthonormal(self):
        smoothed, _ = self.make_smoothed()
        decomposition = signal_subspace(smoothed, 3)
        u = decomposition.signal_basis
        assert u.shape == (15, 3)
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
        v = decomposition.noise_basis
        assert np.allclose(u.conj().T @ v, 0.0, atol=1e-12)

    def test_exact_signal_span_contains_steering_vectors(self):
        """With exact statistics the signal space spans the virtual steering."""
        smoothed, sources = self.make_smoothed()
        decomposition = signal_subspace(smoothed, sources.count)
        u = decomposition.signal_basis
        a_virtual = steering_matrix(range(smoothed.window), sources)
        residual = a_virtual - u @ (u.conj().T @ a_virtual)
        assert np.linalg.norm(residual) <= 1e-8

    def test_deterministic_phase_convention(self, tmp_path):
        """The dump of ``sparsedoa run`` rotates each basis column's anchor real positive."""
        config = tmp_path / "exact.json"
        config.write_text(json.dumps({"geometry": "naq2-4-3", "L": 3, "snr_db": 3,
                                      "thetas": [-0.4, 0.1, 0.6], "exact": True}))
        dumps = []
        for name in ("first", "second"):
            path = tmp_path / f"{name}.npz"
            assert main(["run", "--config", str(config), "--algorithm", "gca",
                         "--dump-intermediates", str(path)]) == 0
            with np.load(path) as data:
                dumps.append(data["signal_bases"])
        assert np.array_equal(*dumps)
        for u in dumps[0]:
            anchors = np.argmax(np.abs(u) > 1e-12 * np.max(np.abs(u), axis=0), axis=0)
            for col, row in enumerate(anchors):
                assert u[row, col].imag == pytest.approx(0.0, abs=1e-14)
                assert u[row, col].real > 0

    def test_phase_fix_matches_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for case in range(400):
            n = int(rng.integers(7, 31))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            hermitian = a @ a.conj().T
            if case % 5 == 0:
                # Zero first row: every eigenvector but one anchors further down.
                hermitian[0, :] = 0.0
                hermitian[:, 0] = 0.0
            vectors = np.linalg.eigh(hermitian)[1][:, ::-1]
            assert np.array_equal(
                _fix_vector_phases(vectors), fix_vector_phases_reference(vectors)
            )

    def test_rejects_too_many_sources(self):
        smoothed, _ = self.make_smoothed()
        with pytest.raises(TooManySourcesError):
            signal_subspace(smoothed, 15)
        with pytest.raises(ValueError):
            signal_subspace(smoothed, 0)

    @pytest.mark.parametrize("rule", ["average", "first"])
    @pytest.mark.parametrize("positions", SMOOTHING_POSITIONS)
    def test_root_and_matrix_give_the_same_decomposition(self, positions, rule):
        smoothed = spatial_smooth(sample_signal(positions, rule))
        from_root = signal_subspace(smoothed, 3)
        from_matrix = signal_subspace(np.array(smoothed.matrix), 3)
        u, v = from_root.signal_basis, from_matrix.signal_basis
        np.testing.assert_allclose(u @ u.conj().T, v @ v.conj().T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            from_root.eigenvalues, from_matrix.eigenvalues, rtol=1e-10, atol=0
        )

    def test_accepts_plain_matrices(self):
        r = np.diag([3.0, 2.0, 1.0]).astype(complex)
        decomposition = signal_subspace(r, 1)
        assert decomposition.eigenvalues[0] == pytest.approx(3.0)
        assert np.allclose(np.abs(decomposition.signal_basis[:, 0]), [1, 0, 0])


def hermitian_stack(rng, count, n):
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return a @ a.conj().swapaxes(-1, -2)


class TestStacks:
    """Every stage gives a stack, bit for bit, what it gives each of its slices alone."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [7, 15, 24, 30])
    def test_stack_equals_the_loop_of_its_slices(self, n, count):
        rng = np.random.default_rng(100 * n + count)
        stack = hermitian_stack(rng, count, n)
        for rule in ("average", "first"):
            signal = covariance_to_coarray(stack, range(n), rule)
            signals = [covariance_to_coarray(r, range(n), rule) for r in stack]
            assert signal.lags == signals[0].lags
            assert np.array_equal(signal.values, np.stack([s.values for s in signals]))

            smoothed = spatial_smooth(signal)
            slices = [spatial_smooth(s) for s in signals]
            assert smoothed.window == n
            for field in ("root", "matrix"):
                expected = np.stack([getattr(s, field) for s in slices])
                assert np.array_equal(getattr(smoothed, field), expected)

            for matrices, singles in ((smoothed, slices), (stack, list(stack))):
                decomposition = signal_subspace(matrices, 3)
                loop = [signal_subspace(m, 3) for m in singles]
                for field in ("signal_basis", "noise_basis", "eigenvalues"):
                    expected = np.stack([getattr(d, field) for d in loop])
                    assert np.array_equal(getattr(decomposition, field), expected)
