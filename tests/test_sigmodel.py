"""Steering vectors, snapshot simulation, and covariance statistics."""

import numpy as np
import pytest

from sparsedoa.geometry import build_nested2, build_ula, compose_type2
from sparsedoa.sigmodel import (
    Scenario,
    SourceSet,
    exact_covariance,
    noise_power_for_snr,
    sample_covariance,
    simulate_snapshots,
    steering_matrix,
    steering_vector,
)


def make_scenario(thetas=(-0.7, -0.5, -0.3, 0.3, 0.5, 0.7), n_subarrays=3,
                  noise_power=1.0, snapshots=100, seed=None):
    layout = compose_type2(build_nested2(4, 3), n_subarrays, 1)
    sources = SourceSet.equal_power(thetas)
    return Scenario(layout=layout, sources=sources, noise_power=noise_power,
                    snapshots=snapshots, seed=seed)


class TestSourceSet:
    def test_equal_power(self):
        sources = SourceSet.equal_power((-0.5, 0.5), power=2.0)
        assert sources.count == 2
        assert np.array_equal(sources.power_array, [2.0, 2.0])

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            SourceSet.equal_power((0.5, -0.5))
        with pytest.raises(ValueError):
            SourceSet.equal_power((0.1, 0.1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SourceSet.equal_power((-1.5, 0.0))

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            SourceSet.equal_power((0.0,), power=0.0)

    def test_accepts_endpoints(self):
        sources = SourceSet.equal_power((-1.0, 1.0))
        assert sources.count == 2


class TestSteering:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_vector((0, 1, 4), 0.0), np.ones(3))

    def test_two_sensor_endfire(self):
        # exp(j*pi*n) alternates sign on consecutive integers.
        assert np.allclose(steering_vector(build_ula(2), 1.0), [1.0, -1.0])

    def test_matrix_stacks_columns(self):
        a = steering_matrix(build_ula(2), (0.0, 1.0))
        assert np.allclose(a, [[1.0, 1.0], [1.0, -1.0]])

    def test_matrix_accepts_source_set(self):
        sources = SourceSet.equal_power((-0.25, 0.5))
        a = steering_matrix((0, 3), sources)
        assert a.shape == (2, 2)
        assert np.allclose(a[:, 1], steering_vector((0, 3), 0.5))

    def test_unit_modulus(self):
        a = steering_matrix((0, 1, 4, 6), (-0.9, 0.1, 0.8))
        assert np.allclose(np.abs(a), 1.0)

    def test_vector_rejects_non_integer_positions(self):
        with pytest.raises(ValueError, match="1.5"):
            steering_vector((0, 1.5), 0.5)
        assert np.array_equal(steering_vector((0.0, 3.0), 0.2), steering_vector((0, 3), 0.2))

    def test_matrix_rejects_non_integer_positions(self):
        with pytest.raises(ValueError, match="2.5"):
            steering_matrix((0, 2.5), (0.1, 0.4))
        with pytest.raises(ValueError, match="nan"):
            steering_matrix((0, float("nan")), (0.1,))

    def test_rejects_duplicates_and_bad_range(self):
        with pytest.raises(ValueError):
            steering_matrix((0, 1), (0.2, 0.2))
        with pytest.raises(ValueError):
            steering_vector((0, 1), 1.2)


class TestExactCovariance:
    def test_single_broadside_source(self):
        sources = SourceSet.equal_power((0.0,))
        r = exact_covariance(build_ula(2), sources, 1.0)
        assert np.allclose(r, [[2.0, 1.0], [1.0, 2.0]])

    def test_hermitian_and_psd(self):
        sources = SourceSet.equal_power((-0.6, 0.1, 0.7), power=1.5)
        r = exact_covariance((0, 1, 4, 9), sources, 0.3)
        assert np.allclose(r, r.conj().T)
        assert np.min(np.linalg.eigvalsh(r)) > 0

    def test_noise_free_rank_equals_sources(self):
        sources = SourceSet.equal_power((-0.4, 0.2))
        r = exact_covariance((0, 1, 4, 6), sources, 0.0)
        assert np.linalg.matrix_rank(r, tol=1e-10) == 2

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            exact_covariance(build_ula(2), SourceSet.equal_power((0.0,)), -0.1)

    def test_stacked_positions_give_the_loop_of_their_rows_bit_for_bit(self):
        sources = SourceSet.equal_power((-0.6, 0.1, 0.7), power=1.5)
        positions = np.add.outer([0, 10, 20], [0, 1, 4, 9])
        stacked = exact_covariance(positions, sources, 0.3)
        assert np.array_equal(stacked, np.stack([exact_covariance(tuple(row), sources, 0.3)
                                                 for row in positions.tolist()]))
        with pytest.raises(ValueError, match="got 7.5"):
            exact_covariance([[0, 1], [5, 7.5]], sources, 0.3)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
class TestRejectsNonFinite:
    """Every range check fails a non-finite value, which compares false to any bound."""

    def test_source_direction(self, value):
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            SourceSet((value,), (1.0,))
        with pytest.raises(ValueError):
            SourceSet((0.1, value), (1.0, 1.0))

    def test_source_power(self, value):
        with pytest.raises(ValueError, match="source powers must be positive"):
            SourceSet((0.1,), (value,))

    def test_steering_direction(self, value):
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            steering_vector((0, 1, 2), value)
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            steering_matrix((0, 1, 2), (0.1, value))

    def test_scenario_noise_power(self, value):
        scenario = make_scenario()
        with pytest.raises(ValueError, match="noise power must be non-negative"):
            Scenario(scenario.layout, scenario.sources, value, 50)

    def test_exact_covariance_noise_power(self, value):
        with pytest.raises(ValueError, match="noise power must be non-negative"):
            exact_covariance(build_ula(3), SourceSet.equal_power((0.1,)), value)


@pytest.mark.parametrize("snapshots", [50.5, 50.0, True, "50", None])
def test_scenario_snapshots_must_be_an_integer(snapshots):
    with pytest.raises(ValueError, match="^'snapshots' must be an integer"):
        make_scenario(snapshots=snapshots)


class TestNoisePower:
    def test_reference_points(self):
        assert noise_power_for_snr(0.0) == pytest.approx(1.0)
        assert noise_power_for_snr(10.0) == pytest.approx(0.1)
        assert noise_power_for_snr(-10.0) == pytest.approx(10.0)

    def test_scales_with_signal_power(self):
        assert noise_power_for_snr(0.0, signal_power=4.0) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "snr_db,signal_power", [(-4000.0, 1.0), (-100.0, 1e300), (0.0, float("nan"))]
    )
    def test_rejects_powers_that_are_not_finite(self, snr_db, signal_power):
        with pytest.raises(ValueError, match="no finite noise power"):
            noise_power_for_snr(snr_db, signal_power)

    def test_underflow_to_zero_noise_is_accepted(self):
        assert noise_power_for_snr(4000.0) == 0.0


class TestSimulateSnapshots:
    def test_shapes(self):
        scenario = make_scenario(snapshots=64)
        batch = simulate_snapshots(scenario, rng=np.random.default_rng(0))
        assert len(batch.matrices) == 3
        for x in batch.matrices:
            assert x.shape == (7, 64)
            assert np.iscomplexobj(x)
        assert batch.phase_shifts.shape == (3,)

    def test_scenario_steering_is_the_stack_of_subarray_steering_matrices(self):
        scenario = make_scenario()
        layout = scenario.layout
        expected = [steering_matrix(layout.subarray_positions(l), scenario.sources)
                    for l in range(layout.n_subarrays)]
        assert np.array_equal(scenario.steering, np.stack(expected))
        assert not scenario.steering.flags.writeable

    def test_deterministic_given_rng(self):
        scenario = make_scenario()
        b1 = simulate_snapshots(scenario, rng=np.random.default_rng(5))
        b2 = simulate_snapshots(scenario, rng=np.random.default_rng(5))
        for x1, x2 in zip(b1.matrices, b2.matrices):
            assert np.array_equal(x1, x2)
        assert np.array_equal(b1.phase_shifts, b2.phase_shifts)

    def test_scenario_seed_used_by_default(self):
        scenario = make_scenario(seed=9)
        b1 = simulate_snapshots(scenario)
        b2 = simulate_snapshots(scenario)
        assert np.array_equal(b1.matrices[0], b2.matrices[0])

    def test_explicit_phases_are_honored(self):
        scenario = make_scenario()
        phases = np.array([0.1, 1.3, 2.9])
        batch = simulate_snapshots(scenario, rng=np.random.default_rng(0), phases=phases)
        assert np.array_equal(batch.phase_shifts, phases)

    def test_pin_reference_phase(self):
        scenario = make_scenario()
        batch = simulate_snapshots(
            scenario, rng=np.random.default_rng(0), pin_reference_phase=True
        )
        assert batch.phase_shifts[0] == 0.0

    def test_phase_redraw_keeps_signal_and_noise_draws(self):
        """Substreams isolate the phase draw from signal and noise draws."""
        scenario = make_scenario()
        pinned = simulate_snapshots(
            scenario, rng=np.random.default_rng(3), pin_reference_phase=True
        )
        free = simulate_snapshots(scenario, rng=np.random.default_rng(3))
        # Subarray 0 differs only by the scalar phase that pinning removed.
        rotated = free.matrices[0] * np.exp(1j * free.phase_shifts[0])
        assert np.allclose(rotated, pinned.matrices[0], atol=1e-12)

    def test_phase_shift_leaves_covariance_invariant(self):
        scenario = make_scenario()
        b1 = simulate_snapshots(scenario, rng=np.random.default_rng(11),
                                phases=np.array([0.0, 1.0, 2.0]))
        b2 = simulate_snapshots(scenario, rng=np.random.default_rng(11),
                                phases=np.array([0.5, 2.5, 4.0]))
        for x1, x2 in zip(b1.matrices, b2.matrices):
            r1 = sample_covariance(x1)
            r2 = sample_covariance(x2)
            assert np.allclose(r1, r2, atol=1e-12)

    def test_rejects_wrong_phase_shape(self):
        scenario = make_scenario()
        with pytest.raises(ValueError):
            simulate_snapshots(scenario, rng=np.random.default_rng(0),
                               phases=np.array([0.1, 0.2]))


def _looped_snapshots(scenario, rng, phases=None, pin_reference_phase=False):
    """One steering matrix and one noise draw per subarray: the stacked draw's reference."""
    def complex_gaussian(stream, shape, variance):
        scale = np.sqrt(np.asarray(variance, dtype=np.float64) / 2.0)
        return scale * (stream.standard_normal(shape) + 1j * stream.standard_normal(shape))

    signal_rng, noise_rng, phase_rng = rng.spawn(3)
    layout, sources = scenario.layout, scenario.sources
    waveforms = complex_gaussian(
        signal_rng, (sources.count, scenario.snapshots), 1.0
    ) * np.sqrt(sources.power_array)[:, None]
    if phases is None:
        offsets = phase_rng.uniform(0.0, 2.0 * np.pi, layout.n_subarrays)
        if pin_reference_phase:
            offsets[0] = 0.0
    else:
        offsets = np.asarray(phases, dtype=np.float64)
    matrices = []
    for l in range(layout.n_subarrays):
        a_l = steering_matrix(layout.subarray_positions(l), sources)
        noise = complex_gaussian(noise_rng, (a_l.shape[0], scenario.snapshots),
                                 scenario.noise_power)
        matrices.append(np.exp(-1j * offsets[l]) * (a_l @ waveforms + noise))
    return matrices, offsets


class TestStackedDrawMatchesLoop:
    """One stacked draw consumes the substreams in the old loop's order."""

    @pytest.mark.parametrize("n_subarrays", [1, 3])
    @pytest.mark.parametrize("spacing", [1, 4])
    @pytest.mark.parametrize("phase_mode", ["free", "pinned", "explicit"])
    def test_bit_identical_to_per_subarray_loop(self, n_subarrays, spacing, phase_mode):
        layout = compose_type2(build_nested2(4, 3), n_subarrays, spacing)
        scenario = Scenario(layout=layout, sources=SourceSet((-0.4, 0.1, 0.6), (1.0, 0.5, 2.0)),
                            noise_power=0.3, snapshots=37)
        kwargs = {
            "free": {},
            "pinned": {"pin_reference_phase": True},
            "explicit": {"phases": np.linspace(0.2, 2.9, n_subarrays)},
        }[phase_mode]
        batch = simulate_snapshots(scenario, rng=np.random.default_rng(17), **kwargs)
        matrices, offsets = _looped_snapshots(scenario, np.random.default_rng(17), **kwargs)
        assert batch.matrices.shape == (n_subarrays, 7, 37)
        assert len(batch.matrices) == n_subarrays
        for stacked, looped in zip(batch.matrices, matrices, strict=True):
            assert np.array_equal(stacked, looped)
        assert np.array_equal(batch.phase_shifts, offsets)


class TestSampleCovariance:
    def test_hermitian(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
        r = sample_covariance(x)
        assert r.shape == (4, 4)
        assert np.allclose(r, r.conj().T)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones(5))

    def test_stack_matches_per_matrix_calls(self):
        batch = simulate_snapshots(make_scenario(), rng=np.random.default_rng(4))
        stacked = sample_covariance(batch.matrices)
        assert stacked.shape == (3, 7, 7)
        for r, x in zip(stacked, batch.matrices, strict=True):
            assert np.array_equal(r, sample_covariance(x))
        with pytest.raises(ValueError):
            sample_covariance(np.ones((3, 4, 0)))

    def test_converges_to_exact_covariance(self):
        """Every entry lands within 3 standard errors at T = 1e5."""
        snapshots = 100000
        layout = compose_type2(build_nested2(4, 3), 1, 1)
        sources = SourceSet.equal_power((-0.6, -0.1, 0.45))
        scenario = Scenario(layout=layout, sources=sources, noise_power=0.5,
                            snapshots=snapshots)
        batch = simulate_snapshots(scenario, rng=np.random.default_rng(0))
        estimate = sample_covariance(batch.matrices[0])
        exact = exact_covariance(layout.subarray_positions(0), sources, 0.5)
        diag = np.diag(exact).real
        standard_error = np.sqrt(np.outer(diag, diag) / snapshots)
        assert np.all(np.abs(estimate - exact) <= 3.0 * standard_error)

    def test_average_signal_power_matches_sources(self):
        scenario = make_scenario(noise_power=0.0, snapshots=200000)
        batch = simulate_snapshots(scenario, rng=np.random.default_rng(8))
        r = sample_covariance(batch.matrices[0])
        # Each sensor sees the summed power of all unit-power sources.
        assert np.allclose(np.diag(r).real, 6.0, rtol=0.05)
