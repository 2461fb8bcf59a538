"""End-to-end acceptance gate.

Each test covers one promised behavior of the toolkit and reports a single
``[acceptance] <name> PASS/FAIL`` line on the live terminal (bypassing
pytest's capture) so the gate can be read at a glance.  Monte-Carlo tests
use fixed seeds; they are deterministic, not flaky.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparsedoa.coarray import covariance_to_coarray, signal_subspace, spatial_smooth
from sparsedoa.errors import TooManySourcesError
from sparsedoa.estimators import MergedProjector, g_music, gca_music
from sparsedoa.geometry import (
    build_mra,
    build_nested2,
    build_super_nested2,
    build_ula,
    compose_type2,
    difference_coarray,
    dof_bound,
)
from sparsedoa.harness import (
    RMSE_SENTINEL,
    ExperimentConfig,
    run_trial,
    sweep,
)
from sparsedoa.sigmodel import (
    Scenario,
    SourceSet,
    exact_covariance,
    sample_covariance,
    simulate_snapshots,
)

SIX_SOURCES = (-0.7, -0.5, -0.3, 0.3, 0.5, 0.7)
SEVEN_SOURCES = (-0.7, -0.5, -0.3, 0.0, 0.3, 0.5, 0.7)
SNR_SWEEP = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {name} FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"[acceptance] {name} PASS", flush=True)

    return _report


def brute_lags(positions):
    return {a - b for a in positions for b in positions}


def exact_subspaces(thetas, noise_power=1.0):
    base = build_nested2(4, 3)
    layout = compose_type2(base, 3, 1)
    sources = SourceSet.equal_power(thetas)
    r = exact_covariance(np.add.outer(layout.offsets, base.positions), sources, noise_power)
    subspaces = signal_subspace(spatial_smooth(covariance_to_coarray(r, base)), sources.count)
    return layout, sources, subspaces


def test_dof_table(report):
    """Whole-array DoF for three 7-sensor subarrays, by brute force."""
    with report("dof-table"):
        build_mra.cache_clear()
        build_super_nested2.cache_clear()
        start = time.monotonic()
        expected = {
            "ula": (build_ula(7), 41),
            "naq2": (build_nested2(4, 3), 89),
            "snaq2": (build_super_nested2(4, 3), 89),
            "mra": (build_mra(7), 107),
        }
        for name, (base, dof) in expected.items():
            layout = compose_type2(base, 3, spacing=1)
            assert len(brute_lags(layout.whole_array.positions)) == dof, name
        assert time.monotonic() - start < 1.0


def test_dof_bound_equality(report):
    with report("dof-bound-equality"):
        assert dof_bound(3, 29, 1, 14) == 89


def test_exact_recovery_six_sources(report):
    """Analytic covariances recover six directions within one grid step."""
    with report("exact-recovery-six-sources"):
        start = time.monotonic()
        _, _, subspaces = exact_subspaces(SIX_SOURCES)
        _, estimate = gca_music(subspaces, 6, grid_size=2001)
        assert not estimate.degraded
        assert np.max(np.abs(estimate.thetas - np.array(SIX_SOURCES))) < 1e-3
        assert time.monotonic() - start < 5.0


def test_over_sensor_identifiability(report):
    """The coarray resolves more sources than sensors; the physical domain cannot."""
    with report("over-sensor-identifiability"):
        thetas = tuple(np.linspace(-0.9, 0.9, 10))
        layout, sources, subspaces = exact_subspaces(thetas)
        _, estimate = gca_music(subspaces, 10)
        assert np.max(np.abs(estimate.thetas - np.array(thetas))) < 1e-3

        for count in (7, 8, 10):
            blocked = SourceSet.equal_power(tuple(np.linspace(-0.8, 0.8, count)))
            covariances = [
                exact_covariance(layout.subarray_positions(l), blocked, 0.1)
                for l in range(3)
            ]
            with pytest.raises(TooManySourcesError):
                g_music(covariances, layout, count)


def test_algorithm_comparison_trend(report):
    """Merged-coarray processing beats both baselines at every SNR >= 0 dB."""
    with report("algorithm-comparison-trend"):
        start = time.monotonic()
        config = ExperimentConfig(
            geometries=("naq2-4-3",),
            n_subarrays=3,
            spacing=1,
            thetas=SIX_SOURCES,
            snapshots=100,
            snr_db_list=SNR_SWEEP,
            algorithms=("gca", "gmusic", "avca"),
            trials=200,
            seed=0,
        )
        curves = {(c.algorithm, c.snr_db): c.rmse for c in sweep(config, workers=1)}
        for snr in SNR_SWEEP:
            if snr < 0:
                continue
            assert curves[("gca", snr)] < curves[("avca", snr)], snr
            assert curves[("gca", snr)] < curves[("gmusic", snr)], snr
        assert time.monotonic() - start < 600.0


def test_geometry_ordering_trend(report):
    """At 10 dB the sparser coarrays give lower RMSE, with 10% slack."""
    with report("geometry-ordering-trend"):
        config = ExperimentConfig(
            geometries=("ula-7", "naq2-4-3", "snaq2-4-3", "mra-7"),
            n_subarrays=3,
            spacing=1,
            thetas=SIX_SOURCES,
            snapshots=100,
            snr_db_list=(10.0,),
            algorithms=("gca",),
            trials=200,
            seed=0,
        )
        values = {c.geometry: c.rmse for c in sweep(config, workers=1)}
        ordering = ["mra-7", "snaq2-4-3", "naq2-4-3", "ula-7"]
        for better, worse in zip(ordering, ordering[1:]):
            assert values[better] <= 1.1 * values[worse], (better, worse, values)


def test_oversubscribed_baseline_penalty(report):
    """With one source per sensor the physical-domain baseline collapses."""
    with report("oversubscribed-baseline-penalty"):
        config = ExperimentConfig(
            geometries=("naq2-4-3",),
            n_subarrays=3,
            spacing=1,
            thetas=SEVEN_SOURCES,
            snapshots=100,
            snr_db_list=(20.0,),
            algorithms=("gca", "gmusic"),
            trials=200,
            seed=0,
        )
        curves = {c.algorithm: c for c in sweep(config, workers=1)}
        assert curves["gmusic"].failures == 200
        assert curves["gmusic"].rmse == RMSE_SENTINEL
        assert curves["gmusic"].rmse >= 5.0 * curves["gca"].rmse


def test_invariant_suite(report):
    with report("invariant-suite"):
        rng = np.random.default_rng(0)

        # Block projector: idempotent, rank L*D.
        _, _, subspaces = exact_subspaces(SIX_SOURCES)
        projector = MergedProjector(tuple(subspaces.signal_basis))
        p = projector.matrix()
        assert np.linalg.norm(p @ p - p) <= 1e-8
        assert projector.rank == 18
        assert np.trace(p).real == pytest.approx(18.0, abs=1e-9)

        # Coarray conjugate symmetry on sampled covariances, both rules.
        base = build_nested2(4, 3)
        x = rng.standard_normal((7, 50)) + 1j * rng.standard_normal((7, 50))
        for rule in ("average", "first"):
            signal = covariance_to_coarray(sample_covariance(x), base, rule=rule)
            for lag in signal.lags:
                assert signal.value_at(-lag) == np.conj(signal.value_at(lag))

        # Phase-shift invariance: redraw the miscalibration phases while the
        # signal and noise realizations stay fixed.  Covariances move only at
        # rounding level, and grid-level estimates are bit-identical.
        layout = compose_type2(base, 3, 1)
        sources = SourceSet.equal_power(SIX_SOURCES)
        scenario = Scenario(layout=layout, sources=sources, noise_power=1.0,
                            snapshots=100)
        estimates = {}
        for tag, phases in {"a": (0.0, 1.0, 2.0), "b": (2.5, 0.7, 5.1)}.items():
            batch = simulate_snapshots(scenario, rng=np.random.default_rng(11),
                                       phases=np.array(phases))
            covariances = sample_covariance(batch.matrices)
            decs = signal_subspace(spatial_smooth(covariance_to_coarray(covariances, base)), 6)
            estimates[tag] = {
                "cov": covariances,
                "snapped": gca_music(decs, 6, refine=False)[1].thetas,
                "refined": gca_music(decs, 6, refine=True)[1].thetas,
            }
        for r1, r2 in zip(estimates["a"]["cov"], estimates["b"]["cov"]):
            assert np.max(np.abs(r1 - r2)) <= 1e-12
        assert np.array_equal(estimates["a"]["snapped"], estimates["b"]["snapped"])
        assert np.max(np.abs(estimates["a"]["refined"] - estimates["b"]["refined"])) <= 1e-10

        # Eigendecomposition reconstructs its input.
        smoothed = spatial_smooth(covariance_to_coarray(
            exact_covariance(base, sources, 0.5), base))
        decomposition = signal_subspace(smoothed, 6)
        assert np.linalg.norm(
            decomposition.reconstruct() - smoothed.matrix
        ) <= 1e-10 * np.linalg.norm(smoothed.matrix)

        # Sample covariance converges to the exact one: 3 standard errors.
        snapshots = 100000
        conv = Scenario(layout=compose_type2(base, 1, 1), sources=sources,
                        noise_power=1.0, snapshots=snapshots)
        batch = simulate_snapshots(conv, rng=np.random.default_rng(0))
        estimate = sample_covariance(batch.matrices[0])
        exact = exact_covariance(base, sources, 1.0)
        diag = np.diag(exact).real
        standard_error = np.sqrt(np.outer(diag, diag) / snapshots)
        assert np.all(np.abs(estimate - exact) <= 3.0 * standard_error)

        # Worker count never changes sweep output.
        config = ExperimentConfig(
            geometries=("naq2-4-3",),
            n_subarrays=3,
            spacing=1,
            thetas=SIX_SOURCES,
            snapshots=100,
            snr_db_list=(0.0, 10.0),
            algorithms=("gca", "avca"),
            trials=3,
            seed=0,
        )
        assert sweep(config, workers=1) == sweep(config, workers=2)


def test_smoothing_window_count(report):
    """sdof = 29 for the 7-sensor nested subarray forces M = 15 windows."""
    with report("smoothing-window-count"):
        base = build_nested2(4, 3)
        profile = difference_coarray(base)
        assert profile.sdof == 29
        assert (profile.sdof + 1) // 2 == 15
        result = run_trial(
            ExperimentConfig(
                geometries=("naq2-4-3",), n_subarrays=3, spacing=1,
                thetas=SIX_SOURCES, snapshots=50, snr_db_list=(0.0,),
                algorithms=("gca",), trials=1, seed=0,
            ),
            0.0, "gca", 0,
        )
        smoothed = result.artifacts.smoothed
        assert smoothed.window == 15
        assert smoothed.matrix.shape == (3, 15, 15)  # one per subarray
