"""Experiment configs, trial execution, and RMSE sweeps."""

import csv
import dataclasses
import gc
import json
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparsedoa import estimators, harness
from sparsedoa.coarray import covariance_to_coarray, signal_subspace, spatial_smooth
from sparsedoa.errors import DegenerateCoarrayError, TooManySourcesError
from sparsedoa.estimators import avca_music, g_music, gca_music
from sparsedoa.harness import (
    RMSE_SENTINEL,
    ExperimentConfig,
    GeometrySpec,
    RmseCurve,
    rmse,
    run_trial,
    sweep,
    trial_seed_sequence,
)
from sparsedoa.sigmodel import (
    Scenario,
    SourceSet,
    noise_power_for_snr,
    sample_covariance,
    simulate_snapshots,
)


#: Draws per block of a sweep at L = 3 and the default grid of 2001 points.
BLOCK = harness._BLOCK_VALUES // (3 * 2001)


def small_config(**overrides):
    kwargs = dict(
        geometries=("naq2-4-3",),
        n_subarrays=3,
        spacing=1,
        thetas=(-0.7, -0.5, -0.3, 0.3, 0.5, 0.7),
        snapshots=100,
        snr_db_list=(10.0,),
        algorithms=("gca",),
        trials=4,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestGeometrySpec:
    @pytest.mark.parametrize(
        "label,kind,n_sensors",
        [("ula-5", "ula", 5), ("mra-7", "mra", 7), ("naq2-4-3", "naq2", 7),
         ("snaq2-3-2", "snaq2", 5)],
    )
    def test_parse_and_build(self, label, kind, n_sensors):
        spec = GeometrySpec(label)
        assert spec.kind == kind
        assert spec.label == label
        assert spec.build().n_sensors == n_sensors

    @pytest.mark.parametrize(
        "label",
        ["ula", "ula-2-3", "naq2-4", "ring-5", "mra-x",
         "mra-1_0", "ula-07", "ula- 7", "ula-+7", "naq2-4-\uff13",
         "ula-7.0", "naq2-4.5-3", "ula--7", "ULA-7", "", 7, None, ["ula-7"],
         {"kind": "naq2", "n1": 4, "n2": 3}, {"kind": "ula", "n": 7}],
    )
    def test_rejects_malformed_labels(self, label):
        forms = "ula-N, naq2-N1-N2, snaq2-N1-N2, mra-N"
        with pytest.raises(ValueError) as info:
            GeometrySpec(label)
        assert str(info.value) == f"malformed geometry label {label!r}; the forms are {forms}"

    @pytest.mark.parametrize(
        "label", ["ula-0", "naq2-0-3", "snaq2-2-3", "mra-11", "snaq2-30-2"]
    )
    def test_build_errors_name_the_geometry(self, label):
        spec = GeometrySpec(label)
        with pytest.raises(ValueError, match=f"^geometry '{label}': "):
            spec.build()

    def test_rejects_mismatched_parameters(self):
        with pytest.raises(ValueError, match="'ula-3-2'"):
            GeometrySpec("ula-3-2")
        with pytest.raises(ValueError, match="'naq2-7'"):
            GeometrySpec("naq2-7")

    @pytest.mark.parametrize("kind", ["ring", ["ula"], None])
    def test_rejects_unknown_kinds(self, kind):
        with pytest.raises(ValueError, match="^malformed geometry label"):
            GeometrySpec(kind)

    def test_unknown_dict_keys_are_value_errors(self):
        with pytest.raises(ValueError, match="malformed geometry label"):
            GeometrySpec({"kind": "ula", "sensors": 7})

    def test_specs_are_label_values(self):
        spec = GeometrySpec("snaq2-4-3")
        assert spec == GeometrySpec("snaq2-4-3") and hash(spec) == hash(GeometrySpec("snaq2-4-3"))
        assert (spec.kind, spec.sizes) == ("snaq2", (4, 3))
        assert small_config(geometries=(spec, "ula-7")).geometries == (spec, GeometrySpec("ula-7"))


class TestExperimentConfig:
    def test_from_dict_with_aliases(self):
        config = ExperimentConfig.from_dict(
            {
                "geometry": "naq2-4-3",
                "L": 3,
                "mu": 2,
                "thetas": [-0.5, 0.5],
                "T": 64,
                "snr_db": 5,
                "algorithm": "gca",
                "trials": 10,
                "seed": 7,
            }
        )
        assert config.geometries[0].label == "naq2-4-3"
        assert config.n_subarrays == 3
        assert config.spacing == 2
        assert config.snapshots == 64
        assert config.snr_db_list == (5.0,)
        assert config.algorithms == ("gca",)

    def test_from_dict_with_sweep_keys(self):
        config = ExperimentConfig.from_dict(
            {
                "geometries": ["ula-7", "mra-7"],
                "n_subarrays": 2,
                "thetas": [0.0],
                "snr_sweep": [-5, 0, 5],
                "algorithms": ["gca", "avca"],
            }
        )
        assert [g.label for g in config.geometries] == ["ula-7", "mra-7"]
        assert config.spacing == 1  # default
        assert config.snr_db_list == (-5.0, 0.0, 5.0)

    def test_rejects_unknown_and_conflicting_keys(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"geometry": "ula-7", "L": 1, "thetas": [0.0],
                                        "snr_db": 0, "typo_key": 1})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"geometry": "ula-7", "L": 1, "thetas": [0.0],
                                        "snr_db": 0, "snr_sweep": [0]})

    def test_rejects_missing_required_keys(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"L": 3, "thetas": [0.0], "snr_db": 0})

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"geometry": "ula-7", "L": 2, "thetas": [0.1],
                                    "snr_db": 0, "trials": 2}))
        config = ExperimentConfig.from_file(path)
        assert config.trials == 2

    def test_validates_fields(self):
        with pytest.raises(ValueError):
            small_config(algorithms=("fancy",))
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(n_subarrays=0)
        with pytest.raises(ValueError):
            small_config(thetas=(0.5, -0.5))

    @pytest.mark.parametrize(
        "key,value",
        [("trials", 2.5), ("trials", True), ("snapshots", 50.5), ("grid_size", 501.0),
         ("n_subarrays", 3.0), ("spacing", False), ("seed", 1.5), ("seed", "7"),
         ("seed", -1), ("grid_size", 2)],
    )
    def test_integer_fields_are_strict(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            small_config(**{key: value})

    @pytest.mark.parametrize("key,value", [("exact", "no"), ("exact", 1)])
    def test_flags_must_be_booleans(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            small_config(**{key: value})

    @pytest.mark.parametrize(
        "key,value",
        [("thetas", (-0.5, float("nan"))), ("thetas", ("0.5",)), ("thetas", 0.5),
         ("snr_db_list", (float("nan"),)), ("snr_db_list", (float("inf"),))],
    )
    def test_reals_must_be_finite_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            small_config(**{key: value})

    @pytest.mark.parametrize(
        "key,value,field",
        [("trials", 2.5, "trials"), ("trials", True, "trials"),
         ("snapshots", 50.5, "snapshots"), ("grid_size", 501.0, "grid_size"),
         ("exact", "no", "exact"), ("refine_peaks", "false", "refine_peaks"),
         ("thetas", [float("nan")], "thetas"), ("snr_db", [float("nan")], "snr_db_list"),
         ("geometry", 7, "geometries"), ("algorithms", 5, "algorithms")],
    )
    def test_from_dict_rejects_mistyped_values(self, key, value, field):
        data = {"geometry": "naq2-4-3", "L": 3, "thetas": [-0.5, 0.5], "snr_db": 0}
        data[key] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("overrides", [{"snr_db_list": (-4000.0,)}])
    def test_snrs_need_a_finite_noise_power(self, overrides):
        with pytest.raises(ValueError, match="'snr_db_list'"):
            small_config(**overrides)

    def test_snrs_below_the_floor_are_named(self):
        assert small_config(snr_db_list=(0.0, -1500.0)).snr_db_list == (0.0, -1500.0)
        with pytest.raises(ValueError, match="^'snr_db_list' must be at least -1500 dB"):
            small_config(snr_db_list=(0.0, -1500.5))

    @pytest.mark.parametrize(
        "key,value", [("source_power", 1.0), ("dedup_rule", "average"), ("refine_peaks", True)]
    )
    def test_source_power_is_not_a_config_key(self, key, value):
        data = {"geometry": "naq2-4-3", "L": 3, "thetas": [-0.5, 0.5], "snr_db": 0}
        with pytest.raises(ValueError, match=rf"^unknown config keys: \['{key}'\]$"):
            ExperimentConfig.from_dict({**data, key: value})
        assert len(dataclasses.fields(ExperimentConfig)) == 11

    def test_numpy_integers_become_ints(self):
        config = small_config(trials=np.int64(3), seed=np.uint8(5))
        assert type(config.trials) is int and type(config.seed) is int
        assert config == small_config(trials=3, seed=5)

    @pytest.mark.parametrize(
        "key,value,field",
        [("geometries", [], "geometries"), ("thetas", [], "thetas"),
         ("snr_sweep", [], "snr_db_list"), ("algorithms", [], "algorithms"),
         ("algorithms", ["fancy"], "algorithms"), ("algorithms", "gca,avca", "algorithms"),
         ("geometries", {"kind": "ula", "n": 7}, "geometries"),
         ("geometries", ["ula-07"], "geometries"),
         ("thetas", [0.5, -0.5], "thetas"), ("thetas", [2.0], "thetas"),
         ("thetas", [0.1, 0.1], "thetas"), ("geometries", "ring-5", "geometries"),
         ("geometries", {"kind": "ula"}, "geometries")],
    )
    def test_every_rejection_names_its_key(self, key, value, field):
        data = {"geometries": ["naq2-4-3"], "L": 3, "thetas": [-0.5, 0.5], "snr_sweep": [0]}
        with pytest.raises(ValueError, match=f"^'{field}'"):
            ExperimentConfig.from_dict({**data, key: value})

    @pytest.mark.parametrize("thetas", [(1.0,), (-1.0, 0.0, 1.0), (-1.0, 1.0), (-1.5, 0.0)])
    def test_thetas_lie_in_the_half_open_domain(self, thetas):
        with pytest.raises(ValueError, match=r"^'thetas' must lie in \[-1, 1\)"):
            small_config(thetas=thetas)

    def test_thetas_domain_keeps_its_endpoint_and_its_inside(self):
        assert small_config(thetas=(-1.0, 0.0, 0.999)).thetas == (-1.0, 0.0, 0.999)


def library_estimates(layout, sources, noise_power, seed):
    """gca, avca and gmusic estimates of one draw, from the public pipeline."""
    scenario = Scenario(layout, sources, noise_power, 100)
    batch = simulate_snapshots(scenario, rng=np.random.default_rng(seed))
    covariances = tuple(sample_covariance(batch.matrices))
    d = sources.count
    subspaces = [
        signal_subspace(spatial_smooth(covariance_to_coarray(r, layout.base)), d)
        for r in covariances
    ]
    return {
        "gca": gca_music(subspaces, d)[1].thetas,
        "avca": avca_music(subspaces, d)[1].thetas,
        "gmusic": g_music(covariances, layout, d)[1].thetas,
    }


class TestScaleInvariance:
    """Scaling every source and noise power by c moves no estimate.

    The subspaces and merged spectra depend on the covariances only up to a
    common scale, so the SNR alone, not the absolute source power, is a
    parameter of an experiment.
    """

    @pytest.mark.parametrize("scale", [1e-200, 1e-3, 7.5, 1e100])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 20.0])
    @pytest.mark.parametrize("label", ["naq2-4-3", "mra-7"])
    def test_estimates_ignore_a_common_power_scale(self, label, snr_db, scale):
        layout = small_config(geometries=(label,)).layout()
        thetas = (-0.6, -0.2, 0.3, 0.7)
        for seed in range(5):
            unit = library_estimates(layout, SourceSet.equal_power(thetas),
                                     noise_power_for_snr(snr_db), seed)
            scaled = library_estimates(layout, SourceSet.equal_power(thetas, power=scale),
                                       noise_power_for_snr(snr_db, scale), seed)
            for algorithm, estimate in unit.items():
                np.testing.assert_allclose(scaled[algorithm], estimate, rtol=0, atol=1e-9)


class TestRmse:
    def test_reference_value(self):
        # One trial, two sources, summed squared error 0.25.
        assert rmse([0.25], 2) == pytest.approx(np.sqrt(0.125))

    def test_averages_over_trials_and_sources(self):
        assert rmse([0.02, 0.04], 3) == pytest.approx(np.sqrt(0.01))

    def test_sentinel_when_nothing_succeeded(self):
        assert rmse([], 6) == RMSE_SENTINEL


class TestTrialSeeding:
    def test_streams_differ_across_coordinates(self):
        draws = set()
        for key in [(0, 0.0, 0), (1, 0.0, 0), (0, 5.0, 0), (0, 0.0, 1)]:
            rng = np.random.default_rng(trial_seed_sequence(0, *key))
            draws.add(float(rng.standard_normal()))
        assert len(draws) == 4

    def test_stream_is_reproducible(self):
        r1 = np.random.default_rng(trial_seed_sequence(3, 1, -5.0, 9))
        r2 = np.random.default_rng(trial_seed_sequence(3, 1, -5.0, 9))
        assert r1.standard_normal() == r2.standard_normal()


class TestRunTrial:
    def test_snr_without_a_finite_noise_power_is_named(self):
        with pytest.raises(ValueError, match="'snr_db'"):
            run_trial(small_config(), -4000.0, "gca", 0)

    def test_snr_below_the_floor_is_named(self):
        with pytest.raises(ValueError, match="^'snr_db' must be at least -1500 dB"):
            run_trial(small_config(), -1500.5, "gca", 0)

    @pytest.mark.parametrize("snapshots", [100, 100_000])
    @pytest.mark.parametrize("geometry", ["naq2-4-3", "mra-9"])
    def test_the_snr_floor_runs_without_overflow(self, geometry, snapshots):
        config = small_config(geometries=(geometry,), thetas=(-0.5, 0.0, 0.5),
                              snapshots=snapshots, snr_db_list=(-1500.0,))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for algorithm in ("gca", "gmusic", "avca"):
                result = run_trial(config, -1500.0, algorithm, 0)
                assert np.all(np.isfinite(result.estimate.thetas))
                for s in result.artifacts.subspaces:
                    assert np.all(np.isfinite(s.eigenvalues))

    def test_deterministic(self):
        config = small_config()
        a = run_trial(config, 10.0, "gca", 2)
        b = run_trial(config, 10.0, "gca", 2)
        assert np.array_equal(a.estimate.thetas, b.estimate.thetas)
        assert a.squared_error == b.squared_error

    def test_algorithms_share_trial_data(self):
        """Matched trials reuse the same snapshots across algorithms."""
        config = small_config(algorithms=("gca", "avca", "gmusic"))
        collected = {
            name: run_trial(config, 10.0, name, 1)
            for name in ("gca", "avca", "gmusic")
        }
        reference = collected["gca"].artifacts.covariances
        for name in ("avca", "gmusic"):
            for r1, r2 in zip(reference, collected[name].artifacts.covariances):
                assert np.array_equal(r1, r2)

    @pytest.mark.parametrize("algorithm", ["gca", "gmusic"])
    def test_memoised_arrays_are_read_only(self, algorithm):
        config = small_config(thetas=(-0.5, 0.5))
        artifacts = run_trial(config, 10.0, algorithm, 0).artifacts
        shared = [*artifacts.covariances,
                  *(s.values for s in artifacts.coarray_signals),
                  *(s.matrix for s in artifacts.smoothed),
                  *(s.signal_basis for s in artifacts.subspaces),
                  *(s.eigenvalues for s in artifacts.subspaces)]
        assert len(shared) == (3 if algorithm == "gmusic" else 15)
        for array in shared:
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_collect_gathers_artifacts(self):
        config = small_config()
        result = run_trial(config, 10.0, "gca", 0)
        artifacts = result.artifacts
        assert len(artifacts.covariances) == 3
        assert len(artifacts.coarray_signals) == 3
        assert artifacts.smoothed[0].window == 15
        assert artifacts.spectrum.values.size == config.grid_size

    def test_trials_never_build_the_smoothed_matrix(self):
        artifacts = run_trial(small_config(), 10.0, "gca", 0).artifacts
        assert all("matrix" not in vars(s) for s in artifacts.smoothed)

    def test_gmusic_skips_coarray_artifacts(self):
        config = small_config(thetas=(-0.5, 0.5))
        result = run_trial(config, 10.0, "gmusic", 0)
        assert result.artifacts.coarray_signals == ()
        assert result.artifacts.smoothed == ()

    def test_exact_mode_ignores_seed(self):
        config_a = small_config(exact=True, seed=1)
        config_b = small_config(exact=True, seed=2)
        a = run_trial(config_a, 0.0, "gca", 0)
        b = run_trial(config_b, 0.0, "gca", 0)
        assert np.array_equal(a.estimate.thetas, b.estimate.thetas)

    def test_too_many_sources_propagates(self):
        config = small_config(thetas=tuple(np.linspace(-0.8, 0.8, 7)))
        with pytest.raises(TooManySourcesError):
            run_trial(config, 10.0, "gmusic", 0)

    def test_bad_arguments(self):
        config = small_config()
        with pytest.raises(ValueError):
            run_trial(config, 10.0, "esprit", 0)
        with pytest.raises(ValueError):
            run_trial(config, 10.0, "gca", 0, geometry_index=5)

    @pytest.mark.parametrize(
        "snr_db,trial_index,key",
        [(float("nan"), 0, "snr_db"), (float("inf"), 0, "snr_db"), ("10", 0, "snr_db"),
         (10.0, -1, "trial_index"), (10.0, 1.0, "trial_index"), (10.0, True, "trial_index")],
    )
    @pytest.mark.parametrize("exact", [False, True])
    def test_rejects_bad_snr_and_trial_naming_the_key(self, snr_db, trial_index, key, exact):
        config = small_config(exact=exact)
        with pytest.raises(ValueError, match=repr(key)):
            run_trial(config, snr_db, "gca", trial_index)

    def test_rejects_non_integer_geometry_index(self):
        config = small_config(geometries=("ula-5", "naq2-4-3"))
        with pytest.raises(ValueError, match="'geometry_index'"):
            run_trial(config, 10.0, "gca", 0, geometry_index=1.0)


def cell_reference(config, geometry_index, algorithm, snr_db):
    """One (geometry, algorithm, SNR) cell computed on its own, trial by trial."""
    errors = []
    failures = 0
    for trial_index in range(config.trials):
        try:
            result = run_trial(config, snr_db, algorithm, trial_index, geometry_index)
        except (TooManySourcesError, DegenerateCoarrayError):
            failures += 1
            continue
        if result.failed:
            failures += 1
        else:
            errors.append(result.squared_error)
    return RmseCurve(config.geometries[geometry_index].label, algorithm, snr_db,
                     config.trials, failures, rmse(errors, config.n_sources))


def cell_references(config):
    return [
        cell_reference(config, gi, algorithm, snr)
        for gi in range(len(config.geometries))
        for algorithm in config.algorithms
        for snr in config.snr_db_list
    ]


class TestDrawSharing:
    @pytest.fixture
    def counters(self, monkeypatch):
        calls = {"simulate": 0, "subspace": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "simulate_snapshots",
                            counted("simulate", harness.simulate_snapshots))
        monkeypatch.setattr(harness, "signal_subspace",
                            counted("subspace", harness.signal_subspace))
        return calls

    def test_each_draw_is_simulated_and_decomposed_once(self, counters):
        """Each draw is simulated once; each block makes one coarray and one physical
        decomposition for all its draws."""
        config = small_config(algorithms=("gca", "gmusic", "avca"),
                              snr_db_list=(0.0, 10.0), trials=BLOCK - 1)
        curves = sweep(config)
        draws = len(config.snr_db_list) * config.trials
        blocks = -(-draws // BLOCK)
        assert blocks == 2
        assert counters == {"simulate": draws, "subspace": 2 * blocks}
        assert curves == cell_references(config)

    def test_repeated_sweeps_reuse_nothing(self, counters):
        config = small_config(snr_db_list=(10.0,), trials=1)
        assert sweep(config) == sweep(config)
        assert counters["simulate"] == 2

    def test_a_cold_trial_simulates_only_its_own_draw(self, counters):
        harness._scenario.cache_clear()
        run_trial(small_config(trials=200), 10.0, "gca", 7)
        assert counters["simulate"] == 1

    def test_sweeps_and_trials_leave_no_reference_cycles(self):
        """Memo objects that point at each other would keep dead draws until a collection."""
        config = small_config(algorithms=("gca", "gmusic", "avca"),
                              snr_db_list=(0.0, 10.0), trials=2)
        gc.collect()
        gc.disable()
        try:
            sweep(config)
            for algorithm in config.algorithms:
                run_trial(config, 10.0, algorithm, 0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_repeated_positions_keep_their_own_rows(self):
        config = small_config(geometries=("ula-7", "naq2-4-3", "ula-7"),
                              algorithms=("gca", "avca", "gca"),
                              snr_db_list=(10.0, 0.0, 10.0), trials=2)
        curves = sweep(config)
        assert curves == cell_references(config)
        assert [c.geometry for c in curves[::9]] == ["ula-7", "naq2-4-3", "ula-7"]
        # Same label, different geometry index: a different keyed draw.
        assert curves[0].rmse != curves[18].rmse
        # Repeated algorithm and SNR positions repeat their numbers.
        assert curves[0] == curves[6] and curves[0] == curves[2]

    def test_signed_zero_snrs_draw_different_data(self):
        config = small_config(snr_db_list=(0.0, -0.0), trials=1)
        curves = sweep(config)
        assert curves == cell_references(config)
        assert curves[0].rmse != curves[1].rmse


class TestBlocks:
    """A sweep runs each geometry's draws in blocks; no row may depend on where they split."""

    @pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("exact", [False, True])
    def test_rows_equal_the_one_draw_path(self, trials, exact):
        config = small_config(geometries=("ula-7", "naq2-4-3", "ula-7"),
                              algorithms=harness.ALGORITHMS, trials=trials, exact=exact)
        assert sweep(config) == cell_references(config)

    def test_blocks_spanning_signed_zero_and_repeated_snrs(self):
        config = small_config(algorithms=("avca", "gmusic", "gca", "avca"),
                              snr_db_list=(0.0, -0.0, 10.0, 0.0), trials=BLOCK // 2 + 1)
        curves = sweep(config)
        assert curves == cell_references(config)
        assert curves == sweep(config, workers=2)
        assert curves[0] == curves[3] and curves[0].rmse != curves[1].rmse

    def test_exact_covariances_are_built_once_per_geometry_and_snr(self, monkeypatch):
        calls = []
        exact_covariance = harness.exact_covariance
        monkeypatch.setattr(harness, "exact_covariance",
                            lambda *args: calls.append(args) or exact_covariance(*args))
        config = small_config(exact=True, algorithms=harness.ALGORITHMS,
                              snr_db_list=(0.0, 10.0), trials=2 * BLOCK + 3)
        sweep(config)
        assert len(calls) == 2

    def test_unidentifiable_cells_simulate_nothing(self, monkeypatch):
        simulated = []
        simulate = harness.simulate_snapshots
        monkeypatch.setattr(harness, "simulate_snapshots",
                            lambda *args, **kw: simulated.append(1) or simulate(*args, **kw))
        seven = tuple(np.linspace(-0.8, 0.8, 7))  # as many sources as naq2-4-3 has sensors
        (curve,) = sweep(small_config(thetas=seven, algorithms=("gmusic",), trials=3))
        assert simulated == []
        assert (curve.failures, curve.rmse) == (3, RMSE_SENTINEL)
        # ula-1 has no coarray lag beyond 0; gca still runs on naq2-4-3.
        config = small_config(geometries=("ula-1", "naq2-4-3"), thetas=seven,
                              algorithms=harness.ALGORITHMS, trials=3)
        curves = sweep(config)
        assert len(simulated) == 3
        assert [c.failures for c in curves] == [3, 3, 3, 0, 3, 0]
        with pytest.raises(DegenerateCoarrayError):
            run_trial(config, 10.0, "gca", 0, 0)
        with pytest.raises(TooManySourcesError):
            run_trial(config, 10.0, "gmusic", 0, 1)
        assert len(simulated) == 3

    def test_gca_and_avca_share_one_deficit_stack_per_block(self, monkeypatch):
        calls = []
        deficits = estimators._deficits
        monkeypatch.setattr(estimators, "_deficits",
                            lambda *args: calls.append(1) or deficits(*args))
        sweep(small_config(algorithms=("gca", "avca"), trials=BLOCK + 1))
        assert len(calls) == 2

    def test_peak_memory_does_not_grow_with_the_trial_count(self):
        config = small_config(algorithms=harness.ALGORITHMS, snr_db_list=(0.0,))
        sweep(dataclasses.replace(config, trials=2))  # fill the caches
        peaks = []
        for trials in (20, 200):
            tracemalloc.start()
            try:
                sweep(dataclasses.replace(config, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestSweep:
    def test_unbuildable_geometry_fails_before_any_trial(self, monkeypatch, tmp_path):
        groups = []
        run_block = harness._run_block

        def recorded(config, task):
            groups.append(task)
            return run_block(config, task)

        monkeypatch.setattr(harness, "_run_block", recorded)
        out = tmp_path / "curves.csv"
        out.write_bytes(b"previous results\n")
        config = small_config(geometries=("ula-7", "mra-11"), trials=1)
        with pytest.raises(ValueError, match="'mra-11'"):
            sweep(config, out_path=out)
        assert groups == []
        assert out.read_bytes() == b"previous results\n"

    @pytest.mark.parametrize("workers", [2.5, "2", None, True, 0, -1])
    def test_bad_workers_fail_before_any_trial(self, monkeypatch, tmp_path, workers):
        groups = []
        monkeypatch.setattr(harness, "_run_block", lambda config, task: groups.append(task))
        out = tmp_path / "curves.csv"
        out.write_bytes(b"previous results\n")
        with pytest.raises(ValueError, match="'workers'"):
            sweep(small_config(trials=1), out_path=out, workers=workers)
        assert groups == []
        assert out.read_bytes() == b"previous results\n"

    def test_returns_cells_in_config_order(self):
        config = small_config(
            geometries=("ula-7", "naq2-4-3"),
            algorithms=("gca", "avca"),
            snr_db_list=(0.0, 10.0),
            trials=2,
        )
        curves = sweep(config)
        assert len(curves) == 8
        assert [(c.geometry, c.algorithm, c.snr_db) for c in curves[:3]] == [
            ("ula-7", "gca", 0.0),
            ("ula-7", "gca", 10.0),
            ("ula-7", "avca", 0.0),
        ]
        for c in curves:
            assert isinstance(c, RmseCurve)
            assert c.trials == 2
            assert 0 <= c.failures <= c.trials

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "curves.csv"
        config = small_config(trials=2, snr_db_list=(0.0, 10.0))
        curves = sweep(config, out_path=out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["geometry", "algorithm", "snr_db", "trials", "failures", "rmse"]
        assert len(rows) == 1 + len(curves)
        for row, curve in zip(rows[1:], curves):
            assert row[0] == curve.geometry
            assert row[1] == curve.algorithm
            assert float(row[2]) == curve.snr_db
            assert int(row[3]) == curve.trials
            assert int(row[4]) == curve.failures
            assert float(row[5]) == pytest.approx(curve.rmse, rel=1e-8)

    def test_worker_count_does_not_change_results(self):
        config = small_config(
            algorithms=("gca", "avca"), snr_db_list=(0.0, 10.0), trials=3
        )
        serial = sweep(config, workers=1)
        parallel = sweep(config, workers=2)
        assert serial == parallel  # exact float equality, not approx

    def test_all_failures_report_sentinel(self):
        config = small_config(
            thetas=tuple(np.linspace(-0.8, 0.8, 7)),
            algorithms=("gmusic",),
            trials=3,
        )
        (curve,) = sweep(config)
        assert curve.failures == 3
        assert curve.rmse == RMSE_SENTINEL

    def test_failed_sweep_keeps_an_existing_file(self, monkeypatch, tmp_path):
        run_block = harness._run_block
        groups = []

        def second_block_fails(config, task):
            groups.append(task)
            if len(groups) == 2:
                raise KeyboardInterrupt
            return run_block(config, task)

        monkeypatch.setattr(harness, "_run_block", second_block_fails)
        out = tmp_path / "curves.csv"
        out.write_bytes(b"previous results\n")
        with pytest.raises(KeyboardInterrupt):
            sweep(small_config(snr_db_list=(0.0, 10.0), trials=BLOCK), out_path=out)
        assert len(groups) == 2
        assert out.read_bytes() == b"previous results\n"

    def test_rewrites_an_existing_file(self, tmp_path):
        out = tmp_path / "curves.csv"
        out.write_text("x" * 10_000)
        config = small_config(trials=1)
        sweep(config, out_path=out)
        fresh = tmp_path / "fresh.csv"
        sweep(config, out_path=fresh)
        assert out.read_bytes() == fresh.read_bytes()

    def test_writes_to_a_device(self):
        config = small_config(trials=1)
        assert sweep(config, out_path=os.devnull) == sweep(config)

    def test_unbuildable_geometry_names_its_key(self):
        with pytest.raises(ValueError, match=r"^'geometries': geometry 'mra-11': "):
            sweep(small_config(geometries=("ula-7", "mra-11"), trials=1))

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        config = small_config(trials=1)
        with pytest.raises(OSError):
            sweep(config, out_path=tmp_path / "missing" / "curves.csv")


ROOT = Path(__file__).resolve().parents[1]

# (geometry, algorithm, snr_db, failures, rmse) of the keyed sweeps in
# test_keyed_sweep_golden_rows.  Keyed draws make sweeps reproducible to the
# last bit, so a refactor must leave these rows as they are; a change to
# them is a change of results.
KEYED_SWEEP_GOLDEN = [
    ("naq2-4-3", "gca", -10.0, 0, 0.006571025975754972),
    ("naq2-4-3", "gca", 20.0, 0, 0.0018066749276369697),
    ("naq2-4-3", "gmusic", -10.0, 0, 0.03669500620814225),
    ("naq2-4-3", "gmusic", 20.0, 0, 0.14911446575497717),
    ("naq2-4-3", "avca", -10.0, 0, 0.07518477032209145),
    ("naq2-4-3", "avca", 20.0, 0, 0.20892862964635084),
    ("naq2-4-3", "gca", -10.0, 0, 0.00953737220411285),
    ("naq2-4-3", "gca", -5.0, 0, 0.00603932767341984),
    ("naq2-4-3", "gca", 0.0, 0, 0.005556890784343871),
    ("naq2-4-3", "gca", 5.0, 0, 0.005124042483419461),
    ("naq2-4-3", "gca", 10.0, 0, 0.004565028708723374),
    ("naq2-4-3", "gca", 15.0, 0, 0.004246072575969033),
    ("naq2-4-3", "gca", 20.0, 0, 0.004713345171488706),
    ("naq2-4-3", "gmusic", -10.0, 3, 2.0),
    ("naq2-4-3", "gmusic", -5.0, 3, 2.0),
    ("naq2-4-3", "gmusic", 0.0, 3, 2.0),
    ("naq2-4-3", "gmusic", 5.0, 3, 2.0),
    ("naq2-4-3", "gmusic", 10.0, 3, 2.0),
    ("naq2-4-3", "gmusic", 15.0, 3, 2.0),
    ("naq2-4-3", "gmusic", 20.0, 3, 2.0),
]

# The same at trials=2 for the widest coarrays (M = 24 and 30, lags up to 29)
# and for every geometry of the geometry comparison.
WIDE_KEYED_SWEEP_GOLDEN = [
    ("snaq2-5-4", "gca", -5.0, 0, 0.003549726557612411),
    ("snaq2-5-4", "gca", 20.0, 0, 0.002503749235265599),
    ("snaq2-5-4", "avca", -5.0, 0, 0.2389163332456338),
    ("snaq2-5-4", "avca", 20.0, 0, 0.0809777467299582),
    ("mra-9", "gca", -5.0, 0, 0.001682688315763054),
    ("mra-9", "gca", 20.0, 0, 0.001382400433732001),
    ("mra-9", "avca", -5.0, 0, 0.13989514526500266),
    ("mra-9", "avca", 20.0, 0, 0.16477860013080536),
    ("ula-7", "gca", -10.0, 0, 0.046198926672359523),
    ("ula-7", "gca", 20.0, 0, 0.005085634116031139),
    ("naq2-4-3", "gca", -10.0, 0, 0.008669967335164347),
    ("naq2-4-3", "gca", 20.0, 0, 0.0033909888896121896),
    ("snaq2-4-3", "gca", -10.0, 0, 0.007216433518051235),
    ("snaq2-4-3", "gca", 20.0, 0, 0.0028063075171823435),
    ("mra-7", "gca", -10.0, 0, 0.006001506957431266),
    ("mra-7", "gca", 20.0, 0, 0.003111372541477803),
]


def test_keyed_sweep_golden_rows():
    """Keyed draws make a sweep reproducible to the last bit: pin four of them."""
    sweeps = [
        ("configs/naq2_algorithms.json", {"trials": 3, "snr_sweep": [-10, 20]}),
        ("configs/oversubscribed.json", {"trials": 3}),
        ("bench/wide_coarray.json", {"trials": 2, "snr_sweep": [-5, 20]}),
        ("configs/geometry_comparison.json", {"trials": 2, "snr_sweep": [-10, 20]}),
    ]
    rows = []
    for name, override in sweeps:
        data = json.loads((ROOT / name).read_text())
        curves = sweep(ExperimentConfig.from_dict({**data, **override}))
        rows += [(curve, override["trials"]) for curve in curves]
    golden = KEYED_SWEEP_GOLDEN + WIDE_KEYED_SWEEP_GOLDEN
    assert len(rows) == len(golden)
    for (curve, trials), (geometry, algorithm, snr_db, failures, value) in zip(rows, golden):
        assert (curve.geometry, curve.algorithm, curve.snr_db) == (geometry, algorithm, snr_db)
        assert curve.trials == trials
        assert curve.failures == failures
        assert curve.rmse == pytest.approx(value, rel=1e-9)
