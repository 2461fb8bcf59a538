"""Experiment configs, trial execution, and RMSE sweeps."""

import csv
import json

import numpy as np
import pytest

from sparsedoa import harness
from sparsedoa.errors import DegenerateCoarrayError, TooManySourcesError
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
        spec = GeometrySpec.parse(label)
        assert spec.kind == kind
        assert spec.label == label
        assert spec.build().n_sensors == n_sensors

    def test_from_value_accepts_dicts(self):
        spec = GeometrySpec.from_value({"kind": "naq2", "n1": 4, "n2": 3})
        assert spec.label == "naq2-4-3"

    @pytest.mark.parametrize("label", ["ula", "ula-2-3", "naq2-4", "ring-5", "mra-x"])
    def test_rejects_malformed_labels(self, label):
        with pytest.raises(ValueError):
            GeometrySpec.parse(label)

    def test_rejects_mismatched_parameters(self):
        with pytest.raises(ValueError):
            GeometrySpec("ula", n1=3, n2=2)
        with pytest.raises(ValueError):
            GeometrySpec("naq2", n=7)

    @pytest.mark.parametrize(
        "key,value",
        [("n", {"kind": "ula", "n": 7.0}), ("n", {"kind": "mra", "n": True}),
         ("n1", {"kind": "naq2", "n1": 4.5, "n2": 3}),
         ("n2", {"kind": "snaq2", "n1": 4, "n2": "3"})],
    )
    def test_sizes_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            GeometrySpec.from_value(value)

    def test_unknown_dict_keys_are_value_errors(self):
        with pytest.raises(ValueError, match="cannot interpret geometry"):
            GeometrySpec.from_value({"kind": "ula", "sensors": 7})


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
                "geometries": ["ula-7", {"kind": "mra", "n": 7}],
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

    @pytest.mark.parametrize(
        "key,value", [("exact", "no"), ("exact", 1), ("refine_peaks", "false")]
    )
    def test_flags_must_be_booleans(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            small_config(**{key: value})

    @pytest.mark.parametrize(
        "key,value",
        [("thetas", (-0.5, float("nan"))), ("thetas", ("0.5",)), ("thetas", 0.5),
         ("snr_db_list", (float("nan"),)), ("snr_db_list", (float("inf"),)),
         ("source_power", float("nan")), ("source_power", float("inf"))],
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

    def test_rejects_unknown_dedup_rule(self):
        with pytest.raises(ValueError, match="dedup rule"):
            small_config(dedup_rule="median")

    def test_numpy_integers_become_ints(self):
        config = small_config(trials=np.int64(3), seed=np.uint8(5))
        assert type(config.trials) is int and type(config.seed) is int
        assert config == small_config(trials=3, seed=5)


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
            name: run_trial(config, 10.0, name, 1, collect=True)
            for name in ("gca", "avca", "gmusic")
        }
        reference = collected["gca"].artifacts.covariances
        for name in ("avca", "gmusic"):
            for r1, r2 in zip(reference, collected[name].artifacts.covariances):
                assert np.array_equal(r1, r2)

    @pytest.mark.parametrize("algorithm", ["gca", "gmusic"])
    def test_memoised_arrays_are_read_only(self, algorithm):
        config = small_config(thetas=(-0.5, 0.5))
        artifacts = run_trial(config, 10.0, algorithm, 0, collect=True).artifacts
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
        result = run_trial(config, 10.0, "gca", 0, collect=True)
        artifacts = result.artifacts
        assert len(artifacts.covariances) == 3
        assert len(artifacts.coarray_signals) == 3
        assert artifacts.smoothed[0].window == 15
        assert artifacts.spectrum.values.size == config.grid_size
        assert run_trial(config, 10.0, "gca", 0).artifacts is None

    def test_gmusic_skips_coarray_artifacts(self):
        config = small_config(thetas=(-0.5, 0.5))
        result = run_trial(config, 10.0, "gmusic", 0, collect=True)
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
        config = small_config(algorithms=("gca", "gmusic", "avca"),
                              snr_db_list=(0.0, 10.0), trials=2)
        curves = sweep(config)
        draws = len(config.snr_db_list) * config.trials
        assert counters == {"simulate": draws, "subspace": draws * config.n_subarrays}
        assert curves == cell_references(config)

    def test_repeated_sweeps_reuse_nothing(self, counters):
        config = small_config(snr_db_list=(10.0,), trials=1)
        assert sweep(config) == sweep(config)
        assert counters["simulate"] == 2

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


class TestSweep:
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

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        config = small_config(trials=1)
        with pytest.raises(OSError):
            sweep(config, out_path=tmp_path / "missing" / "curves.csv")
