"""Command-line interface behavior and exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsedoa
from sparsedoa import geometry, harness
from sparsedoa.cli import build_parser, main
from sparsedoa.coarray import (
    _fix_vector_phases,
    covariance_to_coarray,
    signal_subspace,
    spatial_smooth,
)
from sparsedoa.estimators import avca_music, gca_music
from sparsedoa.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(
        json.dumps(
            {
                "geometry": "naq2-4-3",
                "L": 3,
                "mu": 1,
                "thetas": [-0.7, -0.5, -0.3, 0.3, 0.5, 0.7],
                "snapshots": 100,
                "snr_sweep": [0, 10],
                "algorithms": ["gca", "avca"],
                "trials": 3,
                "seed": 0,
            }
        )
    )
    return path


class TestGeometryCommand:
    def test_reports_layout_and_coarray(self, capsys):
        code = main(["geometry", "mra-7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "positions: 0 1 2 3 8 13 17" in out
        assert "sdof: 35" in out
        assert "hole-free: yes" in out

    def test_composition_reports_dof_bound(self, capsys):
        code = main(["geometry", "naq2-4-3", "--L", "3", "--mu", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "subarray offsets: 0 15 30" in out
        assert "dof bound: 89" in out
        assert "whole-array sdof: 89" in out
        # Weight lines are tab-separated "lag<TAB>weight" pairs.
        lines = out[out.index("lag\tweight"):].strip().splitlines()[1:]
        weights = dict(tuple(map(int, line.split("\t"))) for line in lines)
        assert weights[0] == 21
        assert len(weights) == 45  # non-negative half of 89 lags

    def test_missing_size_flags_fail_cleanly(self, capsys):
        code = main(["geometry", "naq2-7"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed geometry label 'naq2-7'")

    @pytest.mark.parametrize("label", ["ring-5", "ula-07", "mra-7.0", "ula"])
    def test_malformed_labels_exit_one(self, capsys, label):
        code = main(["geometry", label])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: malformed geometry label '{label}'")

    def test_parent_beyond_the_sensor_limit_exits_one(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a parent beyond the limit")

        monkeypatch.setattr(geometry, "_hole_free_arrays", no_search)
        code = main(["geometry", "snaq2-30-2"])
        assert code == 1
        assert "geometry 'snaq2-30-2': " in capsys.readouterr().err

    def test_options_are_the_label_l_and_mu(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        options = [a.dest for a in commands.choices["geometry"]._actions if a.dest != "help"]
        assert options == ["label", "L", "mu"]


class TestRunCommand:
    def test_prints_estimates(self, capsys, config_path):
        code = main(["run", "--config", str(config_path), "--algorithm", "gca"])
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm: gca" in out
        assert "snr_db: 0" in out
        assert out.count("(peak") == 6
        assert "squared error:" in out

    def test_snr_override(self, capsys, config_path):
        code = main(["run", "--config", str(config_path), "--algorithm", "gca",
                     "--snr", "10"])
        assert code == 0
        assert "snr_db: 10" in capsys.readouterr().out

    def test_dump_spectrum(self, tmp_path, config_path):
        out_csv = tmp_path / "spectrum.csv"
        code = main(["run", "--config", str(config_path), "--algorithm", "gca",
                     "--dump-spectrum", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["theta", "value"]
        assert len(rows) == 1 + 2001
        assert float(rows[1][0]) == -1.0

    def test_dump_intermediates(self, tmp_path, config_path):
        out_npz = tmp_path / "inner.npz"
        code = main(["run", "--config", str(config_path), "--algorithm", "gca",
                     "--dump-intermediates", str(out_npz)])
        assert code == 0
        with np.load(out_npz) as data:
            assert data["covariances"].shape == (3, 7, 7)
            assert data["smoothed"].shape == (3, 15, 15)
            assert data["signal_bases"].shape == (3, 15, 6)
            assert data["estimates"].shape == (6,)

    def test_dump_intermediates_per_algorithm(self, tmp_path, config_path):
        dumps = {}
        for algorithm in ("gca", "avca", "gmusic"):
            out_npz = tmp_path / f"{algorithm}.npz"
            code = main(["run", "--config", str(config_path), "--algorithm", algorithm,
                         "--dump-intermediates", str(out_npz)])
            assert code == 0
            with np.load(out_npz) as data:
                dumps[algorithm] = {key: data[key] for key in data.files}
        physical = {"covariances", "spectrum_thetas", "spectrum_values", "estimates"}
        coarray = {"coarray_lags", "coarray_values", "smoothed", "signal_bases", "eigenvalues"}
        assert set(dumps["gmusic"]) == physical
        assert set(dumps["gca"]) == set(dumps["avca"]) == physical | coarray
        for key in physical | coarray:
            assert dumps["avca"][key].shape == dumps["gca"][key].shape
        for key in coarray | {"covariances"}:
            assert np.array_equal(dumps["avca"][key], dumps["gca"][key])
        assert np.array_equal(dumps["gmusic"]["covariances"], dumps["gca"]["covariances"])

    @pytest.mark.parametrize("algorithm,music", [("gca", gca_music), ("avca", avca_music)])
    @pytest.mark.parametrize(
        "config,flags",
        [("configs/exact_recovery.json", []), ("configs/naq2_algorithms.json", ["--trial", "5"])],
    )
    def test_dump_is_the_public_stacked_pipeline(self, tmp_path, config, flags, algorithm,
                                                 music):
        """The dumped covariances, run through the library's stages, give every other
        array of the dump bit for bit: the CLI, the library and the sweep share one path."""
        path = tmp_path / "inner.npz"
        assert main(["run", "--config", str(ROOT / config), "--algorithm", algorithm, *flags,
                     "--dump-intermediates", str(path)]) == 0
        with np.load(path) as data:
            dump = {key: data[key] for key in data.files}
        experiment = ExperimentConfig.from_file(ROOT / config)
        signal = covariance_to_coarray(dump["covariances"], experiment.layout().base)
        smoothed = spatial_smooth(signal)
        subspaces = signal_subspace(smoothed, experiment.n_sources)
        spectrum, estimate = music(subspaces, experiment.n_sources, experiment.grid_size)
        assert dump["covariances"].shape == (experiment.n_subarrays, 7, 7)
        assert np.array_equal(dump["coarray_lags"], signal.lags)
        assert np.array_equal(dump["coarray_values"], signal.values)
        assert np.array_equal(dump["smoothed"], smoothed.matrix)
        assert np.array_equal(dump["signal_bases"], _fix_vector_phases(subspaces.signal_basis))
        assert np.array_equal(dump["eigenvalues"], subspaces.eigenvalues)
        assert np.array_equal(dump["spectrum_thetas"], spectrum.thetas)
        assert np.array_equal(dump["spectrum_values"], spectrum.values)
        assert np.array_equal(dump["estimates"], estimate.thetas)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_direction_at_one_exits_one(self, capsys, config_path, tmp_path, command):
        data = json.loads(config_path.read_text())
        data["thetas"] = [-0.5, 1.0]
        config_path.write_text(json.dumps(data))
        flags = ["--algorithm", "gca"] if command == "run" else ["--out", str(tmp_path / "c.csv")]
        code = main([command, "--config", str(config_path), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: 'thetas' must lie in [-1, 1)")

    @pytest.mark.parametrize(
        "flags,key",
        [(["--snr", "nan"], "snr_db"), (["--trial", "-1"], "trial_index"),
         (["--snr", "-4000"], "snr_db"), (["--snr", "-1500.5"], "snr_db")],
    )
    def test_bad_snr_or_trial_exits_one(self, capsys, config_path, flags, key):
        code = main(["run", "--config", str(config_path), "--algorithm", "gca", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    def test_missing_config_exits_one(self, capsys, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--algorithm", "gca"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--config", str(bad), "--algorithm", "gca"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_writes_csv_and_summarizes(self, capsys, tmp_path, config_path):
        out_csv = tmp_path / "curves.csv"
        code = main(["sweep", "--config", str(config_path), "--out", str(out_csv),
                     "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("rmse=") == 4  # 2 algorithms x 2 SNRs
        with open(out_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 5

    def test_seed_override_changes_results(self, tmp_path, config_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_a),
                     "--seed", "1"]) == 0
        assert main(["sweep", "--config", str(config_path), "--out", str(out_b),
                     "--seed", "2"]) == 0
        capsys.readouterr()
        assert out_a.read_text() != out_b.read_text()

    @pytest.mark.parametrize(
        "key,value",
        [("trials", 2.5), ("trials", True), ("snapshots", 50.5), ("grid_size", 501.0),
         ("exact", "no"), ("refine_peaks", "false"), ("thetas", [float("nan")]),
         ("snr_sweep", [float("nan")])],
    )
    def test_mistyped_config_exits_one(self, capsys, config_path, tmp_path, key, value):
        data = json.loads(config_path.read_text())
        data[key] = value
        config_path.write_text(json.dumps(data))
        out_csv = tmp_path / "curves.csv"
        code = main(["sweep", "--config", str(config_path), "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert not out_csv.exists()

    def test_out_to_a_device_exits_zero(self, capsys, config_path):
        code = main(["sweep", "--config", str(config_path), "--out", os.devnull])
        assert code == 0
        assert "rmse=" in capsys.readouterr().out

    def test_rejected_config_names_its_key(self, capsys, config_path, tmp_path):
        data = json.loads(config_path.read_text())
        data["thetas"] = [0.5, -0.5]
        config_path.write_text(json.dumps(data))
        out_csv = tmp_path / "curves.csv"
        code = main(["sweep", "--config", str(config_path), "--out", str(out_csv)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: 'thetas': ")
        assert not out_csv.exists()

    def test_unbuildable_geometry_exits_one_before_any_trial(
        self, capsys, monkeypatch, config_path, tmp_path
    ):
        trials = []
        run_trial = harness.run_trial

        def recorded(*args, **kwargs):
            trials.append(args)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", recorded)
        data = json.loads(config_path.read_text())
        data.pop("geometry")
        data["geometries"] = ["ula-7", "mra-11"]
        config_path.write_text(json.dumps(data))
        out_csv = tmp_path / "curves.csv"
        out_csv.write_bytes(b"geometry,algorithm\nula-7,gca\n")
        code = main(["sweep", "--config", str(config_path), "--out", str(out_csv)])
        assert code == 1
        assert "geometry 'mra-11': " in capsys.readouterr().err
        assert trials == []
        assert out_csv.read_bytes() == b"geometry,algorithm\nula-7,gca\n"

    def test_snr_without_a_finite_noise_power_keeps_the_output(
        self, capsys, config_path, tmp_path
    ):
        data = json.loads(config_path.read_text())
        data.pop("snr_sweep")
        data["snr_db"] = -4000
        config_path.write_text(json.dumps(data))
        out_csv = tmp_path / "curves.csv"
        out_csv.write_bytes(b"previous results\n")
        code = main(["sweep", "--config", str(config_path), "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "'snr_db_list'" in err
        assert out_csv.read_bytes() == b"previous results\n"

    def test_workers_below_one_exit_one(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "curves.csv"
        code = main(["sweep", "--config", str(config_path), "--out", str(out_csv),
                     "--workers", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "'workers'" in err
        assert not out_csv.exists()

    def test_bad_output_path_exits_one(self, capsys, config_path, tmp_path):
        code = main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_import_leaves_the_process_pool_unloaded():
    """The pool is imported only by a sweep with several workers, off every cold start."""
    src = os.path.dirname(os.path.dirname(sparsedoa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, sparsedoa.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
