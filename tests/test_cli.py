"""Command-line interface behavior and exit codes."""

import csv
import json

import numpy as np
import pytest

from sparsedoa.cli import main


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
        code = main(["geometry", "--kind", "mra", "--n", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "positions: 0 1 2 3 8 13 17" in out
        assert "sdof: 35" in out
        assert "hole-free: yes" in out

    def test_composition_reports_dof_bound(self, capsys):
        code = main(["geometry", "--kind", "naq2", "--n1", "4", "--n2", "3",
                     "--L", "3", "--mu", "1"])
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
        code = main(["geometry", "--kind", "naq2", "--n", "7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_kind_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["geometry", "--kind", "ring", "--n", "7"])


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

    def test_bad_output_path_exits_one(self, capsys, config_path, tmp_path):
        code = main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
