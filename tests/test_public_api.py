"""Every exported name resolves and every module export is a package export,
so deletions leave no stale exports behind and additions none missing."""

import dataclasses
import importlib

import pytest

import sparsedoa

# The modules that declare ``__all__``.
MODULES = ["coarray", "estimators", "geometry", "harness", "sigmodel"]


@pytest.mark.parametrize("name", sparsedoa.__all__)
def test_package_exports_resolve(name):
    assert hasattr(sparsedoa, name)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"sparsedoa.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_estimators_export_grid_thetas():
    from sparsedoa import estimators

    assert "grid_thetas" in estimators.__all__


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_are_package_exports(module_name):
    module = importlib.import_module(f"sparsedoa.{module_name}")
    for name in module.__all__:
        assert name in sparsedoa.__all__
        assert getattr(sparsedoa, name) is getattr(module, name)


def test_package_exports_are_unique():
    assert len(sparsedoa.__all__) == len(set(sparsedoa.__all__))


@pytest.mark.parametrize(
    "record,fields",
    [
        (sparsedoa.DoaEstimate, ("thetas", "peak_values", "degraded")),
        (sparsedoa.CoarraySignal, ("lags", "values")),
        (sparsedoa.SmoothedCovariance, ("root",)),
        (sparsedoa.GeometrySpec, ("label",)),
        (sparsedoa.ExperimentConfig,
         ("geometries", "n_subarrays", "spacing", "thetas", "snapshots", "snr_db_list",
          "algorithms", "trials", "seed", "grid_size", "exact")),
        (sparsedoa.TrialResult, ("estimate", "squared_error", "artifacts")),
    ],
)
def test_pipeline_records_hold_only_read_fields(record, fields):
    assert tuple(f.name for f in dataclasses.fields(record)) == fields
