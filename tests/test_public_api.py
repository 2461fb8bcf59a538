"""Every exported name resolves, so deletions leave no stale exports behind."""

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
