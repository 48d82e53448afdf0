"""Every name a pilotcov module exports exists, and the package no longer
exposes the single-array result wrappers."""

import importlib
import pkgutil

import pytest

import pilotcov

MODULES = sorted(m.name for m in pkgutil.iter_modules(pilotcov.__path__, "pilotcov."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["ObsCovEstimate", "CovEstimate", "ExperimentResult",
                                  "CovarianceSet", "Allocation"])
def test_result_wrappers_are_gone(name):
    assert not hasattr(pilotcov, name)
