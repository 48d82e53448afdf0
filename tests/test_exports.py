"""Every name a pilotcov module exports exists, the package exports
exactly the names its modules list in `__all__`, and it no longer exposes
the single-array result wrappers."""

import collections
import importlib
import pkgutil
import types

import pytest

import pilotcov

MODULES = sorted(m.name for m in pkgutil.iter_modules(pilotcov.__path__, "pilotcov."))
# the command line is run, not imported from; every other module states its API
API_MODULES = [m for m in MODULES if m != "pilotcov.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_name_in_two_modules_all():
    counts = collections.Counter(
        n for m in API_MODULES for n in importlib.import_module(m).__all__)
    assert [n for n, c in counts.items() if c > 1] == []


def test_package_exports_the_union_of_the_modules_all():
    union = {n for m in API_MODULES for n in importlib.import_module(m).__all__}
    public = {n for n, v in vars(pilotcov).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == union


@pytest.mark.parametrize("name", ["ObsCovEstimate", "CovEstimate", "ExperimentResult",
                                  "CovarianceSet", "Allocation"])
def test_result_wrappers_are_gone(name):
    assert not hasattr(pilotcov, name)
