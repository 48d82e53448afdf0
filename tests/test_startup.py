"""What a fresh interpreter loads.

scipy is needed only to solve the normal equations, so the commands
that never solve (`validate`, `schedule generate`, `schedule inspect`)
and a bare `import pilotcov` must not load it, and every branch of
`_solve_normal` must work as a process's first solve.  The other test
modules import scipy at the top, so only a fresh interpreter can see a
stray module-level `import scipy` or a broken deferred one.
"""

import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pilotcov

SRC = Path(pilotcov.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

# printed last by every child: the scipy modules it has loaded
_SCIPY_LOADED = (
    "import json, sys; print(json.dumps(sorted("
    "m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


def _fresh(code: str, cwd: Path) -> tuple[str, list[str]]:
    """Run `code` and then `_SCIPY_LOADED` in a fresh interpreter with
    pilotcov's sources first on the path; returns (everything printed
    before the last line, the scipy modules loaded at the end)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_SCIPY_LOADED}"],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, loaded = proc.stdout.splitlines()
    return "\n".join(printed), json.loads(loaded)


def _cli(*argv: str) -> str:
    return f"from pilotcov import cli; assert cli.main({list(argv)!r}) == 0"


def _one_unit_config(tmp_path: Path) -> Path:
    """The per-row golden sweep cut to its first T and one trial."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(DATA / "golden_per_row.cfg")
    cp["sweep"]["values"] = cp["sweep"]["values"].split(",")[0]
    cp["sweep"]["trials"] = "1"
    path = tmp_path / "one_unit.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


@pytest.mark.parametrize("code", [
    "import pilotcov",
    _cli("validate", str(DATA / "golden_per_row.cfg")),
    _cli("schedule", "generate", "--users", "12", "--pilots", "5",
         "--cells", "3", "--out", "schedule.txt"),
    _cli("schedule", "inspect", str(DATA / "golden_imported_schedule.txt")),
], ids=["import", "validate", "schedule-generate", "schedule-inspect"])
def test_commands_that_never_solve_do_not_load_scipy(code, tmp_path):
    _, loaded = _fresh(code, tmp_path)
    assert loaded == []


def test_run_loads_scipy_linalg_at_its_first_solve(tmp_path):
    config = _one_unit_config(tmp_path)
    _, loaded = _fresh(_cli("run", str(config), "--out", "one.csv"), tmp_path)
    assert "scipy.linalg" in loaded
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 6  # header, 5 estimators


# Each case is the first solve of a fresh process, which then prints one
# JSON object of facts, read after the solve, when scipy may be imported;
# "bound" counts the bindings of the LAPACK handles.  Case -> (code, facts
# expected, whether scipy.linalg is loaded at the end).
_FIRST_SOLVE = """
import json, sys, warnings
import numpy as np
from pilotcov.errors import SingularSystemError
from pilotcov.estimators import _lapack, _solve_normal

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
rng = np.random.default_rng(7)
X = rng.standard_normal((3, 5, 8))
G = X @ np.swapaxes(X, -1, -2)
rhs = rng.standard_normal((3, 5))
"""

_CASES = {
    # four single solves, one binding of the handles
    "single": ("""
x = _solve_normal(G[0], rhs[0])
for i in range(3):
    _solve_normal(G[i], rhs[i])
import scipy.linalg
ref = scipy.linalg.solve(G[0], rhs[0], assume_a="pos")
print(json.dumps({"same_bits": bool(np.array_equal(x, ref)),
                  "bound": _lapack.cache_info().misses}))
""", {"same_bits": True, "bound": 1}, True),
    # factored like any single system, with the bits of scipy's stacked
    # solve (scipy's solve of one 1 x 1 system divides, and differs here)
    "1x1": ("""
x = _solve_normal(G[0, :1, :1], rhs[0, :1])
import scipy.linalg
ref = scipy.linalg.solve(G[:, :1, :1], rhs[:, :1, None], assume_a="pos")[0, :, 0]
print(json.dumps({"same_bits": bool(np.array_equal(x, ref)),
                  "bound": _lapack.cache_info().misses}))
""", {"same_bits": True, "bound": 1}, True),
    # each slice through the single-system handles, with the bits of
    # scipy's batched solve
    "stack": ("""
x = _solve_normal(G, rhs)
import scipy.linalg
ref = scipy.linalg.solve(G, rhs[..., None], assume_a="pos")[..., 0]
print(json.dumps({"same_bits": bool(np.array_equal(x, ref)),
                  "bound": _lapack.cache_info().misses}))
""", {"same_bits": True, "bound": 1}, True),
    "ill-conditioned": ("""
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    _solve_normal(np.diag([1.0, 1e-17]), np.ones(2))
import scipy.linalg
print(json.dumps({
    "warned": [[issubclass(w.category, scipy.linalg.LinAlgWarning),
                "ill-conditioned" in str(w.message)] for w in caught],
    "bound": _lapack.cache_info().misses,
}))
""", {"warned": [[True, True]], "bound": 1}, True),
    "indefinite": ("""
try:
    _solve_normal(np.diag([1.0, -1.0]), np.ones(2))
    raised = False
except SingularSystemError as exc:
    raised = "singular or indefinite" in str(exc)
print(json.dumps({"raised": raised, "bound": _lapack.cache_info().misses}))
""", {"raised": True, "bound": 1}, True),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_each_solve_branch_works_as_first_solve(case, tmp_path):
    code, expected, loads_scipy = _CASES[case]
    printed, loaded = _fresh(_FIRST_SOLVE + code, tmp_path)
    assert json.loads(printed) == expected
    assert ("scipy.linalg" in loaded) == loads_scipy
