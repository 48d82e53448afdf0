"""Golden records: rerun five small sweeps and compare with the CSVs they
wrote when committed (seed base 0).  Two desk sweeps over T use random
schedules (per-row and shared-scaling ML), one imports the canonical 4x2
schedule from configs/example442_schedule.txt, one runs golden_shared.cfg
on the checked-in golden_imported_schedule.txt, and one sweeps Ttr with a
partial last evaluation pass (42 intervals of a 5-allocation schedule).

The CSV keeps 6 significant digits, so rtol=2e-5 allows two units in the
last digit; refactors that only move rounding stay well inside it.

A change that moves the numbers on purpose (a new RNG stream, say)
regenerates each CSV with the command this test runs, from the repository
root, where the schedule paths of the imported configs resolve, and lists
every changed value, old -> new, with the change:

    for name in per_row shared example442 imported ttr; do
        pilotcov run tests/data/golden_$name.cfg \
            --out tests/data/golden_$name.csv --seed-base 0
    done
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from pilotcov import UNIDENTIFIABLE
from pilotcov.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _rows_by_key(path):
    with open(path, newline="", encoding="ascii") as fh:
        return {(row["axis"], row["estimator"], row["seed"]): row
                for row in csv.DictReader(fh)}


@pytest.mark.parametrize("name", ["per_row", "shared", "example442", "imported", "ttr"])
def test_records_match_golden_csv(name, tmp_path, monkeypatch):
    # the imported configs name their schedules relative to the repository root
    monkeypatch.chdir(ROOT)
    out = tmp_path / "run.csv"
    cfg = DATA / f"golden_{name}.cfg"
    assert cli_main(["run", str(cfg), "--out", str(out), "--seed-base", "0"]) == 0
    got = _rows_by_key(out)
    want = _rows_by_key(DATA / f"golden_{name}.csv")
    assert got.keys() == want.keys()
    for key, w in want.items():
        for field in ("sum_rate", "cov_rmse"):
            a, b = got[key][field], w[field]
            # the unidentifiable marker and an empty cell match as tokens
            if b in ("", UNIDENTIFIABLE):
                assert a == b, (key, field)
            else:
                np.testing.assert_allclose(float(a), float(b), rtol=2e-5, atol=0,
                                           err_msg=f"{key} {field}")
