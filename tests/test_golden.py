"""Golden records: rerun two small desk sweeps and compare with the CSVs
they wrote when committed (seed base 0).

The CSV keeps 6 significant digits, so rtol=2e-5 allows two units in the
last digit; refactors that only move rounding stay well inside it.
"""

from pathlib import Path

import numpy as np
import pytest

from pilotcov.cli import main as cli_main
from pilotcov.experiment import load_result_csv

DATA = Path(__file__).parent / "data"


def _by_key(records):
    return {(r.axis_value, r.estimator, r.seed): r for r in records}


@pytest.mark.parametrize("scaling", ["per_row", "shared"])
def test_records_match_golden_csv(scaling, tmp_path):
    out = tmp_path / "run.csv"
    cfg = DATA / f"golden_{scaling}.cfg"
    assert cli_main(["run", str(cfg), "--out", str(out), "--seed-base", "0"]) == 0
    got = _by_key(load_result_csv(out))
    want = _by_key(load_result_csv(DATA / f"golden_{scaling}.csv"))
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        assert g.status == w.status, key
        for field in ("sum_rate", "cov_rmse"):
            a, b = getattr(g, field), getattr(w, field)
            assert (a is None) == (b is None), (key, field)
            if b is not None:
                np.testing.assert_allclose(a, b, rtol=2e-5, atol=0, err_msg=f"{key} {field}")
