"""A traced sweep still calls every library function the benchmark tracer
(perfbench/tracing.py) hooks, so each per-layer metric is reported."""

import importlib.util
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from pilotcov import load_experiment_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("ml_scaling", ["per_row", "shared"])
def test_traced_sweep_reports_every_layer(ml_scaling):
    cfg = load_experiment_config(str(ROOT / "tests" / "data" / "golden_per_row.cfg"))
    cfg = replace(cfg, sweep_values=cfg.sweep_values[:1], trials=1,
                  ml_scaling=ml_scaling)
    tracer = tracing.Tracer()
    tracer.start_sweep(0)
    tracer.install()
    try:
        start = time.perf_counter()
        records = run_experiment(cfg)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.sweep_metrics(wall)
    assert tracer.absent == []
    assert set(metrics) == set(tracing.METRICS) - {"trace.overhead_frac"}
    # the benchmark's result line is this JSON: a NaN or inf value would
    # make it unreadable to a strict reader
    json.dumps(metrics, allow_nan=False)
    if ml_scaling == "per_row":
        ml_units = sum(r.estimator == "ml" and r.status == "ok" for r in records)
        assert ml_units == 1
        assert metrics["estimators.ml.rows"] == ml_units * cfg.scenario.M
