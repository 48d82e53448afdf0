"""A traced sweep still calls every library function the benchmark tracer
(perfbench/tracing.py) hooks, so each per-layer metric is reported, and
calls the work unit as the pace check (perfbench/check_pace.py) rebinds
it."""

import importlib.util
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from pilotcov import experiment, load_experiment_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _one_unit_config(**changes):
    cfg = load_experiment_config(str(ROOT / "tests" / "data" / "golden_per_row.cfg"))
    return replace(cfg, sweep_values=cfg.sweep_values[:1], trials=1, **changes)


@pytest.mark.parametrize("ml_scaling", ["per_row", "shared"])
def test_traced_sweep_reports_every_layer(ml_scaling):
    cfg = _one_unit_config(ml_scaling=ml_scaling)
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


def test_sweep_calls_the_unit_as_the_pace_check_rebinds_it(monkeypatch):
    # check_pace.py replaces experiment._run_unit with a wrapper of exactly
    # these four parameters, which it forwards positionally
    cfg = _one_unit_config()
    plain_run_unit = experiment._run_unit
    calls = []

    def wrapper(cfg, axis_value, trial, measure_runtime):
        calls.append((axis_value, trial, measure_runtime))
        return plain_run_unit(cfg, axis_value, trial, measure_runtime)

    expected = run_experiment(cfg)
    monkeypatch.setattr(experiment, "_run_unit", wrapper)
    assert run_experiment(cfg) == expected
    assert calls == [(cfg.sweep_values[0], 0, False)]
