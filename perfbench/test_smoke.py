"""Smoke test of the benchmark itself, every workload cut to one unit.

    python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import run

run.prepare()

import harness  # noqa: E402
import tracing  # noqa: E402

import pilotcov.channel  # noqa: E402
import pilotcov.estimators  # noqa: E402
import pilotcov.experiment  # noqa: E402
import pilotcov.linklevel  # noqa: E402

ROOT = harness.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_unit(name, tmp_path, tracer=None):
    wl = harness.Workload.load(name).shrunk(tmp_path)
    tracer = tracer or tracing.Tracer()
    tracer.start_sweep(0)
    tracer.install()
    try:
        code, wall, text = harness.run_sweep(wl, 0, tmp_path / "unit.csv")
    finally:
        tracer.uninstall()
    assert code == 0
    return wl, tracer, wall, text


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_unit_per_workload(name, tmp_path):
    wl, tracer, wall, text = _traced_unit(name, tmp_path)
    checked = harness.check_csv(wl, text)
    assert checked.problems == []
    assert checked.attempted == len(wl.estimators) and checked.failed == 0
    assert tracer.absent == []

    metrics = tracer.sweep_metrics(wall)
    assert set(metrics) == set(tracing.METRICS) - {"trace.overhead_frac"}
    busy = {k: v for k, v in metrics.items() if k.endswith("busy_s")}
    assert all(0.0 <= v <= wall for v in busy.values())
    assert sum(busy.values()) <= wall
    assert metrics["experiment.self_s"] >= 0.0
    for key, layer, start, end, unit, sweep in tracer.spans:
        assert start <= end and unit is not None and sweep == 0


def test_renamed_function_is_reported_absent(tmp_path, monkeypatch):
    # pilotcov.experiment keeps its own binding, so the sweep still runs
    monkeypatch.delattr(pilotcov.linklevel, "uplink_sum_rate")
    hooks = tracing.HOOKS + (tracing.Hook("pilotcov.no_such_module", "f", "x"),)
    wl, tracer, wall, text = _traced_unit("desk", tmp_path, tracing.Tracer(hooks))
    assert set(tracer.absent) == {"pilotcov.linklevel.uplink_sum_rate",
                                  "pilotcov.no_such_module.f"}
    metrics = tracer.sweep_metrics(wall)
    assert "linklevel.rate.busy_s" not in metrics and "linklevel.rate.calls" not in metrics
    assert metrics["linklevel.rzf.calls"] > 0 and metrics["estimators.ml.rows"] == 32


def test_uncalled_function_is_reported_absent(tmp_path, monkeypatch):
    # ML rows solved in one batch and channels drawn another way: the old
    # functions still exist, but the callers that used them ran without them
    def batched_ml(B, Pi, sigma_v2, tol=1e-8, max_iter=200):
        c, *_ = np.linalg.lstsq(Pi.T, (B.B - sigma_v2).T, rcond=None)
        return pilotcov.estimators.CovEstimate(np.maximum(c.T, 0.0))

    draw = pilotcov.channel.draw_channels
    monkeypatch.setattr(pilotcov.estimators, "estimate_all_rows_ml", batched_ml)
    monkeypatch.setattr(pilotcov.experiment, "estimate_all_rows_ml", batched_ml)
    monkeypatch.setattr(pilotcov.experiment, "draw_channels", lambda *a: draw(*a))
    wl, tracer, wall, text = _traced_unit("desk", tmp_path)
    assert tracer.absent == []
    metrics = tracer.sweep_metrics(wall)
    assert set(tracer.absent) == {"pilotcov.estimators.ml_fixed_point",
                                  "pilotcov.channel.draw_channels"}
    for name in ("estimators.ml.rows", "estimators.ml.iterations", "estimators.ml.llf_evals",
                 "estimators.ml.kkt_pass_frac", "channel.draw.calls", "channel.bytes_drawn"):
        assert name not in metrics
    assert metrics["estimators.ml.busy_s"] > 0 and metrics["channel.observe.calls"] > 0


def test_changed_result_is_reported_absent(tmp_path, monkeypatch):
    fixed_point = pilotcov.estimators.ml_fixed_point

    def renamed_field(*args, **kwargs):
        res = fixed_point(*args, **kwargs)
        return types.SimpleNamespace(c_hat=res.c_hat, converged=res.converged,
                                     n_iter=res.iterations)

    monkeypatch.setattr(pilotcov.estimators, "ml_fixed_point", renamed_field)
    wl, tracer, wall, text = _traced_unit("desk", tmp_path)
    assert tracer.absent == ["pilotcov.estimators.ml_fixed_point"]
    metrics = tracer.sweep_metrics(wall)
    assert "estimators.ml.iterations" not in metrics and "estimators.ml.busy_s" in metrics


def test_output_checks_catch_bad_records():
    wl = harness.Workload.load("desk")
    rate = {"genie": 4.0, "ml": 3.0, "two_step": 2.0, "ls": 1.0}
    rows = ["axis,estimator,seed,sum_rate,cov_rmse,runtime_ms"]
    rows += [f"{v},{e},{t},{rate[e]},{'' if e == 'ls' else '0.5'},0"
             for v in wl.values for e in wl.estimators for t in range(wl.trials)]
    good = harness.check_csv(wl, "\n".join(rows))
    assert good.problems == [] and good.failed == 0
    assert harness.check_quality(wl, good, {}) == []

    rows[1] = rows[1].replace(",4.0,", ",nan,")
    rows[2] = rows[2].replace(",4.0,", ",unidentifiable,")
    bad = harness.check_csv(wl, "\n".join(rows[:-1]))
    assert bad.failed == 3 and bad.problems

    swapped = dataclasses.replace(good, quality=dict(good.quality, **{"sum_rate.ml": 1.5}))
    assert harness.check_quality(wl, swapped, {})
    ref = {"desk": {"sum_rate.ls": {"mean": 5.0, "tol": 0.1},
                    "sum_rate.ml/two_step": {"mean": 1.5, "tol": 0.01}}}
    assert any("sum_rate.ls" in p for p in harness.check_quality(wl, good, ref))
    assert not any("ml/two_step" in p for p in harness.check_quality(wl, good, ref))


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH[kind]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
