"""Workloads, timed sweeps and output checks of the pilotcov benchmark.

Each run drives the library through its public entry point,
`pilotcov.cli.main(["run", ...])`, with the defaults: one process, one
sweep at a time, closed loop, `--threads 1`.  A sweep is one call; its
inputs come from the workload's config and `--seed-base <seed>`, so one
seed gives the same inputs every time.  Sweeps repeat until the run's
seconds are spent, and every sweep must write the same CSV bytes.

Untraced runs report the end-to-end metrics; traced runs alternate
untraced and traced sweeps and report the per-layer metrics of
`tracing.METRICS`, with `trace.overhead_frac` from the difference.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import pilotcov
from pilotcov import cli, experiment

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = HERE / "out"
SETUP_REPEATS = 9
# library acceptance criterion 11: mean sum-rate ordering on the desk sweep
DESK_ORDER = ("genie", "ml", "two_step", "ls")
COV_ESTIMATORS = ("ml", "two_step", "adaptive")
# trials of the untimed sweep whose quality is checked.  Timed sweeps are
# short so that many fit in a run; the quality checks need more units:
# on desk the ml - two_step mean sum-rate gap is about 1.3% of the genie's
# rate.  Over 12 units its seed-to-seed spread is larger than that; over
# 80 units (the checked-in desk sweep) the gap is 3.1 standard deviations,
# so about one seed in a thousand breaks the ordering; over 120 units, 3.5.
# On linkeval one unit's ml / two_step sum-rate ratio can fall to 0.85;
# 24 units halve the pull of such a unit on the checked mean.
CHECK_TRIALS = {"desk": 30, "adaptive": 8, "linkeval": 8}
# estimators of the check sweep where they differ from the timed one.
# The adaptive estimator's own sum-rate and cov_rmse move with the drawn
# scenario as much as with the estimator; beside the genie's sum-rate and
# two-step's cov_rmse on the same draws they give ratios that vary far
# less from seed to seed, so their tolerances are tight.
CHECK_ESTIMATORS = {"adaptive": ("genie", "two_step", "adaptive")}
END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, BLAS pin not in effect)."""


@dataclass(frozen=True)
class Workload:
    name: str
    path: Path
    estimators: tuple[str, ...]
    values: tuple[int, ...]
    trials: int

    @classmethod
    def load(cls, name: str, path: Path | None = None) -> "Workload":
        path = path or HERE / "workloads" / f"{name}.cfg"
        cfg = experiment.load_experiment_config(str(path))
        return cls(name, path, cfg.estimators, cfg.sweep_values, cfg.trials)

    @property
    def units(self) -> int:
        return len(self.values) * self.trials

    def variant(self, directory: Path, tag: str, *, values=None, trials=None,
                estimators=None) -> "Workload":
        """The same workload with other sweep values, trial count or estimators."""
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        with open(self.path, encoding="utf-8") as fh:
            cp.read_file(fh)
        if values is not None:
            cp["sweep"]["values"] = ", ".join(map(str, values))
        if trials is not None:
            cp["sweep"]["trials"] = str(trials)
        if estimators is not None:
            cp["estimation"]["estimators"] = ", ".join(estimators)
        path = Path(directory) / f"{self.name}-{tag}.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        return Workload.load(self.name, path)

    def shrunk(self, directory: Path) -> "Workload":
        """One unit: the first sweep value, one trial."""
        return self.variant(directory, "unit", values=self.values[:1], trials=1)

    def checked(self, directory: Path) -> "Workload":
        """The sweep whose outputs are checked for quality: CHECK_TRIALS
        trials and CHECK_ESTIMATORS."""
        return self.variant(directory, "check", trials=CHECK_TRIALS.get(self.name, self.trials),
                            estimators=CHECK_ESTIMATORS.get(self.name))


# -- environment ------------------------------------------------------------

def _blas_thread_counts() -> dict[str, int]:
    """Threads each loaded BLAS library will use, by library file name."""
    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts[Path(lib_path).name] = int(fn())
                break
    return counts


def environment() -> dict:
    """Machine and library facts recorded with every result.

    Raises BenchError if a loaded BLAS runs more than one thread.
    """
    threads = _blas_thread_counts()
    if any(n != 1 for n in threads.values()):
        raise BenchError(f"BLAS not pinned to one thread: {threads}")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads or "no thread query found",
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -- running ----------------------------------------------------------------

def time_setup(wl: Workload) -> float:
    """Wall time of `pilotcov validate` in a fresh process: interpreter
    start, import, config load and validation."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "pilotcov.cli", "validate", str(wl.path)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"pilotcov validate failed: {proc.stderr.strip()}")
    return wall


class Pace:
    """How fast the host runs right now, from a fixed calibration kernel.

    On a shared host the whole machine slows by up to 60% for seconds to
    minutes at a time, and such phases move every wall time together.
    `timed` divides a wall time by the mean of the kernel's times measured
    just before and just after it and multiplies by REFERENCE_S, the
    kernel's time on a quiet host: the result is the wall time the host
    would have shown at that reference pace.  The kernel runs in a child
    process of its own (pace.py), so the state the timed work leaves in
    this process cannot reach the divisor.  check_pace.py tests that a
    known change in the work shows at full size in the scaled figure.
    Use as a context manager; leaving it stops the child.
    """

    REFERENCE_S = 0.0046  # 2-core Xeon, OpenBLAS 0.3.31 on one thread

    def __enter__(self) -> "Pace":
        self._proc = subprocess.Popen([sys.executable, str(HERE / "pace.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def now(self) -> float:
        """Kernel time in seconds, the best of three."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError(f"calibration kernel exited with {self._proc.wait()}")
        return float(line)

    def timed(self, fn):
        """(result, wall seconds, wall seconds at the reference pace)."""
        before = self.now()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        return result, wall, wall * 2 * self.REFERENCE_S / (before + self.now())


def run_sweep(wl: Workload, seed: int, out: Path) -> tuple[int, float, str]:
    """One sweep through `pilotcov run`: (exit code, wall seconds, CSV text)."""
    out.unlink(missing_ok=True)
    argv = ["run", str(wl.path), "--out", str(out), "--seed-base", str(seed)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed sweep, reported with its traceback
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - t0
    text = out.read_text(encoding="ascii") if code == 0 and out.exists() else ""
    return code, wall, text


@dataclass
class Checked:
    attempted: int
    failed: int
    quality: dict[str, float]
    problems: list[str]
    # (axis value, estimator, trial) -> (sum-rate, cov_rmse or None)
    records: dict[tuple, tuple[float, float | None]]


def check_csv(wl: Workload, text: str) -> Checked:
    """Count, status and finiteness of every record; quality metrics.

    A record is one unit x one estimator.  It fails when it is missing,
    not finite, or marked unidentifiable (every workload draws full-rank
    schedules).  LS has no covariance estimate, so its cov_rmse is empty.
    """
    expected = {(v, e, t) for v in wl.values for e in wl.estimators for t in range(wl.trials)}
    seen: dict[tuple, tuple[float, float | None]] = {}
    problems: list[str] = []
    for row in csv.DictReader(io.StringIO(text)):
        try:
            key = (int(row["axis"]), row["estimator"], int(row["seed"]))
            rate = float(row["sum_rate"])
            rmse = None if row["estimator"] == "ls" and row["cov_rmse"] == "" \
                else float(row["cov_rmse"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"bad record {dict(row)}: {exc}")
            continue
        if key not in expected or key in seen:
            problems.append(f"unexpected or repeated record {key}")
        elif math.isfinite(rate) and (rmse is None or math.isfinite(rmse)):
            seen[key] = (rate, rmse)
        else:
            problems.append(f"non-finite record {key}")
    failed = len(expected - seen.keys())
    if failed:
        problems.append(f"{failed} of {len(expected)} records failed")

    quality = {}
    for est in wl.estimators:
        rates = [r for (_, e, _), (r, _) in seen.items() if e == est]
        rmses = [c for (_, e, _), (_, c) in seen.items() if e == est]
        if rates:
            quality[f"sum_rate.{est}"] = statistics.fmean(rates)
        if rmses and est in COV_ESTIMATORS:
            quality[f"cov_rmse.{est}"] = statistics.median(rmses)
    return Checked(len(expected), failed, quality, problems, seen)


def reference_values(checked: Checked) -> dict[str, float]:
    """The quality metrics plus the ratios the reference also holds.

    The drawn scenario moves every estimator's numbers together, so
    ratios vary far less from seed to seed and their tolerances are
    tight: each sum-rate as a share of the genie's, and, unit by unit
    against two-step on the same draws, the sum-rate (mean of the ratios)
    and cov_rmse (median of the ratios) of ML and the adaptive estimator.
    """
    values = dict(checked.quality)
    genie = values.get("sum_rate.genie")
    for name, value in checked.quality.items():
        if genie and name.startswith("sum_rate.") and name != "sum_rate.genie":
            values[f"{name}/genie"] = value / genie
    units: defaultdict[tuple, dict] = defaultdict(dict)
    for (value, est, trial), record in checked.records.items():
        units[value, trial][est] = record
    for est in ("ml", "adaptive"):
        pairs = [(u[est], u["two_step"]) for u in units.values() if est in u and "two_step" in u]
        if pairs:
            values[f"sum_rate.{est}/two_step"] = statistics.fmean(a[0] / b[0] for a, b in pairs)
            values[f"cov_rmse.{est}/two_step"] = statistics.median(a[1] / b[1] for a, b in pairs)
    return values


def check_quality(wl: Workload, checked: Checked, reference: dict) -> list[str]:
    """Estimator ordering on desk, and every reference value within the
    stored reference's tolerance (see make_reference.py)."""
    problems = []
    if wl.name == "desk":
        rates = [checked.quality.get(f"sum_rate.{e}", math.nan) for e in DESK_ORDER]
        if not all(a >= b for a, b in zip(rates, rates[1:])):
            problems.append(f"desk sum-rate ordering {DESK_ORDER} violated: {rates}")
    values = reference_values(checked)
    for name, ref in reference.get(wl.name, {}).items():
        value = values.get(name)
        if value is None or abs(value - ref["mean"]) > ref["tol"]:
            problems.append(f"{name} = {value} outside {ref['mean']:.6g} +- {ref['tol']:.3g}")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool,
                  workdir: Path, reference: dict, pace: Pace) -> tuple[dict, Checked, dict]:
    """Time sweeps of `wl` for `seconds`; returns (metrics, checks, info).

    metrics maps a name to (value, unit).  An untimed sweep of the
    `checked` variant runs first: its records give the quality metrics
    and pass the quality checks, and it lets lazy set-up in the libraries
    finish before timing.  Every timed sweep runs the same inputs, its
    records are checked, and it must write the same CSV bytes as the
    first.  Traced runs alternate untraced and traced sweeps.

    Both timings are scaled to the reference pace of `pace`: units_per_s
    is the sweep's units over the median scaled sweep time, setup_s the
    median scaled set-up time.  The figures as measured are kept in
    info["raw"].
    """
    out = workdir / "sweep.csv"
    big = wl.checked(workdir)
    code, _, text = run_sweep(big, seed, out)
    checks = check_csv(big, text)
    checks.problems += check_quality(wl, checks, reference)
    if code != 0:
        checks.problems.append(f"pilotcov run exited with {code}")
        return {}, checks, {}

    tracer = tracing.Tracer() if trace else None
    walls: list[float] = []
    scaled: list[float] = []
    overhead: list[float] = []
    per_layer: list[dict] = []
    setups: list[tuple[float, float]] = []
    first = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and not per_layer):
        # set-up samples spread over the run, between sweeps
        if not trace and len(setups) * seconds <= SETUP_REPEATS * (time.perf_counter() - start):
            setups.append(pace.timed(lambda: time_setup(wl))[1:])
        traced = trace and len(walls) > len(per_layer)
        if traced:
            tracer.start_sweep(len(per_layer))
            tracer.install()
        try:
            (code, _, text), wall, at_pace = pace.timed(lambda: run_sweep(wl, seed, out))
        finally:
            if traced:
                tracer.uninstall()
        if first is None:
            first = text
            checked = check_csv(wl, text)
            checks.problems += checked.problems
        elif text != first:
            checks.problems.append(f"sweep {len(walls) + len(per_layer)} wrote another CSV")
        checks.attempted += checked.attempted
        checks.failed += checked.failed
        if traced:
            per_layer.append(tracer.sweep_metrics(wall))
            overhead.append(at_pace / scaled[-1] - 1.0)
        else:
            walls.append(wall)
            scaled.append(at_pace)
        if code != 0:
            checks.problems.append(f"pilotcov run exited with {code}")
            break

    info = {"sweeps": len(walls), "traced_sweeps": len(per_layer),
            "units_per_sweep": wl.units, "sweep_s": [round(w, 4) for w in walls],
            "scaled_sweep_s": [round(a, 4) for a in scaled],
            "pace": statistics.median(w / a for w, a in zip(walls, scaled))}
    if trace:
        layer = tracing.combine(per_layer) if per_layer else {}
        if overhead:
            layer["trace.overhead_frac"] = statistics.median(overhead)
        metrics = {k: (v, tracing.METRICS[k][0]) for k, v in layer.items()}
        info["absent"] = tracer.absent
        SPAN_DIR.mkdir(exist_ok=True)
        info["spans"] = str(SPAN_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
        tracer.write_spans(info["spans"])
    else:
        info["raw"] = {"units_per_s": wl.units / statistics.median(walls),
                       "setup_s": statistics.median(w for w, _ in setups)}
        metrics = {
            "setup_s": statistics.median(a for _, a in setups),
            "units_per_s": wl.units / statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return metrics, checks, info


def main(args) -> int:
    wl = Workload.load(args.workload)
    if not Path(pilotcov.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"pilotcov imported from {pilotcov.__file__}, not {ROOT / 'src'}")
    env = environment()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, Pace() as pace:
        metrics, checks, info = run_benchmark(wl, args.seed, args.seconds, bool(args.trace),
                                              Path(tmp), reference, pace)

    raw = info.pop("raw", {})
    print("env " + json.dumps(env))
    print(f"workload {wl.name} seed {args.seed}: " + json.dumps(info))
    report = dict(metrics)
    if not args.trace:
        report.update({f"{k}.raw": (v, END_TO_END_UNITS[k]) for k, v in raw.items()})
        report["failed_frac"] = (checks.failed / checks.attempted if checks.attempted
                                 else 1.0, "ratio")
        unit = {"sum_rate": "bit/use", "cov_rmse": "ratio"}
        report.update({k: (v, unit[k.split(".")[0]]) for k, v in checks.quality.items()})
    for name, (value, unit) in report.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for name in info.get("absent", []):
        print(f"  absent: {name} (its metrics are not reported)")
    for problem in checks.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not checks.problems
    if raw:
        # the gated timings above are scaled by the pace model; these are
        # the same timings as measured, one line before the result
        print(json.dumps({"raw_metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                          for k, v in raw.items()}}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
