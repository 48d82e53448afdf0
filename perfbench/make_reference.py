"""Regenerate perfbench/reference.json, the stored quality reference.

    python3 perfbench/make_reference.py

For each workload, one sweep of its checked variant (see
harness.CHECK_TRIALS and harness.CHECK_ESTIMATORS) per seed of SEEDS
through `pilotcov run`.  Every seed must pass the benchmark's output
checks, the desk ordering among them.  For every quality metric (mean
sum-rate and median cov_rmse per estimator) and the ratios of
harness.reference_values, the reference keeps the mean over seeds and a
tolerance of TOL_SD sample standard deviations.  The tolerance is a
spread over seeds on purpose: a change in the order of random draws
gives a sweep new inputs, just as a new seed does, and must still pass.
A metric whose tolerance is at least half its mean is left out: a
sum-rate could halve inside it, so checking it would only look like a
check.  The seeds used here are not the small ones benchmark runs use,
so every run is checked out of sample.
"""

import json
import statistics
import sys
import tempfile
from pathlib import Path

import run

TOL_SD = 5.0
SEEDS = range(1000, 1060)


def main() -> int:
    if not run.prepare():
        return 2
    import harness

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=harness.ROOT) as tmp:
        out = Path(tmp) / "sweep.csv"
        for name in run.WORKLOADS:
            wl = harness.Workload.load(name).checked(tmp)
            values: dict[str, list[float]] = {}
            for seed in SEEDS:
                code, _, text = harness.run_sweep(wl, seed, out)
                checked = harness.check_csv(wl, text)
                checked.problems += harness.check_quality(wl, checked, {})
                if code != 0 or checked.problems:
                    print(f"{name} seed {seed}: {checked.problems}", file=sys.stderr)
                    return 1
                for metric, value in harness.reference_values(checked).items():
                    values.setdefault(metric, []).append(value)
            reference[name] = {}
            for metric, v in sorted(values.items()):
                mean, tol = statistics.fmean(v), TOL_SD * statistics.stdev(v)
                if tol >= mean / 2:
                    print(f"{name} {metric}: {mean:.4g} +- {tol:.3g} left out", flush=True)
                    continue
                reference[name][metric] = {"mean": mean, "tol": tol, "min": min(v), "max": max(v),
                                           "seeds": [SEEDS[0], SEEDS[-1]]}
            print(name, json.dumps(reference[name]), flush=True)
    with open(harness.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
