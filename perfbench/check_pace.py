"""Check that the pace model of harness.Pace keeps a known change at full size.

    python3 perfbench/check_pace.py

The gated timings are wall times scaled by a calibration kernel timed
around them.  This check times desk sweeps the way the benchmark does,
alternating the sweep as it is with the same sweep plus an injected cost:
the first trial of every sweep value runs its unit twice, a third more
work.  It does so in a quiet phase, then in a loaded phase where one busy
process of its own per core competes for the CPUs.  For each phase it
prints the median sweep time, raw and scaled, and the median ratio of
injected to plain sweep time, raw and scaled, and the size at which the
injected cost shows in it: the ratio's excess over 1 as a share of the
quiet phase's raw excess.  The model holds when that size is within
SIZE_TOL of 1 for the scaled ratio of both phases; the exit code is 0
when it holds and 1 when it does not.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

PAIRS = 16
SIZE_TOL = 0.25
# a BLAS-bound loop on one thread, which also evicts the caches
LOAD = "import numpy as np\na = np.ones((300, 300))\nwhile True:\n    a @ a"


def sweeps(harness, pace, wl, out, injected_run_unit):
    """PAIRS pairs of (plain, injected) sweeps, alternating which runs
    first; returns the (raw, scaled) seconds of each, plain then injected."""
    from pilotcov import experiment

    plain_run_unit = experiment._run_unit
    times = {False: [], True: []}
    for i in range(2 * PAIRS):
        injected = (i % 2 == 0) == (i // 2 % 2 == 0)
        experiment._run_unit = injected_run_unit if injected else plain_run_unit
        try:
            (code, _, _), wall, scaled = pace.timed(lambda: harness.run_sweep(wl, 0, out))
        finally:
            experiment._run_unit = plain_run_unit
        if code != 0:
            raise harness.BenchError(f"pilotcov run exited with {code}")
        times[injected].append((wall, scaled))
    return times[False], times[True]


def main() -> int:
    if not run.prepare():
        return 2
    import harness
    from pilotcov import experiment

    plain_run_unit = experiment._run_unit

    def injected_run_unit(cfg, axis_value, trial, measure_runtime):
        if trial == 0:
            plain_run_unit(cfg, axis_value, trial, measure_runtime)
        return plain_run_unit(cfg, axis_value, trial, measure_runtime)

    wl = harness.Workload.load("desk")
    ratios = {}
    size = lambda ratio: (ratio - 1) / (ratios["quiet", "raw"] - 1)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=harness.ROOT) as tmp, \
            harness.Pace() as pace:
        out = Path(tmp) / "sweep.csv"
        harness.run_sweep(wl, 0, out)  # lazy set-up in the libraries, untimed
        for phase in ("quiet", "loaded"):
            load = [subprocess.Popen([sys.executable, "-c", LOAD])
                    for _ in range(len(os.sched_getaffinity(0)) if phase == "loaded" else 0)]
            try:
                time.sleep(1.0 if load else 0.0)
                plain, injected = sweeps(harness, pace, wl, out, injected_run_unit)
            finally:
                for proc in load:
                    proc.kill()
                    proc.wait()
            for kind, k in (("raw", 0), ("scaled", 1)):
                ratio = statistics.median(b[k] / a[k] for a, b in zip(plain, injected))
                ratios[phase, kind] = ratio
                print(f"{phase:6s} {kind:6s} plain sweep {statistics.median(a[k] for a in plain):.4f} s"
                      f"  injected/plain {ratio:.4f}  size {size(ratio):.3f}", flush=True)
    holds = all(abs(size(ratios[phase, "scaled"]) - 1) <= SIZE_TOL for phase in ("quiet", "loaded"))
    print(f"pace model {'holds' if holds else 'FAILS'}: the injected cost shows in the scaled "
          f"figure at a size within {SIZE_TOL:.0%} of its raw size in the quiet phase")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
