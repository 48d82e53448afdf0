"""Benchmark of pilotcov's sweep runner, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Workloads are the configs in perfbench/workloads/.  `--seed` is passed
to `pilotcov run` as `--seed-base`, modulo 2**63: pilotcov takes no
negative seed.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1`, with the per-layer metrics, and every span is written to
perfbench/out/.  The lines before it give the machine, BLAS and library
versions, every metric with its unit, and each failed output check.
Timings are scaled to a reference host pace (see harness.Pace and
perfbench/check_pace.py); with `--trace 0` the same timings as measured
are printed too, in a JSON line of their own just before the last.
BENCHMARK.json lists the workloads and metrics the benchmark is judged
on; `fullscale` runs only by hand.
Exit code: 0 when every check passes, 1 when one fails, 2 when the
benchmark cannot run (no sources under src/, BLAS not pinned).

Regenerate the quality reference with perfbench/make_reference.py.
"""

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("desk", "fullscale", "adaptive", "linkeval")


def prepare() -> bool:
    """Pin BLAS to one thread before numpy is first imported (harness
    checks that it took) and put the checkout's sources first on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "pilotcov" / "__init__.py").is_file():
        print(f"perfbench: no pilotcov sources in {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2**63
    if not prepare():
        return 2

    import harness

    try:
        return harness.main(args)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
