"""Calibration kernel of the benchmark's pace model (see harness.Pace).

    python3 perfbench/pace.py

Reads one line per measurement from standard input and answers each with
the kernel's time in seconds, the best of three, until its input closes.
It runs in a process of its own that does nothing else, so nothing that
the benchmarked sweeps leave behind in their process (heap, garbage
collector or BLAS state) changes the kernel's time.  The kernel mixes
what the library spends its time on: interpreted Python, many small
LAPACK solves called from Python, a few 100 x 100 solves and Gaussian
draws.
"""

import math
import sys
import time

import numpy as np
import scipy.linalg


def kernel():
    """A function that times the kernel once, with its inputs built."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    g = rng.standard_normal((100, 100))
    small = (a @ a.T + 12 * np.eye(12), rng.standard_normal(12))
    big = (g @ g.T + 100 * np.eye(100), rng.standard_normal((100, 10)))

    def once() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(100):
            scipy.linalg.solve(*small, assume_a="pos")
        for _ in range(4):
            scipy.linalg.solve(*big, assume_a="pos")
        rng.standard_normal((100, 200))
        return time.perf_counter() - t0

    return once


def main() -> int:
    once = kernel()
    for _ in sys.stdin:
        best = math.inf
        for _ in range(3):
            best = min(best, once())
        print(repr(best), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
