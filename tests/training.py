"""Training observations and a dense reference solve for the estimator
tests: observations drawn interval by interval as H A + noise rather than
from the slot law the sweep uses, and the unclamped weighted right inverse
solved with numpy rather than with the library's own solve."""

import numpy as np

from pilotcov import draw_channels, observe, squared_rows


def simulate_training(C, schedule, sigma_v2, passes, rng):
    """Squared observations (M, passes * N * Ttr) of `passes` passes of the
    schedule: each interval draws its channel H from the (M, K) variances C
    and observes H A + noise, so every test draws the same numbers from
    the same seed."""
    blocks = []
    for t in range(passes * schedule.N):
        alloc = schedule.allocations[t % schedule.N]
        blocks.append(observe(draw_channels(C, rng), alloc, sigma_v2, rng))
    return squared_rows(blocks)


def unclamped_right_inverse(b, Pi, sigma_v2, d=None):
    """The unbiased linear estimate, not clamped to c >= 0: the solution
    (M, K) of (Pi D Pi^T) c = Pi D (b - sigma_v2) for every row of the slot
    means b (M, L), with slot weights d (L,), None meaning D = I.  Solved
    by `np.linalg.solve`, so it is an oracle independent of the library's
    Cholesky solve."""
    d = np.ones(Pi.shape[1]) if d is None else d
    G = (Pi * d) @ Pi.T
    return np.linalg.solve(G, (Pi * d) @ (b - sigma_v2).T).T
