"""Fixtures shared by the tests: the canonical 4x2 schedule read from its
shipped file, training observations drawn interval by interval as H A +
noise rather than from the slot law the sweep uses, and the unclamped
weighted right inverse solved with numpy rather than with the library's
own solve."""

from pathlib import Path

import numpy as np

from pilotcov import draw_channels, load_schedule, observe, squared_rows

# the canonical 4-user, 2-pilot schedule of three allocations (rank 4,
# condition sqrt(3)), shipped for `mode = imported`
EXAMPLE442_SCHEDULE = Path(__file__).resolve().parent.parent / "configs" / "example442_schedule.txt"


def example442():
    """The canonical schedule, read from the file the sweeps import."""
    return load_schedule(str(EXAMPLE442_SCHEDULE), Ttr=2)


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
