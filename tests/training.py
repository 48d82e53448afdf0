"""Training observations for the estimator tests, drawn interval by
interval as H A + noise rather than from the slot law the sweep uses."""

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
