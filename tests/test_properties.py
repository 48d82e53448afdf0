"""Invariances of the shared normal-equation solve, property-tested.

For random full-rank schedules, two-step reconstruction and the weighted
shared-scaling estimate must be
  * scale equivariant: (C, sigma_v2, b) -> (a C, a sigma_v2, a b) gives
    C_hat -> a C_hat;
  * permutation equivariant: relabelling users (rows of every allocation)
    permutes the columns of C_hat the same way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotcov import (
    Allocation,
    ObsCovEstimate,
    Schedule,
    UserGrouping,
    make_random_schedule,
    min_schedule_length,
    shared_scaling_estimate,
    two_step_reconstruct,
)

RTOL = 1e-9
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def problems(draw):
    """A full-rank schedule, noisy slot means b and positive slot weights d."""
    K = draw(st.integers(2, 8))
    Ttr = draw(st.integers(2, K))
    N = draw(st.integers(1, 3)) + min_schedule_length(K, Ttr)
    M = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sched = make_random_schedule(K, Ttr, N, UserGrouping.contiguous(K, 1), rng)
    sigma_v2 = rng.uniform(0.05, 1.0)
    C = rng.uniform(0.1, 2.0, size=(M, K))
    b = (C @ sched.compound + sigma_v2) * rng.uniform(0.5, 1.5, size=(M, N * Ttr))
    d = rng.uniform(0.1, 10.0, size=N * Ttr)
    return sched, b, sigma_v2, d


def _estimates(sched, b, sigma_v2, d):
    two = two_step_reconstruct(ObsCovEstimate(b, 1), sched, sigma_v2, clamp=False)
    shared = shared_scaling_estimate(b, sched.compound, d, sigma_v2, clamp=False)
    return two.C_hat, shared.C_hat


@SETTINGS
@given(problems(), st.floats(1e-3, 1e3))
def test_scale_equivariance(problem, a):
    sched, b, sigma_v2, d = problem
    for base, scaled in zip(_estimates(sched, b, sigma_v2, d),
                            _estimates(sched, a * b, a * sigma_v2, d)):
        np.testing.assert_allclose(scaled, a * base, rtol=RTOL)


@SETTINGS
@given(problems(), st.randoms(use_true_random=False))
def test_user_permutation_equivariance(problem, random):
    sched, b, sigma_v2, d = problem
    perm = np.array(random.sample(range(sched.K), sched.K))
    permuted = Schedule(tuple(Allocation(a.assignment[perm]) for a in sched.allocations))
    for base, moved in zip(_estimates(sched, b, sigma_v2, d),
                           _estimates(permuted, b, sigma_v2, d)):
        np.testing.assert_allclose(moved, base[:, perm], rtol=RTOL)
