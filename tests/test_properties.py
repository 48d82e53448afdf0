"""Invariances of the shared normal-equation solve, property-tested.

For random full-rank schedules, two-step reconstruction and the weighted
shared-scaling estimate must be
  * scale equivariant: (C, sigma_v2, b) -> (a C, a sigma_v2, a b) gives
    C_hat -> a C_hat;
  * permutation equivariant: relabelling users (rows of every allocation)
    permutes the columns of C_hat the same way.

The per-slot means over the S passes of a window are a sufficient
statistic: the NLL and its gradient on the raw squared observations are S
times those on the means, so the ML estimators give the same answer on
either input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotcov import (
    Allocation,
    ObsCovEstimate,
    Schedule,
    UserGrouping,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    llf_gradient,
    make_random_schedule,
    min_schedule_length,
    negative_llf,
    shared_scaling_estimate,
    shared_scaling_fixed_point,
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


@st.composite
def windows(draw):
    """A full-rank schedule, S passes of raw squared observations (M x
    S*N*Ttr) drawn around the true variances C, and the noise power."""
    K = draw(st.integers(2, 8))
    Ttr = draw(st.integers(2, K))
    N = draw(st.integers(1, 3)) + min_schedule_length(K, Ttr)
    M = draw(st.integers(1, 4))
    S = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sched = make_random_schedule(K, Ttr, N, UserGrouping.contiguous(K, 1), rng)
    sigma_v2 = rng.uniform(0.05, 1.0)
    C = rng.uniform(0.1, 2.0, size=(M, K))
    powers = np.tile(C @ sched.compound + sigma_v2, (1, S))
    B = powers * rng.exponential(1.0, size=powers.shape)
    return sched, B, S, sigma_v2, C


def _relative_gap(a, b):
    """Largest absolute difference over the largest absolute entry of b."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@SETTINGS
@given(windows())
def test_raw_nll_and_gradient_are_S_times_slot_mean_ones(window):
    sched, B, S, sigma_v2, C = window
    b_mean = estimate_obs_covariances(B, sched).c_obs
    Pi, Pi_raw = sched.compound, np.tile(sched.compound, (1, S))
    for c, b_raw, b in zip(C, B, b_mean):
        np.testing.assert_allclose(negative_llf(c, b_raw, Pi_raw, sigma_v2),
                                   S * negative_llf(c, b, Pi, sigma_v2), rtol=1e-12)
        assert _relative_gap(llf_gradient(c, b_raw, Pi_raw, sigma_v2),
                             S * llf_gradient(c, b, Pi, sigma_v2)) <= 1e-12


@SETTINGS
@given(windows())
def test_ml_estimators_agree_on_raw_data_and_slot_means(window):
    sched, B, S, sigma_v2, _ = window
    b_mean = estimate_obs_covariances(B, sched).c_obs
    Pi, Pi_raw = sched.compound, np.tile(sched.compound, (1, S))
    np.testing.assert_allclose(shared_scaling_fixed_point(B, Pi_raw, sigma_v2).C_hat,
                               shared_scaling_fixed_point(b_mean, Pi, sigma_v2).C_hat,
                               rtol=RTOL)
    raw, raw_flags = estimate_all_rows_ml(B, Pi_raw, sigma_v2, return_convergence=True)
    means, flags = estimate_all_rows_ml(b_mean, Pi, sigma_v2, return_convergence=True)
    assert _relative_gap(raw.C_hat, means.C_hat) <= 1e-5
    np.testing.assert_array_equal(raw_flags, flags)
