"""Invariances of the shared normal-equation solve, property-tested.

For random full-rank schedules, two-step reconstruction and the weighted
shared-scaling estimate, both clamped to c >= 0 as the sweep runs them,
must be
  * scale equivariant: (C, sigma_v2, b) -> (a C, a sigma_v2, a b) gives
    C_hat -> a C_hat;
  * permutation equivariant: relabelling users (rows of every allocation)
    permutes the columns of C_hat the same way.

The numerical rank of any random schedule respects the structural bound
Ttr + (N - 1)(Ttr - 1): every user is served in every interval, so each
allocation after the first adds at most Ttr - 1 to the rank.

The per-slot means over the S passes of a window are a sufficient
statistic: the NLL and its gradient on the raw squared observations are S
times those on the means, so the ML estimators give the same answer on
either input.

The adaptive estimator updates all antenna rows as one stack, yet the
rows stay independent problems: permuting the rows of B permutes the rows
of its estimate and changes nothing else, and each row of a stacked update
is bit for bit the single-row update of that row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotcov import (
    Schedule,
    adaptive_estimate,
    adaptive_update,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    llf_gradient,
    make_random_schedule,
    min_schedule_length,
    negative_llf,
    rank_and_condition,
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
    sched = make_random_schedule(K, Ttr, N, K, rng)
    sigma_v2 = rng.uniform(0.05, 1.0)
    C = rng.uniform(0.1, 2.0, size=(M, K))
    b = (C @ sched.compound + sigma_v2) * rng.uniform(0.5, 1.5, size=(M, N * Ttr))
    d = rng.uniform(0.1, 10.0, size=N * Ttr)
    return sched, b, sigma_v2, d


def _estimates(sched, b, sigma_v2, d):
    two = two_step_reconstruct(b, sched, sigma_v2)
    shared = shared_scaling_estimate(b, sched.compound, d, sigma_v2)
    return two, shared


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
    permuted = Schedule(sched.pilots[:, perm], sched.Ttr)
    for base, moved in zip(_estimates(sched, b, sigma_v2, d),
                           _estimates(permuted, b, sigma_v2, d)):
        np.testing.assert_allclose(moved, base[:, perm], rtol=RTOL)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 6), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_rank_respects_structural_bound(cells, per_cell, Ttr, N, seed):
    Ttr = max(Ttr, per_cell)
    K = cells * per_cell
    sched = make_random_schedule(K, Ttr, N, cells,
                                 np.random.default_rng(seed), require_full_rank=False)
    rank, _ = rank_and_condition(sched)
    assert 1 <= rank <= min(K, Ttr + (N - 1) * (Ttr - 1))
    assert (sched.rank, sched.cond) == rank_and_condition(sched)
    assert sched.identifiable == (sched.rank == K)


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
    sched = make_random_schedule(K, Ttr, N, K, rng)
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
    b_mean = estimate_obs_covariances(B, sched)
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
    b_mean = estimate_obs_covariances(B, sched)
    Pi, Pi_raw = sched.compound, np.tile(sched.compound, (1, S))
    np.testing.assert_allclose(shared_scaling_fixed_point(B, Pi_raw, sigma_v2)[0],
                               shared_scaling_fixed_point(b_mean, Pi, sigma_v2)[0],
                               rtol=RTOL)
    raw, raw_flags = estimate_all_rows_ml(B, Pi_raw, sigma_v2)
    means, flags = estimate_all_rows_ml(b_mean, Pi, sigma_v2)
    assert _relative_gap(raw, means) <= 1e-5
    np.testing.assert_array_equal(raw_flags, flags)


@SETTINGS
@given(windows(), st.randoms(use_true_random=False))
def test_adaptive_estimate_permutes_with_antenna_rows(window, random):
    sched, B, _, sigma_v2, _ = window
    perm = np.array(random.sample(range(B.shape[0]), B.shape[0]))
    np.testing.assert_array_equal(adaptive_estimate(B[perm], sched, sigma_v2, 0.99),
                                  adaptive_estimate(B, sched, sigma_v2, 0.99)[perm])


@SETTINGS
@given(windows(), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_stacked_adaptive_update_is_the_single_row_update_per_row(window, steps, seed):
    sched, B, _, sigma_v2, _ = window
    M, K, Ttr, N = B.shape[0], sched.K, sched.Ttr, sched.N
    rng = np.random.default_rng(seed)
    Xi, psi = np.zeros((M, K, K)) + np.eye(K), np.zeros((M, K))
    for t in range(min(steps, B.shape[1] // Ttr - 1) + 1):
        alloc, r = sched.allocations[t % N], B[:, t * Ttr : (t + 1) * Ttr] - sigma_v2
        d = rng.uniform(0.01, 100.0, size=(M, Ttr))
        rows = [(Xi[m].copy(), psi[m].copy()) for m in range(M)]
        stacked = adaptive_update(Xi, psi, alloc, d, r, 0.9)
        for m, (Xi_m, psi_m) in enumerate(rows):
            single = adaptive_update(Xi_m, psi_m, alloc, d[m], r[m], 0.9)
            np.testing.assert_array_equal(Xi[m], Xi_m)
            np.testing.assert_array_equal(psi[m], psi_m)
            np.testing.assert_array_equal(stacked[m], single)
