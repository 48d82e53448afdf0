"""The Cramér–Rao bound (CRB) as an oracle for the normal-equation solve.

Each squared training observation |phi|^2 is exponential with mean
p = Pi^T c + sigma_v2, so the slot means b of S passes have covariance
diag(p^2 / S), and the Fisher information of one antenna row is
S Pi diag(p^-2) Pi^T (Kay, Fundamentals of Statistical Signal
Processing: Estimation Theory, 1993, ch. 3).

Unclamped, every weighted solve is linear in b:
c_hat = A^T (b - sigma_v2) with A = D Pi^T (Pi D Pi^T)^-1.  Its error
covariance A^T diag(p^2 / S) A equals the CRB for D = p^-2 at the truth
and lies above it in PSD order for every other positive D (Gauss–Markov).
For two-step (D = I) it is G^-1 Pi diag(p^2 / S) Pi^T G^-1, G = Pi Pi^T,
which a Monte-Carlo run through the channel simulator must reproduce.

ML re-weights with D = p^-2 at its own estimate; for an interior truth
and many passes it is efficient (Kay, ch. 7), so its MSE per user
approaches the CRB while two-step's stays above it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotcov import (
    ScenarioConfig,
    Uniform,
    draw_channels,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    generate_covariance_set,
    make_random_schedule,
    min_schedule_length,
    observe,
    squared_rows,
)

from training import unclamped_right_inverse

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def designs(draw):
    """A full-rank schedule, true variances c, noise power, passes S and
    a random positive slot weighting."""
    K = draw(st.integers(2, 8))
    Ttr = draw(st.integers(2, K))
    N = draw(st.integers(1, 3)) + min_schedule_length(K, Ttr)
    S = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sched = make_random_schedule(K, Ttr, N, K, rng)
    c = rng.uniform(0.1, 2.0, size=K)
    sigma_v2 = rng.uniform(0.05, 1.0)
    d = rng.uniform(0.1, 10.0, size=N * Ttr)
    return sched.compound, c, sigma_v2, S, d


def _error_covariance(Pi, sigma_v2, d, p, S):
    """Covariance of the unclamped weighted solve: its linear map A (L x K)
    is the estimate from b = sigma_v2 + I, propagated from diag(p^2 / S)."""
    A = unclamped_right_inverse(sigma_v2 + np.eye(Pi.shape[1]), Pi, sigma_v2, d)
    return A.T @ ((p**2 / S)[:, None] * A)


@SETTINGS
@given(designs())
def test_inverse_square_power_weights_attain_the_crb(design):
    Pi, c, sigma_v2, S, _ = design
    p = Pi.T @ c + sigma_v2
    crb = np.linalg.inv(S * (Pi * p**-2) @ Pi.T)
    np.testing.assert_allclose(_error_covariance(Pi, sigma_v2, p**-2, p, S), crb,
                               rtol=1e-10, atol=0)


@SETTINGS
@given(designs())
def test_other_weights_lie_above_the_crb(design):
    Pi, c, sigma_v2, S, d = design
    p = Pi.T @ c + sigma_v2
    crb = np.linalg.inv(S * (Pi * p**-2) @ Pi.T)
    for weights in (None, d):
        gap = _error_covariance(Pi, sigma_v2, weights, p, S) - crb
        assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.abs(crb).max()


def test_two_step_mse_matches_its_closed_form():
    # M antenna rows share one variance vector and are independent replicas
    rng = np.random.default_rng(2024)
    K, Ttr, N, S, M, sigma_v2 = 6, 3, 5, 60, 2000, 0.5
    sched = make_random_schedule(K, Ttr, N, 3, rng)
    c = np.array([1.0, 0.5, 2.0, 0.8, 1.5, 0.3])
    cov = np.tile(c, (M, 1))
    blocks = [observe(draw_channels(cov, rng), sched.allocations[t % N], sigma_v2, rng)
              for t in range(S * N)]
    b = estimate_obs_covariances(squared_rows(blocks), sched)
    sq_err = (unclamped_right_inverse(b, sched.compound, sigma_v2) - c) ** 2

    Pi = sched.compound
    p = Pi.T @ c + sigma_v2
    G_inv = np.linalg.inv(Pi @ Pi.T)
    predicted = np.diag(G_inv @ (Pi * p**2 / S) @ Pi.T @ G_inv)
    std_err = sq_err.std(axis=0, ddof=1) / np.sqrt(M)
    assert np.all(np.abs(sq_err.mean(axis=0) - predicted) <= 4 * std_err), (
        sq_err.mean(axis=0), predicted, std_err)


def test_interior_ml_rows_attain_the_crb():
    # the uniform profile gives every antenna row the same interior truth,
    # so the M rows are independent replicas of one ML problem
    rng = np.random.default_rng(0)
    K, Ttr, N, S, M, sigma_v2 = 6, 3, 5, 200, 2000, 0.5
    scn = ScenarioConfig(M=M, K=K, Ttr=Ttr, sigma_v2=sigma_v2, num_cells=3,
                         users_per_cell=2, seed=0)
    cov = generate_covariance_set(scn, Uniform(1.0), rng)
    sched = make_random_schedule(K, Ttr, N, 3, rng)
    blocks = [observe(draw_channels(cov, rng), sched.allocations[t % N], sigma_v2, rng)
              for t in range(S * N)]
    b = estimate_obs_covariances(squared_rows(blocks), sched)
    C_hat, converged = estimate_all_rows_ml(b, sched.compound, sigma_v2)
    assert np.all(converged) and np.all(C_hat > 0)

    Pi, c = sched.compound, cov[0]
    p = Pi.T @ c + sigma_v2
    crb = np.diag(np.linalg.inv(S * (Pi * p**-2) @ Pi.T))
    sq_err = (C_hat - c) ** 2
    std_err = sq_err.std(axis=0, ddof=1) / np.sqrt(M)
    assert np.all(np.abs(sq_err.mean(axis=0) - crb) <= 4 * std_err), (
        sq_err.mean(axis=0) / crb, std_err / crb)
    assert abs(sq_err.mean(axis=0).sum() / crb.sum() - 1) <= 0.05
    # the same draws put two-step well above the bound
    two_step = unclamped_right_inverse(b, sched.compound, sigma_v2)
    assert ((two_step - c) ** 2).mean(axis=0).sum() / crb.sum() >= 1.1
