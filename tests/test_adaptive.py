import numpy as np
import pytest
import scipy.linalg

from pilotcov import (
    AdaptiveState,
    adaptive_update,
    estimate_obs_covariances,
    make_random_schedule,
    two_step_reconstruct,
)
from pilotcov.experiment import _estimate_adaptive

from training import simulate_training


class TestInitialization:
    def test_initial_state(self):
        st = AdaptiveState.initialize(3, lam=0.95)
        np.testing.assert_array_equal(st.Xi, np.eye(3))
        np.testing.assert_array_equal(st.psi, np.zeros(3))
        np.testing.assert_array_equal(st.c_hat, np.ones(3))

    def test_stacked_initial_state(self):
        st = AdaptiveState.initialize(3, lam=0.95, shape=(4, 2))
        assert st.K == 3
        np.testing.assert_array_equal(st.Xi, np.broadcast_to(np.eye(3), (4, 2, 3, 3)))
        np.testing.assert_array_equal(st.psi, np.zeros((4, 2, 3)))
        np.testing.assert_array_equal(st.c_hat, np.ones((4, 2, 3)))

    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.5])
    def test_invalid_forgetting_factor(self, lam):
        with pytest.raises(ValueError):
            AdaptiveState.initialize(2, lam=lam)


class TestSingleUpdate:
    def test_hand_executed_first_update(self):
        # K=2, Ttr=2, identity allocation, unit noise, lam=0.9; starting
        # from the canonical initialization the slot powers are 1+1=2, so
        # the weights are 1/4 and Xi becomes diag(0.9 + 0.25)
        st = AdaptiveState.initialize(2, lam=0.9)
        alloc = np.eye(2)
        b = np.array([3.0, 5.0])
        new = adaptive_update(st, alloc, b, 1.0)
        np.testing.assert_allclose(new.psi, [(3 - 1) / 4, (5 - 1) / 4])
        np.testing.assert_allclose(new.Xi, np.diag([1.15, 1.15]))
        np.testing.assert_allclose(new.c_hat, [0.5 / 1.15, 1.0 / 1.15])

    def test_state_is_not_mutated(self):
        st = AdaptiveState.initialize(2, lam=0.9)
        adaptive_update(st, np.eye(2), np.array([2.0, 2.0]), 1.0)
        np.testing.assert_array_equal(st.Xi, np.eye(2))
        np.testing.assert_array_equal(st.psi, np.zeros(2))

    def test_negative_solution_clamped(self):
        st = AdaptiveState.initialize(1, lam=0.9)
        new = adaptive_update(st, np.ones((1, 1)), np.array([0.0]), 1.0)
        assert new.c_hat[0] == 0.0
        assert new.psi[0] < 0

    def test_wrong_observation_length_rejected(self):
        st = AdaptiveState.initialize(2, lam=0.9)
        with pytest.raises(ValueError):
            adaptive_update(st, np.eye(2), np.array([1.0]), 1.0)
        # the leading (row) shapes of state and observations must match
        stacked = AdaptiveState.initialize(2, lam=0.9, shape=(3,))
        for state, b in [(stacked, np.ones((2, 2))), (stacked, np.ones(2)),
                         (stacked, np.ones((1, 3, 2))), (st, np.ones((3, 2)))]:
            with pytest.raises(ValueError):
                adaptive_update(state, np.eye(2), b, 1.0)


class TestBatchEquivalence:
    def test_unit_scaling_matches_two_step(self):
        # lam=1 with unit weights accumulates plain normal equations; after
        # subtracting the decayed identity initialization the solution is
        # the two-step reconstruction of the slot sample means
        rng = np.random.default_rng(0)
        K, Ttr, N, S = 6, 4, 4, 50
        sched = make_random_schedule(K, Ttr, N, 2, rng)
        C = rng.random((3, K)) + 0.2
        sigma_v2 = 0.3
        B = simulate_training(C, sched, sigma_v2, S, rng)
        batch = two_step_reconstruct(
            estimate_obs_covariances(B, sched), sched, sigma_v2, clamp=False
        )
        for m in range(3):
            st = AdaptiveState.initialize(K, lam=1.0)
            for t in range(S * N):
                alloc = sched.allocations[t % N]
                st = adaptive_update(
                    st, alloc, B[m, t * Ttr : (t + 1) * Ttr], sigma_v2,
                    unit_scaling=True,
                )
            c = np.linalg.solve(st.Xi - np.eye(K), st.psi)
            assert np.max(np.abs(c - batch[m])) < 1e-8


class TestNoiseFreeFixedPoint:
    def test_true_variances_are_fixed_point_modulo_init(self):
        # feeding the exact expected statistics keeps the init-corrected
        # solve at the true variances after every complete pass, for any
        # weights, because every accumulated equation is consistent
        rng = np.random.default_rng(1)
        K, Ttr, N = 5, 3, 4
        sched = make_random_schedule(K, Ttr, N, 5, rng)
        c_true = rng.uniform(0.5, 2.0, size=K)
        sigma_v2 = 0.4
        lam = 0.9
        st = AdaptiveState.initialize(K, lam=lam)
        n = 0
        for _ in range(5):
            for alloc in sched.allocations:
                b = alloc.T @ c_true + sigma_v2
                st = adaptive_update(st, alloc, b, sigma_v2)
                n += 1
            c = np.linalg.solve(st.Xi - lam**n * np.eye(K), st.psi)
            np.testing.assert_allclose(c, c_true, atol=1e-10)
        # the init bias itself decays: the stored estimate approaches truth
        np.testing.assert_allclose(st.c_hat, c_true, rtol=0.2)


def _per_row_update(Xi, psi, c_hat, lam, A, b_m_t, sigma_v2):
    """Reference: one adaptive interval for one antenna row, in vector form."""
    d = (A.T @ c_hat + sigma_v2) ** -2
    psi = lam * psi + A @ (d * (b_m_t - sigma_v2))
    Xi = lam * Xi + (A * d) @ A.T
    return Xi, psi, np.maximum(scipy.linalg.solve(Xi, psi, assume_a="pos"), 0.0)


def _per_row_estimate(B, schedule, sigma_v2, lam):
    """Reference: the adaptive estimator run row by row, interval by interval."""
    K, Ttr, N = schedule.K, schedule.Ttr, schedule.N
    C_hat = np.empty((B.shape[0], K))
    for m in range(B.shape[0]):
        Xi, psi, c_hat = np.eye(K), np.zeros(K), np.ones(K)
        for t in range(B.shape[1] // Ttr):
            Xi, psi, c_hat = _per_row_update(
                Xi, psi, c_hat, lam, schedule.allocations[t % N],
                B[m, t * Ttr : (t + 1) * Ttr], sigma_v2,
            )
        C_hat[m] = c_hat
    return C_hat


def _sparse_problem(rng, M, K, Ttr, N, T, cells):
    """A schedule and squared observations for T intervals whose true
    variances are zero for about a third of the (antenna, user) pairs."""
    sched = make_random_schedule(K, Ttr, N, cells, rng)
    C = rng.uniform(0.05, 2.0, size=(M, K)) * (rng.random((M, K)) > 0.3)
    sigma_v2 = 0.1
    B = simulate_training(C, sched, sigma_v2, T // N, rng)
    return B, sched, sigma_v2


class TestStackedMatchesPerRow:
    """All antenna rows are updated as one stack per interval; the per-row
    loop above is the reference."""

    def test_bit_identical_at_desk_geometry(self):
        rng = np.random.default_rng(11)
        B, sched, sigma_v2 = _sparse_problem(rng, M=32, K=12, Ttr=5, N=5, T=60, cells=3)
        np.testing.assert_array_equal(
            _estimate_adaptive(B, sched, sigma_v2, 0.99),
            _per_row_estimate(B, sched, sigma_v2, 0.99),
        )

    def test_matches_at_full_scale_geometry(self):
        rng = np.random.default_rng(12)
        B, sched, sigma_v2 = _sparse_problem(rng, M=6, K=70, Ttr=11, N=7, T=21, cells=7)
        np.testing.assert_allclose(
            _estimate_adaptive(B, sched, sigma_v2, 0.99),
            _per_row_estimate(B, sched, sigma_v2, 0.99),
            rtol=1e-12, atol=0,
        )

    def test_matches_with_rows_clamped_at_zero(self):
        # rows that see less than the noise floor are clamped to zero
        # entirely; users absent from a row clamp single entries
        rng = np.random.default_rng(13)
        B, sched, sigma_v2 = _sparse_problem(rng, M=8, K=6, Ttr=3, N=4, T=40, cells=3)
        B[:3] = 0.0
        C_ref = _per_row_estimate(B, sched, sigma_v2, 0.95)
        assert np.all(C_ref[:3] == 0.0)
        assert 0 < np.count_nonzero(C_ref[3:] == 0.0) < C_ref[3:].size
        np.testing.assert_array_equal(
            _estimate_adaptive(B, sched, sigma_v2, 0.95), C_ref
        )
