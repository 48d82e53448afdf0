import numpy as np
import pytest

from pilotcov import (
    Allocation,
    AdaptiveState,
    CovarianceSet,
    UserGrouping,
    adaptive_update,
    draw_channels,
    estimate_obs_covariances,
    make_random_schedule,
    observe,
    squared_rows,
    two_step_reconstruct,
)


class TestInitialization:
    def test_initial_state(self):
        st = AdaptiveState.initialize(3, lam=0.95)
        np.testing.assert_array_equal(st.Xi, np.eye(3))
        np.testing.assert_array_equal(st.psi, np.zeros(3))
        np.testing.assert_array_equal(st.c_hat, np.ones(3))

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
        alloc = Allocation(np.eye(2))
        b = np.array([3.0, 5.0])
        new = adaptive_update(st, alloc, b, 1.0)
        np.testing.assert_allclose(new.psi, [(3 - 1) / 4, (5 - 1) / 4])
        np.testing.assert_allclose(new.Xi, np.diag([1.15, 1.15]))
        np.testing.assert_allclose(new.c_hat, [0.5 / 1.15, 1.0 / 1.15])

    def test_state_is_not_mutated(self):
        st = AdaptiveState.initialize(2, lam=0.9)
        adaptive_update(st, Allocation(np.eye(2)), np.array([2.0, 2.0]), 1.0)
        np.testing.assert_array_equal(st.Xi, np.eye(2))
        np.testing.assert_array_equal(st.psi, np.zeros(2))

    def test_negative_solution_clamped(self):
        st = AdaptiveState.initialize(1, lam=0.9)
        new = adaptive_update(st, Allocation(np.ones((1, 1))), np.array([0.0]), 1.0)
        assert new.c_hat[0] == 0.0
        assert new.psi[0] < 0

    def test_wrong_observation_length_rejected(self):
        st = AdaptiveState.initialize(2, lam=0.9)
        with pytest.raises(ValueError):
            adaptive_update(st, Allocation(np.eye(2)), np.array([1.0]), 1.0)


def _training_blocks(C, schedule, sigma_v2, passes, rng):
    cov = CovarianceSet(C)
    blocks = []
    for t in range(passes * schedule.N):
        alloc = schedule.allocations[t % schedule.N]
        blocks.append(observe(draw_channels(cov, rng), alloc, sigma_v2, rng))
    return squared_rows(blocks)


class TestBatchEquivalence:
    def test_unit_scaling_matches_two_step(self):
        # lam=1 with unit weights accumulates plain normal equations; after
        # subtracting the decayed identity initialization the solution is
        # the two-step reconstruction of the slot sample means
        rng = np.random.default_rng(0)
        K, Ttr, N, S = 6, 4, 4, 50
        grouping = UserGrouping.contiguous(2, 3)
        sched = make_random_schedule(K, Ttr, N, grouping, rng)
        C = rng.random((3, K)) + 0.2
        sigma_v2 = 0.3
        B = _training_blocks(C, sched, sigma_v2, S, rng)
        batch = two_step_reconstruct(
            estimate_obs_covariances(B, sched, S), sched, sigma_v2, clamp=False
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
            assert np.max(np.abs(c - batch.C_hat[m])) < 1e-8


class TestNoiseFreeFixedPoint:
    def test_true_variances_are_fixed_point_modulo_init(self):
        # feeding the exact expected statistics keeps the init-corrected
        # solve at the true variances after every complete pass, for any
        # weights, because every accumulated equation is consistent
        rng = np.random.default_rng(1)
        K, Ttr, N = 5, 3, 4
        grouping = UserGrouping.contiguous(5, 1)
        sched = make_random_schedule(K, Ttr, N, grouping, rng)
        c_true = rng.uniform(0.5, 2.0, size=K)
        sigma_v2 = 0.4
        lam = 0.9
        st = AdaptiveState.initialize(K, lam=lam)
        n = 0
        for _ in range(5):
            for alloc in sched.allocations:
                b = alloc.assignment.T @ c_true + sigma_v2
                st = adaptive_update(st, alloc, b, sigma_v2)
                n += 1
            c = np.linalg.solve(st.Xi - lam**n * np.eye(K), st.psi)
            np.testing.assert_allclose(c, c_true, atol=1e-10)
        # the init bias itself decays: the stored estimate approaches truth
        np.testing.assert_allclose(st.c_hat, c_true, rtol=0.2)
