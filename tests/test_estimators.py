import numpy as np
import pytest

from pilotcov import (
    CovarianceSet,
    IdentifiabilityError,
    ObsCovEstimate,
    Schedule,
    SingularSystemError,
    UserGrouping,
    draw_channels,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    llf_gradient,
    make_example_schedule_442,
    make_random_schedule,
    ml_fixed_point,
    negative_llf,
    observe,
    shared_scaling_estimate,
    shared_scaling_fixed_point,
    squared_rows,
    two_step_reconstruct,
)


def _simulate(C, schedule, sigma_v2, repeats, rng):
    """Training observations for `repeats` passes of the schedule."""
    cov = CovarianceSet(C)
    blocks = []
    for t in range(repeats * schedule.N):
        alloc = schedule.allocations[t % schedule.N]
        blocks.append(observe(draw_channels(cov, rng), alloc, sigma_v2, rng))
    return squared_rows(blocks)


def _random_instance(rng, K=6, Ttr=3, N=4, repeats=10, sigma_v2=0.5):
    """A random (b_m, Pi, sigma) row problem with positive dense truth."""
    grouping = UserGrouping.contiguous(K // 2, 2)
    schedule = make_random_schedule(K, Ttr, N, grouping, rng)
    Pi = np.tile(schedule.compound, (1, repeats))
    c_true = rng.uniform(0.5, 1.5, size=K)
    powers = Pi.T @ c_true + sigma_v2
    b = powers * rng.exponential(1.0, size=Pi.shape[1])
    return b, Pi, sigma_v2, c_true


class TestEstimateObsCovariances:
    def test_single_repeat_is_identity(self):
        sched = make_example_schedule_442()
        B = np.arange(12.0).reshape(2, 6)
        out = estimate_obs_covariances(B, sched)
        np.testing.assert_array_equal(out.c_obs, B)

    def test_constant_input(self):
        sched = make_example_schedule_442()
        B = np.full((3, 18), 5.0)
        out = estimate_obs_covariances(B, sched)
        np.testing.assert_array_equal(out.c_obs, np.full((3, 6), 5.0))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(0)
        sched = make_example_schedule_442()
        C = np.array([[1.0, 0.5, 2.0, 0.8], [0.3, 1.2, 0.7, 1.5]])
        sigma_v2 = 0.2
        S = 10_000
        B = _simulate(C, sched, sigma_v2, S, rng)
        out = estimate_obs_covariances(B, sched)
        expected = C @ sched.compound + sigma_v2
        np.testing.assert_allclose(out.c_obs, expected, rtol=0.05)

    def test_mismatched_columns_rejected(self):
        sched = make_example_schedule_442()
        with pytest.raises(ValueError):
            estimate_obs_covariances(np.zeros((2, 7)), sched)
        with pytest.raises(ValueError):
            estimate_obs_covariances(np.zeros((2, 0)), sched)  # empty window


class TestTwoStepReconstruct:
    def test_exact_forward_model_recovery(self):
        rng = np.random.default_rng(1)
        sched = make_example_schedule_442()
        sigma_v2 = 0.3
        for _ in range(20):
            C = rng.random((8, 4))
            exact = ObsCovEstimate(C @ sched.compound + sigma_v2, 1)
            est = two_step_reconstruct(exact, sched, sigma_v2)
            assert np.max(np.abs(est.C_hat - C)) < 1e-10

    def test_noise_only_observations_give_zero(self):
        sched = make_example_schedule_442()
        obs = ObsCovEstimate(np.full((3, 6), 0.7), 1)
        est = two_step_reconstruct(obs, sched, 0.7)
        np.testing.assert_allclose(est.C_hat, 0.0, atol=1e-12)

    def test_all_zero_case(self):
        sched = make_example_schedule_442()
        est = two_step_reconstruct(ObsCovEstimate(np.zeros((2, 6)), 1), sched, 0.0)
        np.testing.assert_array_equal(est.C_hat, np.zeros((2, 4)))

    def test_rank_deficient_schedule_rejected(self):
        alloc = make_example_schedule_442().allocations[0]
        sched = Schedule((alloc, alloc))
        with pytest.raises(IdentifiabilityError, match="rank 2"):
            two_step_reconstruct(ObsCovEstimate(np.ones((2, 4)), 1), sched, 0.1)


class TestSharedScalingEstimate:
    def test_identity_weights_match_two_step(self):
        rng = np.random.default_rng(2)
        sched = make_example_schedule_442()
        sigma_v2 = 0.4
        B_mean = rng.random((5, 6)) + sigma_v2
        est_d = shared_scaling_estimate(B_mean, sched.compound, None, sigma_v2)
        est_t = two_step_reconstruct(ObsCovEstimate(B_mean, 1), sched, sigma_v2)
        assert np.max(np.abs(est_d.C_hat - est_t.C_hat)) < 1e-10

    def test_any_positive_weights_recover_exact_inputs(self):
        rng = np.random.default_rng(3)
        sched = make_example_schedule_442()
        for _ in range(10):
            C = rng.random((4, 4))
            d = rng.uniform(0.1, 5.0, size=6)
            exact = C @ sched.compound + 0.2
            est = shared_scaling_estimate(exact, sched.compound, d, 0.2)
            assert np.max(np.abs(est.C_hat - C)) < 1e-10

    def test_noise_floor_gives_zero(self):
        sched = make_example_schedule_442()
        est = shared_scaling_estimate(np.full((2, 6), 0.5), sched.compound, None, 0.5)
        np.testing.assert_allclose(est.C_hat, 0.0, atol=1e-12)

    def test_singular_system_rejected(self):
        Pi = np.ones((3, 4))  # rank-one Gram matrix
        with pytest.raises((SingularSystemError, ValueError)):
            shared_scaling_estimate(np.ones((2, 4)), Pi, None, 0.0)

    def test_right_inverse_identity(self):
        # algebraic core: Pi^T D (Pi D Pi^T)^{-1} right-inverts Pi for any
        # positive diagonal D, independently of the estimator code path
        rng = np.random.default_rng(4)
        grouping = UserGrouping.contiguous(3, 2)
        sched = make_random_schedule(6, 4, 4, grouping, rng)
        Pi = sched.compound
        for _ in range(10):
            C = rng.random((5, 6))
            d = rng.uniform(0.2, 3.0, size=Pi.shape[1])
            right_inv = (d[:, None] * Pi.T) @ np.linalg.inv((Pi * d) @ Pi.T)
            np.testing.assert_allclose((C @ Pi) @ right_inv, C, atol=1e-10)


class TestNegativeLLF:
    def test_zero_variances_unit_noise(self):
        b = np.array([1.0, 2.0, 3.0])
        Pi = np.ones((2, 3)) * np.array([[1.0], [0.0]])
        assert negative_llf(np.zeros(2), b, Pi, 1.0) == pytest.approx(b.sum())

    def test_scalar_closed_form(self):
        # single slot: b/(c+s) + log(c+s) with b=2, c=1, s=1
        val = negative_llf(np.array([1.0]), np.array([2.0]), np.ones((1, 1)), 1.0)
        assert val == pytest.approx(1.0 + np.log(2.0), rel=1e-12)

    def test_matches_reevaluation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b, Pi, s2, _ = _random_instance(rng)
            c = rng.uniform(0.1, 2.0, size=Pi.shape[0])
            slow = sum(
                b[i] / (Pi[:, i] @ c + s2) + np.log(Pi[:, i] @ c + s2)
                for i in range(Pi.shape[1])
            )
            assert negative_llf(c, b, Pi, s2) == pytest.approx(slow, rel=1e-12)

    def test_nonpositive_slot_power_rejected(self):
        with pytest.raises(ValueError):
            negative_llf(np.zeros(1), np.ones(2), np.ones((1, 2)), 0.0)


class TestLLFGradient:
    def test_vanishes_at_exact_residuals(self):
        rng = np.random.default_rng(6)
        _, Pi, s2, c_true = _random_instance(rng)
        b = Pi.T @ c_true + s2
        np.testing.assert_allclose(
            llf_gradient(c_true, b, Pi, s2), 0.0, atol=1e-12
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            K = int(rng.integers(2, 9))
            Ttr = int(rng.integers(2, min(K, 4) + 1))
            N = int(rng.integers(2, 5))
            reps = int(rng.integers(1, max(2, 60 // (N * Ttr)) + 1))
            grouping = UserGrouping.contiguous(K, 1)  # unconstrained pilots
            sched = make_random_schedule(K, Ttr, N, grouping, rng,
                                         require_full_rank=False)
            Pi = np.tile(sched.compound, (1, reps))
            s2 = rng.uniform(0.2, 1.0)
            c = rng.uniform(0.1, 2.0, size=K)
            b = rng.exponential(1.0, size=Pi.shape[1])
            grad = llf_gradient(c, b, Pi, s2)
            fd = np.empty(K)
            for j in range(K):
                h = 1e-6 * max(1.0, abs(c[j]))
                e = np.zeros(K)
                e[j] = h
                fd[j] = (
                    negative_llf(c + e, b, Pi, s2)
                    - negative_llf(c - e, b, Pi, s2)
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) < 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_scalar_gradient_sign(self):
        # single variance: gradient positive iff c + sigma exceeds mean(b)
        b = np.array([1.0, 3.0])  # mean 2
        Pi = np.ones((1, 2))
        assert llf_gradient(np.array([2.0]), b, Pi, 0.5)[0] > 0
        assert llf_gradient(np.array([1.0]), b, Pi, 0.5)[0] < 0


class TestMLFixedPoint:
    def test_scalar_closed_form(self):
        rng = np.random.default_rng(8)
        b = rng.exponential(2.0, size=10_000)
        res = ml_fixed_point(b, np.ones((1, b.size)), 1.0)
        assert res.converged
        assert abs(res.c_hat[0] - (b.mean() - 1.0)) < 1e-8

    def test_scalar_closed_form_clamps_at_zero(self):
        b = np.full(100, 0.05)
        res = ml_fixed_point(b, np.ones((1, 100)), 1.0)
        assert res.c_hat[0] == 0.0

    def test_consistency_with_many_repeats(self):
        rng = np.random.default_rng(9)
        K, Ttr, N = 4, 2, 3
        sched = make_example_schedule_442()
        c_true = np.array([1.0, 0.4, 1.6, 0.7])
        S = 1000
        Pi = np.tile(sched.compound, (1, S))
        powers = Pi.T @ c_true + 0.1
        b = powers * rng.exponential(1.0, size=Pi.shape[1])
        res = ml_fixed_point(b, Pi, 0.1)
        assert np.linalg.norm(res.c_hat - c_true) / np.linalg.norm(c_true) < 0.1

    def test_interior_convergence_certifies_stationarity(self):
        rng = np.random.default_rng(10)
        tol = 1e-8
        checked = 0
        for _ in range(20):
            b, Pi, s2, _ = _random_instance(rng, repeats=30)
            res = ml_fixed_point(b, Pi, s2, tol=tol)
            if res.converged and np.all(res.c_hat > 0):
                g = llf_gradient(res.c_hat, b, Pi, s2)
                assert np.max(np.abs(g)) <= 10 * tol
                checked += 1
        assert checked >= 5

    def test_negative_init_rejected(self):
        with pytest.raises(ValueError):
            ml_fixed_point(np.ones(4), np.ones((1, 4)), 0.1, init=np.array([-1.0]))

    def test_rank_deficient_system_raises(self):
        Pi = np.ones((2, 6))  # two identical user rows
        with pytest.raises(SingularSystemError):
            ml_fixed_point(np.ones(6), Pi, 0.1)


class TestEstimateAllRowsML:
    def test_single_row_matches_direct_call(self):
        rng = np.random.default_rng(11)
        b, Pi, s2, _ = _random_instance(rng)
        est = estimate_all_rows_ml(b[None, :], Pi, s2)
        direct = ml_fixed_point(b, Pi, s2)
        np.testing.assert_allclose(est.C_hat[0], direct.c_hat, atol=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        sched = make_example_schedule_442()
        C = rng.random((5, 4)) + 0.2
        B = _simulate(C, sched, 0.3, 40, rng)
        perm = np.array([3, 0, 4, 1, 2])
        est = estimate_all_rows_ml(B, np.tile(sched.compound, (1, 40)), 0.3)
        est_perm = estimate_all_rows_ml(
            B[perm], np.tile(sched.compound, (1, 40)), 0.3
        )
        np.testing.assert_allclose(est_perm.C_hat, est.C_hat[perm], atol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(13)
        sched = make_example_schedule_442()
        C = rng.random((3, 4))
        B = _simulate(C, sched, 0.2, 30, rng)
        Pi = np.tile(sched.compound, (1, 30))
        a = estimate_all_rows_ml(B, Pi, 0.2)
        b = estimate_all_rows_ml(B, Pi, 0.2)
        np.testing.assert_array_equal(a.C_hat, b.C_hat)

    def test_convergence_flags_returned(self):
        rng = np.random.default_rng(14)
        sched = make_example_schedule_442()
        C = rng.random((3, 4)) + 0.5
        B = _simulate(C, sched, 0.2, 50, rng)
        Pi = np.tile(sched.compound, (1, 50))
        est, flags = estimate_all_rows_ml(B, Pi, 0.2, return_convergence=True)
        assert flags.shape == (3,)
        assert est.C_hat.shape == (3, 4)


class TestSharedScalingFixedPoint:
    def test_exact_inputs_recovered(self):
        rng = np.random.default_rng(15)
        sched = make_example_schedule_442()
        C = rng.random((4, 4))
        exact = np.tile(C @ sched.compound + 0.2, (1, 5))
        Pi = np.tile(sched.compound, (1, 5))
        est = shared_scaling_fixed_point(exact, Pi, 0.2)
        assert np.max(np.abs(est.C_hat - C)) < 1e-8

    def test_close_to_per_row_on_noisy_data(self):
        rng = np.random.default_rng(16)
        sched = make_example_schedule_442()
        C = rng.random((4, 4)) + 0.3
        B = _simulate(C, sched, 0.3, 60, rng)
        Pi = np.tile(sched.compound, (1, 60))
        shared = shared_scaling_fixed_point(B, Pi, 0.3)
        per_row = estimate_all_rows_ml(B, Pi, 0.3)
        # both consistent estimators of the same truth on the same data
        assert (
            np.linalg.norm(shared.C_hat - per_row.C_hat)
            / np.linalg.norm(per_row.C_hat)
            < 0.25
        )


class TestConsistencyInT:
    def test_rmse_shrinks_with_tenfold_data(self):
        rng = np.random.default_rng(17)
        sched = make_example_schedule_442()
        C = np.array([[1.0, 0.5, 1.5, 0.8], [0.6, 1.1, 0.4, 1.3]])
        errs = {10: [], 100: []}
        for seed in range(20):
            local = np.random.default_rng(seed)
            for S in (10, 100):
                B = _simulate(C, sched, 0.2, S, local)
                est = estimate_all_rows_ml(B, np.tile(sched.compound, (1, S)), 0.2)
                errs[S].append(np.linalg.norm(est.C_hat - C) / np.linalg.norm(C))
        assert np.mean(errs[100]) < np.mean(errs[10])
