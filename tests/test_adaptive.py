import numpy as np
import pytest
import scipy.linalg

from pilotcov import (
    Schedule,
    adaptive_estimate,
    adaptive_update,
    estimate_obs_covariances,
    make_random_schedule,
)

from training import simulate_training, unclamped_right_inverse

# K=2, Ttr=2, identity allocation, unit noise, lam=0.9: from the prior
# Xi = I, psi = 0, c = 1 the slot powers are 1+1=2, so the weights are 1/4
# and Xi becomes diag(0.9 + 0.25)
IDENTITY = Schedule(np.array([[0, 1]]), Ttr=2)
FIRST_UPDATE = [0.5 / 1.15, 1.0 / 1.15]


class TestInitialization:
    def test_initial_state(self):
        # the hand-executed first update is reached from the prior alone
        C = adaptive_estimate(np.array([[3.0, 5.0]]), IDENTITY, 1.0, 0.9)
        np.testing.assert_allclose(C, [FIRST_UPDATE])

    def test_stacked_initial_state(self):
        # every row of a stack starts from the same prior
        B = np.array([[3.0, 5.0], [5.0, 3.0], [1.0, 1.0]])
        np.testing.assert_allclose(adaptive_estimate(B, IDENTITY, 1.0, 0.9),
                                   [FIRST_UPDATE, FIRST_UPDATE[::-1], [0.0, 0.0]])

    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.5])
    def test_invalid_forgetting_factor(self, lam):
        with pytest.raises(ValueError, match="forgetting factor"):
            adaptive_estimate(np.ones((1, 2)), IDENTITY, 1.0, lam)

    @pytest.mark.parametrize("columns", [0, 1, 3, 5])
    def test_partial_interval_rejected(self, columns):
        # as estimate_obs_covariances refuses partial passes, the adaptive
        # estimator refuses a window that ends inside an interval, or an
        # empty one, which would return the prior as its estimate
        with pytest.raises(ValueError, match="whole intervals of Ttr=2"):
            adaptive_estimate(np.ones((3, columns)), IDENTITY, 1.0, 0.9)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_bad_squared_observation_refused_at_entry(self, monkeypatch, bad):
        # the window rule of estimate_obs_covariances, checked before the
        # first update: the bad entry sits in the last interval
        from pilotcov import estimators

        updates = []
        monkeypatch.setattr(estimators, "adaptive_update",
                            lambda *args, **kw: updates.append(args))
        B = np.ones((3, 6))
        B[1, -1] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            adaptive_estimate(B, IDENTITY, 1.0, 0.9)
        assert updates == []


class TestSingleUpdate:
    def test_hand_executed_first_update(self):
        # the accumulators are updated in place, the estimate returned
        Xi, psi = np.eye(2), np.zeros(2)
        b = np.array([3.0, 5.0])
        c = adaptive_update(Xi, psi, np.eye(2), np.full(2, 0.25), b - 1.0, 0.9)
        np.testing.assert_allclose(psi, [(3 - 1) / 4, (5 - 1) / 4])
        np.testing.assert_allclose(Xi, np.diag([1.15, 1.15]))
        np.testing.assert_allclose(c, FIRST_UPDATE)

    def test_negative_solution_clamped(self):
        # an observation b = 0 below the unit noise power
        psi = np.zeros(1)
        c = adaptive_update(np.eye(1), psi, np.ones((1, 1)), np.ones(1),
                            np.array([-1.0]), 0.9)
        assert c[0] == 0.0
        assert psi[0] < 0

    def test_wrong_observation_length_rejected(self):
        d = np.ones(2)
        with pytest.raises(ValueError, match="allocation has K=3"):
            adaptive_update(np.eye(2), np.zeros(2), np.eye(3)[:, :2], d,
                            np.ones(2), 0.9)
        with pytest.raises(ValueError):
            adaptive_update(np.eye(2), np.zeros(2), np.eye(2), d, np.array([1.0]), 0.9)
        # the leading (row) shapes of state and observations must match
        single = (np.eye(2), np.zeros(2))
        stacked = (np.zeros((3, 2, 2)) + np.eye(2), np.zeros((3, 2)))
        for (Xi, psi), r in [(stacked, np.ones((2, 2))), (stacked, np.ones(2)),
                             (stacked, np.ones((1, 3, 2))), (single, np.ones((3, 2)))]:
            with pytest.raises(ValueError, match="for each row of the state"):
                adaptive_update(Xi, psi, np.eye(2), d, r, 0.9)

    def test_nan_residual_of_a_certified_update_rejected(self):
        # the floor certifies Xi, but a NaN in psi keeps the finiteness scan
        Xi, psi = np.zeros((2, 2, 2)) + np.eye(2), np.zeros((2, 2))
        r = np.array([[1.0, 1.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            adaptive_update(Xi, psi, np.eye(2), np.ones(2), r, 0.9, floor=0.9)


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
        batch = unclamped_right_inverse(estimate_obs_covariances(B, sched),
                                        sched.compound, sigma_v2)
        for m in range(3):
            Xi, psi = np.eye(K), np.zeros(K)
            for t in range(S * N):
                adaptive_update(Xi, psi, sched.allocations[t % N], np.ones(Ttr),
                                B[m, t * Ttr : (t + 1) * Ttr] - sigma_v2, 1.0)
            c = np.linalg.solve(Xi - np.eye(K), psi)
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
        Xi, psi, c_hat = np.eye(K), np.zeros(K), np.ones(K)
        n = 0
        for _ in range(5):
            for alloc in sched.allocations:
                b = alloc.T @ c_true + sigma_v2
                d = (alloc.T @ c_hat + sigma_v2) ** -2
                c_hat = adaptive_update(Xi, psi, alloc, d, b - sigma_v2, lam)
                n += 1
            c = np.linalg.solve(Xi - lam**n * np.eye(K), psi)
            np.testing.assert_allclose(c, c_true, atol=1e-10)
        # the init bias itself decays: the stored estimate approaches truth
        np.testing.assert_allclose(c_hat, c_true, rtol=0.2)
        # the estimator itself gives the same estimate on the same statistics
        B = np.tile(sched.compound.T @ c_true + sigma_v2, 5)[None, :]
        np.testing.assert_allclose(adaptive_estimate(B, sched, sigma_v2, lam)[0],
                                   c_hat, rtol=1e-12)


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
            adaptive_estimate(B, sched, sigma_v2, 0.99),
            _per_row_estimate(B, sched, sigma_v2, 0.99),
        )

    def test_matches_at_full_scale_geometry(self):
        rng = np.random.default_rng(12)
        B, sched, sigma_v2 = _sparse_problem(rng, M=6, K=70, Ttr=11, N=7, T=21, cells=7)
        np.testing.assert_allclose(
            adaptive_estimate(B, sched, sigma_v2, 0.99),
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
            adaptive_estimate(B, sched, sigma_v2, 0.95), C_ref
        )


@pytest.mark.parametrize("M, K, Ttr, N, T, cells", [(32, 12, 5, 5, 60, 3),
                                                    (6, 70, 11, 7, 21, 7)],
                         ids=["desk", "full-scale"])
def test_decayed_prior_certifies_every_solve(monkeypatch, M, K, Ttr, N, T, cells):
    # Xi >= lam^(t+1) I after interval t, and that floor proves every
    # stacked solve well enough conditioned to skip its condition estimate
    from pilotcov import estimators

    certified, verdicts = estimators._certified, []

    def spy(G, floor):
        verdicts.append(certified(G, floor))
        return verdicts[-1]

    monkeypatch.setattr(estimators, "_certified", spy)
    B, sched, sigma_v2 = _sparse_problem(np.random.default_rng(14), M, K, Ttr, N, T, cells)
    adaptive_estimate(B, sched, sigma_v2, 0.99)
    assert len(verdicts) == T and all(verdicts)
