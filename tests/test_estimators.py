import logging
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pilotcov import (
    BandLimited,
    IdentifiabilityError,
    Schedule,
    ScenarioConfig,
    SingularSystemError,
    adaptive_estimate,
    adaptive_update,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    generate_covariance_set,
    llf_gradient,
    make_random_schedule,
    ml_fixed_point,
    negative_llf,
    shared_scaling_estimate,
    shared_scaling_fixed_point,
    two_step_reconstruct,
)
from pilotcov import estimators
from pilotcov.estimators import (_certified, _gram_kappa, _halvings, _ml_kappa,
                                 _normal_equations, _slot_powers, _slot_weights,
                                 _solve_normal)

from training import example442, simulate_training


def _random_instance(rng, K=6, Ttr=3, N=4, repeats=10, sigma_v2=0.5):
    """A random (b_m, Pi, sigma) row problem with positive dense truth."""
    schedule = make_random_schedule(K, Ttr, N, K // 2, rng)
    Pi = np.tile(schedule.compound, (1, repeats))
    c_true = rng.uniform(0.5, 1.5, size=K)
    powers = Pi.T @ c_true + sigma_v2
    b = powers * rng.exponential(1.0, size=Pi.shape[1])
    return b, Pi, sigma_v2, c_true


def _two_step_start(b_m, Pi, sigma_v2):
    """The one-row two-step warm start, as `estimate_all_rows_ml` passes it."""
    return shared_scaling_estimate(b_m[None, :], Pi, None, sigma_v2)[0]


def ml_fixed_point_one_at_a_time(b_m, Pi, sigma_v2, init, tol=1e-8, max_iter=200):
    """Oracle: the ML fixed point with one LLF evaluation per halving
    c + 2^-j (c_new - c), j = 1..10, and scipy's solve.  Returns (c_hat,
    iterations, converged, taken), `taken` holding the index of the
    halving each accepted backtrack took."""

    def llf(c):
        powers = Pi.T @ c + sigma_v2
        if np.any(powers <= 0):
            return np.inf
        return float(np.sum(b_m / powers + np.log(powers)))

    c, taken = init.copy(), []
    obj = llf(c)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d = (Pi.T @ c + sigma_v2) ** -2
        G, rhs = (Pi * d) @ Pi.T, Pi @ (d * (b_m - sigma_v2))
        c_new = np.maximum(scipy.linalg.solve(G, rhs, assume_a="pos"), 0.0)
        obj_new = llf(c_new)
        if obj_new > obj:
            accepted = False
            for j in range(10):
                cand = c + 0.5 ** (j + 1) * (c_new - c)
                obj_cand = llf(cand)
                if obj_cand <= obj:
                    c_new, obj_new, accepted = cand, obj_cand, True
                    taken.append(j)
                    break
            if not accepted and not np.isfinite(obj_new):
                break
        step_ok = np.max(np.abs(c_new - c)) <= tol * (1.0 + np.max(np.abs(c)))
        c, obj = c_new, obj_new
        if step_ok:
            if np.all(c > 0):
                powers = Pi.T @ c + sigma_v2
                grad = Pi @ ((powers - b_m) / powers**2)
                if np.max(np.abs(grad)) <= 10 * tol:
                    converged = True
                    break
            else:
                converged = True
                break
    return c, iterations, converged, taken


def _desk_row(seed, truth, S, sigma_v2=0.1):
    """One antenna row at the desk geometry (K=12, Ttr=5, N=5, 3 cells):
    slot means of S passes, drawn as Gamma(S, p / S), the mean of S
    exponential squared observations."""
    rng = np.random.default_rng(seed)
    Pi = make_random_schedule(12, 5, 5, 3, rng).compound
    c = {"uniform": np.ones(12),
         "sparse": rng.uniform(0.0, 1.0, 12) * (rng.random(12) < 0.5)}[truth]
    b = rng.gamma(S, (Pi.T @ c + sigma_v2) / S)
    return b, Pi, sigma_v2


class TestEstimateObsCovariances:
    def test_single_repeat_is_identity(self):
        sched = example442()
        B = np.arange(12.0).reshape(2, 6)
        out = estimate_obs_covariances(B, sched)
        np.testing.assert_array_equal(out, B)

    def test_constant_input(self):
        sched = example442()
        B = np.full((3, 18), 5.0)
        out = estimate_obs_covariances(B, sched)
        np.testing.assert_array_equal(out, np.full((3, 6), 5.0))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(0)
        sched = example442()
        C = np.array([[1.0, 0.5, 2.0, 0.8], [0.3, 1.2, 0.7, 1.5]])
        sigma_v2 = 0.2
        S = 10_000
        B = simulate_training(C, sched, sigma_v2, S, rng)
        out = estimate_obs_covariances(B, sched)
        expected = C @ sched.compound + sigma_v2
        np.testing.assert_allclose(out, expected, rtol=0.05)

    def test_mismatched_columns_rejected(self):
        sched = example442()
        with pytest.raises(ValueError):
            estimate_obs_covariances(np.zeros((2, 7)), sched)
        with pytest.raises(ValueError):
            estimate_obs_covariances(np.zeros((2, 0)), sched)  # empty window

    def test_negative_squared_observations_rejected(self):
        # one negative entry whose slot mean stays positive
        B = np.ones((2, 12))
        B[1, 7] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_obs_covariances(B, example442())

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_squared_observations_rejected_at_entry(self, bad):
        # refused before any arithmetic on them can warn
        B = np.ones((2, 12))
        B[1, 7] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            estimate_obs_covariances(B, example442())


# every estimator needs one observation column per slot of the compound
# allocation (6 for the example schedule); broadcasting must not stretch one,
# and a 0-d array has no slot axis
@pytest.mark.parametrize("estimate", [
    lambda B, s: shared_scaling_estimate(B, s.compound, None, 0.1),
    lambda B, s: two_step_reconstruct(B, s, 0.1),
    lambda B, s: estimate_all_rows_ml(B, s.compound, 0.1),
    lambda B, s: shared_scaling_fixed_point(B, s.compound, 0.1),
    lambda B, s: ml_fixed_point(np.atleast_1d(B)[0], s.compound, 0.1, init=np.ones(4)),
], ids=["shared_scaling_estimate", "two_step_reconstruct", "estimate_all_rows_ml",
        "shared_scaling_fixed_point", "ml_fixed_point"])
def test_one_column_per_slot_required(estimate):
    for B in (np.ones((3, 1)), np.array(1.0)):
        with pytest.raises(ValueError, match="per slot"):
            estimate(B, example442())


# the two estimators that read a window of squared observations (M, slots)
@pytest.mark.parametrize("estimate", [
    estimate_obs_covariances,
    lambda B, s: adaptive_estimate(B, s, 0.1, 0.99),
], ids=["estimate_obs_covariances", "adaptive_estimate"])
def test_window_must_be_a_2d_array(estimate):
    sched = example442()
    for B in (np.ones(6), np.ones((2, 6, 1))):
        with pytest.raises(ValueError) as refused:
            estimate(B, sched)
        assert str(refused.value) == ("squared observations must be a 2-D (M, slots) "
                                      f"array, got shape {B.shape}")
    # a nested list is read as the array it spells
    B = np.random.default_rng(0).uniform(0.5, 2.0, (2, 12))
    np.testing.assert_array_equal(estimate(B.tolist(), sched), estimate(B, sched))



@st.composite
def spd_systems(draw):
    """A Gram matrix G = X diag(d) X^T (K x K, K = 2..70) with one
    right-hand side (K,) or several as rows (M, K).  scipy divides a 1 x 1
    system, which `_solve_normal` factors like any other, so K starts at 2."""
    K = draw(st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((K, K + draw(st.integers(0, K))))
    G = (X * rng.uniform(0.1, 10.0, X.shape[1])) @ X.T
    nrhs = draw(st.none() | st.integers(1, 8))
    rhs = rng.standard_normal(K if nrhs is None else (nrhs, K))
    return G, rhs


def _adaptive_systems(draw, rng):
    """The systems (Xi, psi) the adaptive estimator has accumulated at
    lam = 0.99 for a stack of antenna rows after n = 1..2N intervals from
    the prior Xi = I, and n."""
    K, Ttr, N, cells = draw(st.sampled_from([(6, 3, 4, 3), (12, 5, 5, 3),
                                             (70, 11, 7, 7)]))
    schedule = make_random_schedule(K, Ttr, N, cells, rng)
    M = draw(st.integers(1, 8))
    Xi, psi, c = np.zeros((M, K, K)) + np.eye(K), np.zeros((M, K)), np.ones((M, K))
    intervals = draw(st.integers(1, 2 * N))
    for n in range(intervals):
        A = schedule.allocations[n % N]
        r = rng.exponential(size=(M, Ttr)) - 0.1
        d, _ = _slot_weights(*_slot_powers(c, A, 0.1))
        c = adaptive_update(Xi, psi, A, d, r, 0.99)
    return Xi, psi, intervals


def _gram_stack(draw, rng, fewest=1.0):
    """A stack of Gram matrices X diag(d) X^T (..., K, K), K = 1..70, with
    one right-hand side per slice.  X has fewest * K to 2K columns, so a
    stack of `fewest` < 1 may be singular."""
    K = draw(st.integers(1, 70))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    X = rng.standard_normal(lead + (K, draw(st.integers(int(fewest * K), 2 * K))))
    d = rng.uniform(0.1, 10.0, lead + (1, X.shape[-1]))
    return (X * d) @ np.swapaxes(X, -1, -2), rng.standard_normal(lead + (K,))


@st.composite
def spd_stacks(draw):
    """A stack G (..., K, K) of positive definite systems with one
    right-hand side (..., K) per slice: Gram matrices X diag(d) X^T
    (K = 1..70), or the systems (Xi, psi) the adaptive estimator has
    accumulated for a stack of antenna rows after a few intervals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return _gram_stack(draw, rng)
    return _adaptive_systems(draw, rng)[:2]


@st.composite
def floored_stacks(draw):
    """A stack with a lower bound on every slice's smallest eigenvalue:
    Gram matrices, singular ones too, plus f I with floor f, f spread over
    18 decades so that some stacks are too ill-conditioned to factor, or
    the adaptive systems of `spd_stacks` after n intervals, with floor
    0.99^n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        G, rhs = _gram_stack(draw, rng, fewest=0.0)
        f = 10.0 ** rng.uniform(-16.0, 2.0)
        return G + f * np.eye(G.shape[-1]), rhs, f
    Xi, psi, n = _adaptive_systems(draw, rng)
    return Xi, psi, 0.99**n


@st.composite
def weighted_rows(draw):
    """A random schedule with M = 1..8 antenna rows of positive slot weights
    d (M, N*Ttr), spread over six decades, and signed residuals r (M,
    N*Ttr), one per slot of its compound allocation."""
    K, Ttr, N, cells = draw(st.sampled_from([(6, 3, 4, 3), (12, 5, 5, 3),
                                             (70, 11, 7, 7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schedule = make_random_schedule(K, Ttr, N, cells, rng)
    M = draw(st.integers(1, 8))
    d = 10.0 ** rng.uniform(-3.0, 3.0, (M, N * Ttr))
    return schedule, d, rng.exponential(size=(M, N * Ttr)) - 0.5


class TestNormalEquations:
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(weighted_rows())
    def test_stack_of_rows_rounds_as_each_row_alone(self, problem):
        # on a one-hot allocation every entry is a single product
        schedule, d, r = problem
        for n, A in enumerate(schedule.allocations):
            slots = slice(n * schedule.Ttr, (n + 1) * schedule.Ttr)
            G, rhs = _normal_equations(A, d[:, slots], r[:, slots])
            for m in range(len(d)):
                G_m, rhs_m = _normal_equations(A, d[m, slots], r[m, slots])
                assert np.array_equal(G[m], G_m) and np.array_equal(rhs[m], rhs_m)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(weighted_rows())
    def test_compound_matches_dense_oracle(self, problem):
        schedule, d, r = problem
        Pi = schedule.compound
        G, rhs = _normal_equations(Pi, d[0], r)
        D = np.diag(d[0])
        np.testing.assert_allclose(G, Pi @ D @ Pi.T, rtol=1e-12, atol=0)
        # signed residuals can cancel, so rtol is taken of the sum of magnitudes
        assert (np.abs(rhs - r @ D @ Pi.T) <= 1e-12 * (np.abs(r) @ D @ Pi.T)).all()


class TestSolveNormal:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(spd_systems())
    def test_bits_equal_scipy_positive_definite_solve(self, system):
        G, rhs = system
        assert np.array_equal(_solve_normal(G, rhs),
                              scipy.linalg.solve(G, rhs.T, assume_a="pos").T)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(spd_stacks())
    def test_stack_bits_equal_each_slice_solved_alone(self, system):
        # a stacked adaptive update gives each row the bits of its own update
        G, rhs = system
        stacked = _solve_normal(G, rhs)
        for idx in np.ndindex(G.shape[:-2]):
            assert np.array_equal(stacked[idx], _solve_normal(G[idx], rhs[idx]))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(floored_stacks())
    def test_certified_floor_skips_only_a_condition_estimate_that_cannot_warn(self, system):
        G, rhs, floor = system
        with warnings.catch_warnings():
            # an uncertified system may warn, or fail to factor
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            try:
                plain = _solve_normal(G, rhs)
            except SingularSystemError:
                assert not _certified(G, floor)
                return
            assert np.array_equal(_solve_normal(G, rhs, _certified(G, floor)), plain)
        if _certified(G, floor):
            potrf, pocon, lange = scipy.linalg.lapack.get_lapack_funcs(
                ("potrf", "pocon", "lange"), dtype=np.float64)
            for idx in np.ndindex(G.shape[:-2]):
                U, info = potrf(G[idx])
                assert info == 0
                assert pocon(U, lange("1", G[idx]))[0] >= np.finfo(float).eps

    def test_floor_too_small_to_certify_still_warns(self):
        G = np.diag([1.0, 1e-17])
        assert not _certified(G, 1e-17)
        with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
            _solve_normal(G, np.ones(2), _certified(G, 1e-17))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_system_is_never_certified(self, bad):
        # a pass proves G finite, so a certified solve may skip the scan
        G = np.diag([1.0, bad])
        assert not _certified(G, 1.0) and not _certified(G, math.inf)

    def test_ill_conditioned_stack_warns_once_in_the_single_system_text(self):
        G = np.zeros((3, 2, 2)) + np.eye(2)
        G[1:, 1, 1] = 1e-17
        with pytest.warns(scipy.linalg.LinAlgWarning) as caught:
            _solve_normal(G, np.ones((3, 2)))
        assert [str(w.message) for w in caught] == [
            "ill-conditioned normal equations: the solution may not be accurate"]

    @pytest.mark.parametrize("G", [np.diag([1.0, -1.0]), np.ones((3, 3)),
                                   np.array([[-2.0]])],
                             ids=["indefinite", "rank-one", "negative-1x1"])
    @pytest.mark.parametrize("certified", [False, True])
    def test_singular_or_indefinite_rejected(self, G, certified):
        # posv's verdict raises whatever the caller claims
        with pytest.raises(SingularSystemError, match="singular or indefinite"):
            _solve_normal(G, np.ones(G.shape[0]), certified)

    def test_ill_conditioned_system_warns(self):
        with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
            _solve_normal(np.diag([1.0, 1e-17]), np.ones(2))

    @pytest.mark.parametrize("bad", ["G", "rhs"])
    def test_non_finite_input_rejected(self, bad):
        G, rhs = np.eye(3), np.ones(3)
        {"G": G, "rhs": rhs}[bad][1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_normal(G, rhs)

    @pytest.mark.parametrize("bad", ["G", "rhs"])
    def test_non_finite_stack_rejected_as_a_single_system(self, bad):
        # one check before the dispatch: a stack fails with the single
        # system's message, not scipy's
        G, rhs = np.zeros((2, 3, 3)) + np.eye(3), np.ones((2, 3))
        {"G": G, "rhs": rhs}[bad][1, 1] = np.nan
        with pytest.raises(ValueError, match="normal equations must not contain"):
            _solve_normal(G, rhs)


class TestTwoStepReconstruct:
    def test_exact_forward_model_recovery(self):
        rng = np.random.default_rng(1)
        sched = example442()
        sigma_v2 = 0.3
        for _ in range(20):
            C = rng.random((8, 4))
            exact = C @ sched.compound + sigma_v2
            est = two_step_reconstruct(exact, sched, sigma_v2)
            assert np.max(np.abs(est - C)) < 1e-10

    def test_noise_only_observations_give_zero(self):
        sched = example442()
        est = two_step_reconstruct(np.full((3, 6), 0.7), sched, 0.7)
        np.testing.assert_allclose(est, 0.0, atol=1e-12)

    def test_all_zero_case(self):
        sched = example442()
        est = two_step_reconstruct(np.zeros((2, 6)), sched, 0.0)
        np.testing.assert_array_equal(est, np.zeros((2, 4)))

    def test_rank_deficient_schedule_rejected(self):
        sched = Schedule(example442().pilots[[0, 0]], 2)
        with pytest.raises(IdentifiabilityError, match="rank 2"):
            two_step_reconstruct(np.ones((2, 4)), sched, 0.1)


class TestSharedScalingEstimate:
    def test_identity_weights_match_two_step(self):
        rng = np.random.default_rng(2)
        sched = example442()
        sigma_v2 = 0.4
        B_mean = rng.random((5, 6)) + sigma_v2
        est_d = shared_scaling_estimate(B_mean, sched.compound, None, sigma_v2)
        est_t = two_step_reconstruct(B_mean, sched, sigma_v2)
        assert np.max(np.abs(est_d - est_t)) < 1e-10

    def test_any_positive_weights_recover_exact_inputs(self):
        rng = np.random.default_rng(3)
        sched = example442()
        for _ in range(10):
            C = rng.random((4, 4))
            d = rng.uniform(0.1, 5.0, size=6)
            exact = C @ sched.compound + 0.2
            est = shared_scaling_estimate(exact, sched.compound, d, 0.2)
            assert np.max(np.abs(est - C)) < 1e-10

    def test_noise_floor_gives_zero(self):
        sched = example442()
        est = shared_scaling_estimate(np.full((2, 6), 0.5), sched.compound, None, 0.5)
        np.testing.assert_allclose(est, 0.0, atol=1e-12)

    @pytest.mark.parametrize("D, named", [
        (np.ones(5), "length-6 weight vector"),
        (np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]), "strictly positive"),
        (np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]), "strictly positive"),
    ], ids=["wrong-length", "zero-weight", "negative-weight"])
    def test_bad_weights_rejected(self, D, named):
        sched = example442()
        with pytest.raises(ValueError, match=named):
            shared_scaling_estimate(np.ones((2, 6)), sched.compound, D, 0.1)

    def test_singular_system_rejected(self):
        Pi = np.ones((3, 4))  # rank-one Gram matrix
        with pytest.raises((SingularSystemError, ValueError)):
            shared_scaling_estimate(np.ones((2, 4)), Pi, None, 0.0)

    @pytest.mark.parametrize("certified", [False, True])
    def test_indefinite_slice_of_a_stack_rejected(self, certified):
        rng = np.random.default_rng(5)
        X = rng.random((5, 3, 3))
        G = X @ X.transpose(0, 2, 1) + np.eye(3)
        rhs = rng.random((5, 3))
        np.testing.assert_allclose(
            _solve_normal(G, rhs, certified),
            np.stack([np.linalg.solve(G[m], rhs[m]) for m in range(5)]),
            rtol=1e-10,
        )
        G[2] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(SingularSystemError,
                           match="indefinite: the leading minor of order 2 of stacked system 2 "):
            _solve_normal(G, rhs, certified)

    def test_right_inverse_identity(self):
        # algebraic core: Pi^T D (Pi D Pi^T)^{-1} right-inverts Pi for any
        # positive diagonal D, independently of the estimator code path
        rng = np.random.default_rng(4)
        sched = make_random_schedule(6, 4, 4, 3, rng)
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

    def test_stack_gives_each_rows_value_bit_for_bit(self):
        rng = np.random.default_rng(18)
        b, Pi, s2, _ = _random_instance(rng)
        stack = rng.uniform(0.0, 2.0, size=(2, 5, Pi.shape[0]))
        values = negative_llf(stack, b, Pi, s2)
        assert values.shape == (2, 5)
        for idx in np.ndindex(2, 5):
            single = negative_llf(stack[idx], b, Pi, s2)
            assert type(single) is float and values[idx] == single
        stack[1, 3] = -10.0
        with pytest.raises(ValueError, match="strictly positive"):
            negative_llf(stack, b, Pi, s2)


class TestLLFGradient:
    def test_vanishes_at_exact_residuals(self):
        rng = np.random.default_rng(6)
        _, Pi, s2, c_true = _random_instance(rng)
        b = Pi.T @ c_true + s2
        np.testing.assert_allclose(
            llf_gradient(c_true, b, Pi, s2), 0.0, atol=1e-12
        )

    def test_scalar_gradient_sign(self):
        # single variance: gradient positive iff c + sigma exceeds mean(b)
        b = np.array([1.0, 3.0])  # mean 2
        Pi = np.ones((1, 2))
        assert llf_gradient(np.array([2.0]), b, Pi, 0.5)[0] > 0
        assert llf_gradient(np.array([1.0]), b, Pi, 0.5)[0] < 0


@pytest.mark.parametrize("function", [negative_llf, llf_gradient])
@pytest.mark.parametrize("c, sigma_v2", [([np.nan, 1.0], 0.1), ([1.0, 1.0], np.nan)],
                         ids=["nan-variance", "nan-noise"])
def test_nan_slot_power_rejected(function, c, sigma_v2):
    # NaN is no positive slot power: the domain check refuses it
    Pi = example442().compound[:2]
    with pytest.raises(ValueError, match="strictly positive"):
        function(np.array(c), np.ones(Pi.shape[1]), Pi, sigma_v2)


class TestMLFixedPoint:
    def test_scalar_closed_form_clamps_at_zero(self):
        b = np.full(100, 0.05)
        Pi = np.ones((1, 100))
        res = ml_fixed_point(b, Pi, 1.0, _two_step_start(b, Pi, 1.0))
        assert res.c_hat[0] == 0.0

    def test_consistency_with_many_repeats(self):
        rng = np.random.default_rng(9)
        K, Ttr, N = 4, 2, 3
        sched = example442()
        c_true = np.array([1.0, 0.4, 1.6, 0.7])
        S = 1000
        Pi = np.tile(sched.compound, (1, S))
        powers = Pi.T @ c_true + 0.1
        b = powers * rng.exponential(1.0, size=Pi.shape[1])
        res = ml_fixed_point(b, Pi, 0.1, _two_step_start(b, Pi, 0.1))
        assert np.linalg.norm(res.c_hat - c_true) / np.linalg.norm(c_true) < 0.1

    def test_interior_convergence_certifies_stationarity(self):
        rng = np.random.default_rng(10)
        tol = 1e-8
        checked = 0
        for _ in range(20):
            b, Pi, s2, _ = _random_instance(rng, repeats=30)
            res = ml_fixed_point(b, Pi, s2, _two_step_start(b, Pi, s2), tol=tol)
            if res.converged and np.all(res.c_hat > 0):
                g = llf_gradient(res.c_hat, b, Pi, s2)
                assert np.max(np.abs(g)) <= 10 * tol
                checked += 1
        assert checked >= 5

    def test_negative_init_rejected(self):
        with pytest.raises(ValueError):
            ml_fixed_point(np.ones(4), np.ones((1, 4)), 0.1, init=np.array([-1.0]))

    def test_nan_init_rejected(self):
        with pytest.raises(ValueError, match="init"):
            ml_fixed_point(np.ones(4), np.ones((1, 4)), 0.1, init=np.array([np.nan]))

    def test_negative_noise_power_rejected(self):
        # iterates c >= 0 have slot powers >= sigma_v2, in the LLF domain only
        # for sigma_v2 > 0
        b, Pi = np.ones(4), np.ones((1, 4))
        with pytest.raises(ValueError, match="sigma_v2"):
            ml_fixed_point(b, Pi, -0.1, _two_step_start(b, Pi, -0.1))

    def test_rank_deficient_system_raises(self):
        Pi = np.ones((2, 6))  # two identical user rows
        # a start of its own: the two-step start already fails to solve
        with pytest.raises(SingularSystemError):
            ml_fixed_point(np.ones(6), Pi, 0.1, init=np.ones(2))


class TestMLMatchesOneAtATime:
    """One stacked LLF call per backtrack takes the halving the
    one-at-a-time loop takes, so every result is the same bit for bit."""

    @pytest.mark.parametrize("truth, S, seed, max_iter, stop", [
        ("uniform", 24, 0, 200, "interior"),
        ("uniform", 6, 23, 200, "boundary"),
        ("sparse", 12, 0, 200, "boundary"),
        ("uniform", 6, 23, 10, "max_iter"),
    ], ids=["interior-certificate", "boundary", "sparse-boundary", "max-iter"])
    def test_backtracking_matches_oracle(self, truth, S, seed, max_iter, stop):
        b, Pi, s2 = _desk_row(seed, truth, S)
        init = shared_scaling_estimate(b[None, :], Pi, None, s2)[0]
        c, iterations, converged, taken = ml_fixed_point_one_at_a_time(
            b, Pi, s2, init, max_iter=max_iter)
        assert taken, "the case must accept at least one halving"
        assert {"interior": converged and np.all(c > 0),
                "boundary": converged and not np.all(c > 0),
                "max_iter": not converged and iterations == max_iter}[stop]
        res = ml_fixed_point(b, Pi, s2, init, max_iter=max_iter)
        assert np.array_equal(res.c_hat, c)
        assert (res.iterations, res.converged) == (iterations, converged)

    def test_rows_of_a_sweep_match_oracle(self):
        rng = np.random.default_rng(19)
        sched = make_random_schedule(12, 5, 5, 3, rng)
        C = rng.uniform(0.0, 1.0, (16, 12)) * (rng.random((16, 12)) < 0.5)
        b = estimate_obs_covariances(simulate_training(C, sched, 0.1, 12, rng), sched)
        C_hat, flags = estimate_all_rows_ml(b, sched.compound, 0.1)
        init = shared_scaling_estimate(b, sched.compound, None, 0.1)
        taken = 0
        for m in range(16):
            c, _, converged, halvings = ml_fixed_point_one_at_a_time(
                b[m], sched.compound, 0.1, init[m])
            assert np.array_equal(C_hat[m], c) and flags[m] == converged
            taken += len(halvings)
        assert taken > 0


@st.composite
def variance_pairs(draw):
    """Two nonnegative variance vectors of one length K = 1..16, with exact
    zeros and entries from 1e-12 to 1e6."""
    K = draw(st.integers(1, 16))
    entries = st.lists(st.just(0.0) | st.floats(1e-12, 1e6), min_size=K, max_size=K)
    return np.array(draw(entries)), np.array(draw(entries))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(variance_pairs())
def test_halvings_stay_on_the_segment_toward_c(pair):
    """Every halving is nonnegative and lies entrywise between c and c_new,
    so one stacked LLF call can score them all; each is nearer c than the
    last, and an entry where c_new == c stays exactly c."""
    c_new, c = pair
    h = _halvings(c_new, c)
    assert h.shape == (10, c.size)
    assert (h >= 0).all()
    assert (h >= np.minimum(c, c_new)).all() and (h <= np.maximum(c, c_new)).all()
    assert (np.abs(h[1:] - c) <= np.abs(h[:-1] - c)).all()
    assert (h[:, c_new == c] == c[c_new == c]).all()


@st.composite
def kappa_weighted_rows(draw):
    """A random schedule's one-hot compound allocation Pi (K = 6, 12 or 70),
    slot weights d whose spread d_max / d_min is below kappa(Pi), and signed
    residuals r.  Half the draws spread d log-uniformly; the other half
    starve one user, its slots at d_min and every other slot at d_max,
    which brings lambda_min(G) / ||G||_1 near 1 / spread."""
    K, Ttr, N, cells = draw(st.sampled_from([(6, 3, 4, 3), (12, 5, 5, 3),
                                             (70, 11, 7, 7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Pi = make_random_schedule(K, Ttr, N, cells, rng).compound
    kappa = _gram_kappa(Pi)[0]
    # a schedule too ill-conditioned for any spread certifies nothing
    assume(kappa > 1)
    spread = 0.999 * kappa ** rng.uniform(0.5, 1.0)
    low = 10.0 ** rng.uniform(-3.0, 3.0)
    if draw(st.booleans()):
        d = low * spread ** rng.uniform(0.0, 1.0, Pi.shape[1])
    else:
        d = np.where(Pi[rng.integers(K)] > 0, low, low * spread)
    return Pi, d, rng.standard_normal(Pi.shape[1])


def _desk_unit(seed, M=32, K=12, Ttr=5, N=5, cells=3, width=8, passes=12):
    """The slot means (M, N*Ttr) of one unit on a band-limited truth, desk
    geometry by default, and its compound allocation."""
    rng = np.random.default_rng(seed)
    sched = make_random_schedule(K, Ttr, N, cells, rng)
    scenario = ScenarioConfig(M=M, K=K, Ttr=Ttr, sigma_v2=0.1, num_cells=cells,
                              users_per_cell=K // cells)
    C = generate_covariance_set(scenario, BandLimited(width=width), rng)
    B = simulate_training(C, sched, 0.1, passes, rng)
    return estimate_obs_covariances(B, sched), sched.compound


class TestScheduleCertificate:
    """A weighted system Pi D Pi^T whose spread d_max / d_min is below
    kappa(Pi) passes `_solve_normal`'s floor test, so per-row ML solves it
    without a condition estimate or a finiteness scan, to the same bits."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(kappa_weighted_rows())
    def test_spread_below_kappa_certifies_the_solve(self, problem):
        Pi, d, r = problem
        G, rhs = _normal_equations(Pi, d, r)
        # the floor test holds at G's own smallest eigenvalue
        assert _certified(G, np.linalg.eigvalsh(G)[0])
        potrf, pocon, lange = scipy.linalg.lapack.get_lapack_funcs(
            ("potrf", "pocon", "lange"), dtype=np.float64)
        U, info = potrf(G)
        assert info == 0 and pocon(U, lange("1", G))[0] >= np.finfo(float).eps
        assert np.array_equal(_solve_normal(G, rhs, True), _solve_normal(G, rhs))

    @pytest.mark.parametrize("Pi", [
        example442().compound * np.array([1.0, -1.0, 1.0, 1.0])[:, None],
        np.ones((3, 4)),
        np.zeros((2, 0)),
    ], ids=["negative-entry", "singular-gram", "no-slots"])
    def test_kappa_is_zero_when_nothing_can_be_certified(self, Pi):
        assert _gram_kappa(Pi)[0] == 0.0

    @pytest.mark.parametrize("r, sigma_v2", [
        (np.r_[np.ones(5), np.nan], 0.1),
        (np.r_[np.ones(5), np.inf], 0.1),
        (np.ones(6), 1e-160),
    ], ids=["nan-residual", "inf-residual", "weights-may-overflow"])
    def test_row_that_cannot_bound_its_systems_certifies_nothing(self, r, sigma_v2):
        Pi = example442().compound
        assert _gram_kappa(Pi)[0] > 1 and _ml_kappa(Pi, r, sigma_v2) == 0.0

    def test_subnormal_weights_have_no_finite_spread(self):
        # 1 / p^2 below the smallest normal float keeps too few bits to
        # certify anything; just above, the spread is exact
        edge = 1.0 / math.sqrt(np.finfo(float).tiny)
        assert _slot_weights(np.array([edge / 2, edge]), edge / 2)[1] == 4.0
        assert _slot_weights(np.array([edge / 2, 2 * edge]), edge / 2)[1] == math.inf

    @pytest.mark.parametrize("geometry, every", [
        (dict(), True),
        (dict(M=12, K=70, Ttr=11, N=7, cells=7, width=6, passes=10), False),
    ], ids=["desk", "full-scale"])
    def test_certified_ml_gives_the_bits_of_the_checked_solve(self, monkeypatch,
                                                              geometry, every):
        b, Pi = _desk_unit(3, **geometry)
        solve, certs = estimators._solve_normal, []

        def spy(G, rhs, *cert):
            if rhs.ndim == 1:  # a row's solve, not the shared warm start
                certs.append(cert == (True,))
            return solve(G, rhs, *cert)

        monkeypatch.setattr(estimators, "_solve_normal", spy)
        C_hat, flags = estimate_all_rows_ml(b, Pi, 0.1)
        certified = sum(certs)
        assert certified == len(certs) > 0 if every else 0 < certified < len(certs)
        certs.clear()
        monkeypatch.setattr(estimators, "_gram_kappa", lambda Pi: (0.0, math.inf))
        C_off, flags_off = estimate_all_rows_ml(b, Pi, 0.1)
        assert certs and not any(certs)
        assert np.array_equal(C_off, C_hat) and np.array_equal(flags_off, flags)


class TestMLDomainCheck:
    """Each iterate's slot powers are checked once, before the LLF takes
    their log: a NaN iterate is refused with the LLF's ValueError and an
    infinite one with SingularSystemError, the error of the slot weights
    1 / p^2."""

    @staticmethod
    def _solve_then(monkeypatch, value):
        # the first solve is LAPACK's, every later one returns `value`
        solve, calls = estimators._solve_normal, []

        def stub(G, rhs, *floor):
            calls.append(None)
            x = solve(G, rhs, *floor)
            return x if len(calls) == 1 else np.full_like(x, value)

        monkeypatch.setattr(estimators, "_solve_normal", stub)
        return calls

    def test_nan_slot_mean(self):
        b, Pi, s2 = _desk_row(0, "uniform", 12)
        init = _two_step_start(b, Pi, s2)
        b[3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            ml_fixed_point(b, Pi, s2, init)

    def test_nan_solve_mid_iteration(self, monkeypatch):
        b, Pi, s2 = _desk_row(0, "uniform", 12)
        init = _two_step_start(b, Pi, s2)
        calls = self._solve_then(monkeypatch, np.nan)
        with pytest.raises(ValueError, match="strictly positive"):
            ml_fixed_point(b, Pi, s2, init)
        assert len(calls) == 2

    def test_infinite_solve_mid_iteration(self, monkeypatch):
        # with no zero in Pi the slot powers of an infinite iterate are inf,
        # not the NaN of 0 * inf
        rng = np.random.default_rng(21)
        Pi = rng.uniform(0.5, 1.5, (3, 12))
        b = (Pi.T @ np.ones(3) + 0.1) * rng.exponential(size=12)
        init = _two_step_start(b, Pi, 0.1)
        calls = self._solve_then(monkeypatch, np.inf)
        with pytest.raises(SingularSystemError):
            ml_fixed_point(b, Pi, 0.1, init)
        assert len(calls) >= 2


class TestEstimateAllRowsML:
    def test_single_row_matches_direct_call(self):
        rng = np.random.default_rng(11)
        b, Pi, s2, _ = _random_instance(rng)
        C_hat, _ = estimate_all_rows_ml(b[None, :], Pi, s2)
        direct = ml_fixed_point(b, Pi, s2, _two_step_start(b, Pi, s2))
        np.testing.assert_allclose(C_hat[0], direct.c_hat, atol=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        sched = example442()
        C = rng.random((5, 4)) + 0.2
        B = simulate_training(C, sched, 0.3, 40, rng)
        perm = np.array([3, 0, 4, 1, 2])
        est, _ = estimate_all_rows_ml(B, np.tile(sched.compound, (1, 40)), 0.3)
        est_perm, _ = estimate_all_rows_ml(
            B[perm], np.tile(sched.compound, (1, 40)), 0.3
        )
        np.testing.assert_allclose(est_perm, est[perm], atol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(13)
        sched = example442()
        C = rng.random((3, 4))
        B = simulate_training(C, sched, 0.2, 30, rng)
        Pi = np.tile(sched.compound, (1, 30))
        a, flags_a = estimate_all_rows_ml(B, Pi, 0.2)
        b, flags_b = estimate_all_rows_ml(B, Pi, 0.2)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(flags_a, flags_b)

    def test_convergence_flags_returned(self):
        rng = np.random.default_rng(14)
        sched = example442()
        C = rng.random((3, 4)) + 0.5
        B = simulate_training(C, sched, 0.2, 50, rng)
        Pi = np.tile(sched.compound, (1, 50))
        C_hat, flags = estimate_all_rows_ml(B, Pi, 0.2)
        assert flags.shape == (3,) and flags.dtype == bool
        assert C_hat.shape == (3, 4)


class TestSharedScalingFixedPoint:
    def test_exact_inputs_recovered(self):
        rng = np.random.default_rng(15)
        sched = example442()
        C = rng.random((4, 4))
        exact = np.tile(C @ sched.compound + 0.2, (1, 5))
        Pi = np.tile(sched.compound, (1, 5))
        est, converged = shared_scaling_fixed_point(exact, Pi, 0.2)
        assert converged.shape == (4,) and converged.all()
        assert np.max(np.abs(est - C)) < 1e-8

    def test_close_to_per_row_on_noisy_data(self):
        rng = np.random.default_rng(16)
        sched = example442()
        C = rng.random((4, 4)) + 0.3
        B = simulate_training(C, sched, 0.3, 60, rng)
        Pi = np.tile(sched.compound, (1, 60))
        shared, _ = shared_scaling_fixed_point(B, Pi, 0.3)
        per_row, _ = estimate_all_rows_ml(B, Pi, 0.3)
        # both consistent estimators of the same truth on the same data
        assert (
            np.linalg.norm(shared - per_row)
            / np.linalg.norm(per_row)
            < 0.25
        )

    def test_stop_at_max_iter_is_flagged_and_logged(self, caplog):
        # the estimators only flag a stop at max_iter; the sweep logs it,
        # naming the unit (tests/test_experiment.py)
        rng = np.random.default_rng(16)
        sched = example442()
        B = simulate_training(rng.random((4, 4)) + 0.3, sched, 0.3, 60, rng)
        Pi = np.tile(sched.compound, (1, 60))
        with caplog.at_level(logging.DEBUG, logger="pilotcov.estimators"):
            C_hat, converged = shared_scaling_fixed_point(B, Pi, 0.3, max_iter=1)
            _, flags = estimate_all_rows_ml(B, Pi, 0.3, max_iter=1)
        assert converged.shape == (4,) and not converged.any()
        assert C_hat.shape == (4, 4)
        assert not flags.all()
        assert [r for r in caplog.records if r.name == "pilotcov.estimators"] == []


class TestOneWeightedSolve:
    """ML and shared scaling take their steps through the weighted solve of
    `shared_scaling_estimate`, so one iteration of each is that solve at the
    iteration's weights, bit for bit."""

    def test_ml_step_is_the_shared_solve_at_its_weights(self):
        b, Pi, s2 = _desk_row(0, "uniform", 24)
        c0 = shared_scaling_estimate(b[None, :], Pi, None, s2)[0]
        res = ml_fixed_point(b, Pi, s2, init=c0, max_iter=1)
        # a descending step is taken whole, with no halving
        assert negative_llf(res.c_hat, b, Pi, s2) <= negative_llf(c0, b, Pi, s2)
        d = (Pi.T @ c0 + s2) ** -2
        assert np.array_equal(res.c_hat, shared_scaling_estimate(b[None], Pi, d, s2)[0])

    def test_shared_step_is_the_shared_solve_at_mean_weights(self):
        rng = np.random.default_rng(21)
        sched = make_random_schedule(12, 5, 5, 3, rng)
        C = rng.uniform(0.0, 1.0, (16, 12))
        b = estimate_obs_covariances(simulate_training(C, sched, 0.1, 6, rng), sched)
        Pi = sched.compound
        C_hat, _ = shared_scaling_fixed_point(b, Pi, 0.1, max_iter=1)
        c_mean = shared_scaling_estimate(b, Pi, None, 0.1).mean(axis=0)
        d = (Pi.T @ c_mean + 0.1) ** -2
        assert np.array_equal(C_hat, shared_scaling_estimate(b, Pi, d, 0.1))


class TestVanishedSlotPowers:
    """With no noise, a zero iterate has zero slot powers and no weights
    1 / power^2: each weighted estimator refuses zero noise at entry, by
    the noise rule, before any iterate could reach them."""

    Pi = example442().compound

    def test_ml(self):
        with pytest.raises(ValueError, match="sigma_v2"):
            ml_fixed_point(np.ones(6), self.Pi, 0.0, init=np.zeros(4))

    def test_shared_scaling(self):
        with pytest.raises(ValueError, match="sigma_v2"):
            shared_scaling_fixed_point(np.zeros((3, 6)), self.Pi, 0.0)

    def test_adaptive(self):
        # the first interval's zero observations would solve to c = 0, at
        # which the second interval's slot powers vanish
        with pytest.raises(ValueError, match="sigma_v2"):
            adaptive_estimate(np.zeros((3, 4)), example442(), 0.0, 0.99)


@pytest.mark.parametrize("sigma_v2", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("estimate", [
    lambda B, s, s2: ml_fixed_point(B[0], s.compound, s2, init=np.ones(4)),
    lambda B, s, s2: estimate_all_rows_ml(B, s.compound, s2),
    lambda B, s, s2: shared_scaling_fixed_point(B, s.compound, s2),
    lambda B, s, s2: adaptive_estimate(B, s, s2, 0.99),
], ids=["ml_fixed_point", "estimate_all_rows_ml", "shared_scaling_fixed_point",
        "adaptive_estimate"])
def test_noise_rule_refuses_before_any_solve(monkeypatch, estimate, sigma_v2):
    # the message and the empty spy show that the noise rule refused it,
    # not a later check of slot powers or of a solve
    solve, solves = estimators._solve_normal, []
    monkeypatch.setattr(estimators, "_solve_normal",
                        lambda *args: solves.append(args) or solve(*args))
    B = np.random.default_rng(3).exponential(2.0, (3, 6)) + 1.0
    with pytest.raises(ValueError, match="sigma_v2 must be > 0"):
        estimate(B, example442(), sigma_v2)
    assert solves == []


class TestConsistencyInT:
    def test_rmse_shrinks_with_tenfold_data(self):
        rng = np.random.default_rng(17)
        sched = example442()
        C = np.array([[1.0, 0.5, 1.5, 0.8], [0.6, 1.1, 0.4, 1.3]])
        errs = {10: [], 100: []}
        for seed in range(20):
            local = np.random.default_rng(seed)
            for S in (10, 100):
                B = simulate_training(C, sched, 0.2, S, local)
                est, _ = estimate_all_rows_ml(B, np.tile(sched.compound, (1, S)), 0.2)
                errs[S].append(np.linalg.norm(est - C) / np.linalg.norm(C))
        assert np.mean(errs[100]) < np.mean(errs[10])
