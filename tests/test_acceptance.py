"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Absolute sum-rate levels depend on scenario parameters that are not pinned
anywhere, so the link-level criteria check orderings and trends; everything
else is exact values or explicit tolerances.
"""

import collections
import time

import numpy as np

from pilotcov import (
    BandLimited,
    ExperimentConfig,
    ScenarioConfig,
    adaptive_update,
    draw_channels,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    generate_covariance_set,
    llf_gradient,
    ls_channel_estimate,
    make_random_schedule,
    ml_fixed_point,
    mmse_channel_estimate,
    negative_llf,
    observe,
    rank_and_condition,
    run_experiment,
    shared_scaling_estimate,
    two_step_reconstruct,
)

from training import example442, simulate_training, unclamped_right_inverse


def _criterion(name: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    line = f"[{'PASS' if ok and elapsed < limit else 'FAIL'}] {name}: {detail}" \
           f" [{elapsed:.1f}s / limit {limit:.0f}s]"
    print(line)
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.1f}s exceeds {limit:.0f}s"


def test_example_schedule_exactness():
    start = time.perf_counter()
    rank, cond = rank_and_condition(example442())
    err = abs(cond - 1.7320508075688772)
    _criterion(
        "canonical 4x2 schedule rank/condition",
        rank == 4 and err < 1e-12,
        time.perf_counter() - start, 1.0,
        f"rank={rank}, |cond - sqrt(3)|={err:.2e}",
    )


def test_exact_reconstruction_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    sched = example442()
    sigma_v2 = 0.3
    worst = 0.0
    for _ in range(100):
        C = rng.random((8, 4))
        exact = C @ sched.compound + sigma_v2
        est = two_step_reconstruct(exact, sched, sigma_v2)
        worst = max(worst, float(np.max(np.abs(est - C))))
    _criterion(
        "two-step exact recovery from exact slot covariances",
        worst < 1e-10,
        time.perf_counter() - start, 5.0,
        f"worst abs err {worst:.2e}",
    )


def test_right_inverse_and_weighted_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    sched = example442()
    sigma_v2 = 0.25
    worst_d, worst_eye = 0.0, 0.0
    for _ in range(100):
        C = rng.random((8, 4))
        exact = C @ sched.compound + sigma_v2
        d = rng.uniform(0.1, 10.0, size=6)
        est_d = shared_scaling_estimate(exact, sched.compound, d, sigma_v2)
        worst_d = max(worst_d, float(np.max(np.abs(est_d - C))))
        noisy = exact * rng.uniform(0.5, 1.5, size=exact.shape)
        # both against the clamped dense reference, not one against the other
        ref = np.maximum(unclamped_right_inverse(noisy, sched.compound, sigma_v2), 0)
        for est in (shared_scaling_estimate(noisy, sched.compound, None, sigma_v2),
                    two_step_reconstruct(noisy, sched, sigma_v2)):
            worst_eye = max(worst_eye, float(np.max(np.abs(est - ref))))
    _criterion(
        "weighted right inverse recovers exactly; identity weights = two-step",
        worst_d < 1e-10 and worst_eye < 1e-10,
        time.perf_counter() - start, 5.0,
        f"weighted err {worst_d:.2e}, reduction gap {worst_eye:.2e}",
    )


def test_gradient_against_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 9))
        Ttr = int(rng.integers(2, min(K, 5) + 1))
        N = int(rng.integers(2, 5))
        reps = int(rng.integers(1, max(2, 60 // (N * Ttr)) + 1))
        sched = make_random_schedule(K, Ttr, N, K, rng,
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
            fd[j] = (negative_llf(c + e, b, Pi, s2)
                     - negative_llf(c - e, b, Pi, s2)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(grad - fd)
                                 / max(1e-30, np.linalg.norm(grad))))
    _criterion(
        "log-likelihood gradient vs central finite differences",
        worst < 1e-5,
        time.perf_counter() - start, 5.0,
        f"worst rel err {worst:.2e}",
    )


def test_scalar_ml_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    s2 = 1.3
    b = (2.4 + s2) * rng.exponential(1.0, size=10_000)
    Pi = np.ones((1, b.size))
    res = ml_fixed_point(b, Pi, s2, shared_scaling_estimate(b[None, :], Pi, None, s2)[0])
    err = abs(res.c_hat[0] - (b.mean() - s2))
    _criterion(
        "single-user, single-pilot estimate equals mean(b) - noise",
        res.converged and err < 1e-8,
        time.perf_counter() - start, 1.0,
        f"err {err:.2e}, iters {res.iterations}",
    )


def test_stationarity_of_converged_interior_points():
    start = time.perf_counter()
    rng = np.random.default_rng(24)
    tol = 1e-8
    qualifying, worst = 0, 0.0
    for _ in range(50):
        K = int(rng.integers(4, 9))
        Ttr = int(rng.integers(3, min(K, 6) + 1))
        sched = make_random_schedule(K, Ttr, 4, K, rng)
        reps = int(rng.integers(20, 60))
        Pi = np.tile(sched.compound, (1, reps))
        c_true = rng.uniform(0.5, 1.5, size=K)
        s2 = rng.uniform(0.3, 0.8)
        powers = Pi.T @ c_true + s2
        b = powers * rng.exponential(1.0, size=Pi.shape[1])
        res = ml_fixed_point(b, Pi, s2, shared_scaling_estimate(b[None, :], Pi, None, s2)[0],
                             tol=tol)
        if res.converged and np.all(res.c_hat > 0):
            qualifying += 1
            worst = max(worst, float(np.max(np.abs(
                llf_gradient(res.c_hat, b, Pi, s2)))))
    _criterion(
        "gradient certificate at converged interior iterates",
        qualifying >= 25 and worst <= 10 * tol,
        time.perf_counter() - start, 30.0,
        f"{qualifying}/50 interior-converged, worst grad {worst:.2e}",
    )


def test_consistency_in_window_length():
    start = time.perf_counter()
    M, K, Ttr, N = 16, 8, 3, 6
    sigma_v2 = 0.3
    medians = {}
    for T in (60, 600):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            sched = make_random_schedule(K, Ttr, N, 4, rng)
            scn = ScenarioConfig(M=M, K=K, Ttr=Ttr, sigma_v2=sigma_v2,
                                 num_cells=4, users_per_cell=2, seed=seed)
            C = generate_covariance_set(
                scn, BandLimited(width=6, power=1.0), rng
            )
            B = simulate_training(C, sched, sigma_v2, T // N, rng)
            est = estimate_all_rows_ml(
                B, np.tile(sched.compound, (1, T // N)), sigma_v2
            )
            errs.append(np.linalg.norm(est[0] - C) / np.linalg.norm(C))
        medians[T] = float(np.median(errs))
    _criterion(
        "tenfold window shrinks median covariance error at least twofold",
        medians[600] <= 0.5 * medians[60],
        time.perf_counter() - start, 120.0,
        f"median rmse T=60: {medians[60]:.4f}, T=600: {medians[600]:.4f}",
    )


def test_adaptive_matches_batch_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(25)
    M, K, Ttr, N, S = 4, 6, 4, 4, 50
    sched = make_random_schedule(K, Ttr, N, 2, rng)
    C = rng.random((M, K)) + 0.2
    sigma_v2 = 0.3
    B = simulate_training(C, sched, sigma_v2, S, rng)
    batch = unclamped_right_inverse(estimate_obs_covariances(B, sched),
                                    sched.compound, sigma_v2)
    worst = 0.0
    for m in range(M):
        Xi, psi = np.eye(K), np.zeros(K)
        for t in range(S * N):
            adaptive_update(Xi, psi, sched.allocations[t % N], np.ones(Ttr),
                            B[m, t * Ttr:(t + 1) * Ttr] - sigma_v2, 1.0)
        c = np.linalg.solve(Xi - np.eye(K), psi)
        worst = max(worst, float(np.max(np.abs(c - batch[m]))))
    _criterion(
        "adaptive accumulation (no forgetting, unit weights) = batch two-step",
        worst < 1e-8,
        time.perf_counter() - start, 10.0,
        f"worst abs gap {worst:.2e}",
    )


def test_rank_bound_over_random_schedules():
    start = time.perf_counter()
    rng = np.random.default_rng(26)
    grids = [(6, 3, 3), (8, 4, 4), (12, 5, 3), (10, 4, 5), (70, 11, 7)]
    checked, violations = 0, 0
    while checked < 200:
        K, Ttr, cells = grids[checked % len(grids)]
        N = int(rng.integers(1, 6))
        sched = make_random_schedule(K, Ttr, N, cells, rng,
                                     require_full_rank=False)
        rank, _ = rank_and_condition(sched)
        if rank > Ttr + (N - 1) * (Ttr - 1):
            violations += 1
        checked += 1
    _criterion(
        "compound rank never exceeds Ttr + (N-1)(Ttr-1)",
        violations == 0,
        time.perf_counter() - start, 10.0,
        f"{checked} schedules, {violations} violations",
    )


def test_identifiability_threshold():
    start = time.perf_counter()
    K, Ttr = 70, 11
    hits = {}
    for N in (6, 7, 9):
        full = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sched = make_random_schedule(K, Ttr, N, 7, rng,
                                         require_full_rank=False)
            rank, _ = rank_and_condition(sched)
            full += rank == K
        hits[N] = full
    _criterion(
        "random-schedule identifiability vs schedule length",
        hits[6] == 0 and hits[7] >= 50 and hits[9] >= 95,
        time.perf_counter() - start, 30.0,
        f"rank-70 rate: N=6 {hits[6]}/100, N=7 {hits[7]}/100, N=9 {hits[9]}/100",
    )


def _desk_scenario():
    return ScenarioConfig(M=32, K=12, Ttr=5, sigma_v2=0.1, num_cells=3,
                          users_per_cell=4, seed=1)


def test_rate_ordering_over_training_window():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario=_desk_scenario(),
        profile=BandLimited(width=8, power=1.0, dynamic_range_db=20.0),
        schedule_mode="random",
        estimators=("genie", "ml", "two_step", "ls"),
        sweep_axis="T",
        sweep_values=(30, 60, 120, 240),
        trials=20,
        eval_intervals=40,
        t_coh=200,
    )
    res = run_experiment(cfg)
    by = collections.defaultdict(dict)
    for r in res:
        by[(r.axis_value, r.estimator)][r.seed] = r.sum_rate
    means = {
        (v, n): float(np.mean(list(by[(v, n)].values())))
        for v in cfg.sweep_values
        for n in cfg.estimators
    }
    order_ok = all(
        means[(v, "genie")] >= means[(v, "ml")] >= means[(v, "two_step")]
        >= means[(v, "ls")]
        for v in cfg.sweep_values
    )
    # one-sided paired t at the 95% level, df = 19
    conf_ok = True
    for v in cfg.sweep_values:
        d = np.array([by[(v, "genie")][s] - by[(v, "ls")][s] for s in range(20)])
        conf_ok &= d.mean() > 1.729 * d.std(ddof=1) / np.sqrt(d.size)
    gaps = [means[(v, "genie")] - means[(v, "ml")] for v in cfg.sweep_values]
    gap_ok = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    _criterion(
        "sum-rate ordering genie >= ml >= two-step >= ls with shrinking ml gap",
        order_ok and conf_ok and gap_ok,
        time.perf_counter() - start, 600.0,
        f"gaps {np.round(gaps, 4).tolist()}",
    )


def test_rate_decreases_with_pilot_count_once_saturated():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario=_desk_scenario(),
        profile=BandLimited(width=8, power=1.0, dynamic_range_db=20.0),
        schedule_mode="random",
        estimators=("genie",),
        sweep_axis="Ttr",
        sweep_values=(8, 10, 12),
        trials=20,
        T=60,
        eval_intervals=40,
        t_coh=60,
    )
    res = run_experiment(cfg)
    by = collections.defaultdict(list)
    for r in res:
        by[r.axis_value].append(r.sum_rate)
    means = [float(np.mean(by[v])) for v in cfg.sweep_values]
    ok = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    _criterion(
        "genie rate decreases in pilot count via training overhead",
        ok,
        time.perf_counter() - start, 600.0,
        f"means over Ttr {cfg.sweep_values}: {np.round(means, 4).tolist()}",
    )


def test_mmse_estimation_never_worse_than_ls():
    start = time.perf_counter()
    scn = _desk_scenario()
    ok = True
    worst_margin = np.inf
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        cov = generate_covariance_set(
            scn, BandLimited(width=8, power=1.0, dynamic_range_db=20.0), rng
        )
        sched = make_random_schedule(scn.K, scn.Ttr, 5, scn.num_cells, rng)
        served = np.arange(scn.users_per_cell)
        se_mmse = np.zeros(served.size)
        se_ls = np.zeros(served.size)
        for e in range(200):
            alloc = sched.allocations[e % sched.N]
            chan = draw_channels(cov, rng)
            Phi = observe(chan, alloc, scn.sigma_v2, rng)
            pilots = sched.pilots[e % sched.N]
            for j, k in enumerate(served):
                col = Phi[:, pilots[k]]
                sharing = alloc[:, pilots[k]] == 1
                c_obs = cov[:, sharing].sum(axis=1) + scn.sigma_v2
                hm = mmse_channel_estimate(col, cov[:, k], c_obs)
                h = chan[:, k]
                se_mmse[j] += np.sum(np.abs(hm - h) ** 2)
                se_ls[j] += np.sum(np.abs(ls_channel_estimate(col) - h) ** 2)
        ok &= bool(np.all(se_mmse <= se_ls))
        worst_margin = min(worst_margin, float(np.min(se_ls / se_mmse)))
    _criterion(
        "true-statistics MMSE estimate MSE <= LS MSE per user, every seed",
        ok,
        time.perf_counter() - start, 60.0,
        f"min LS/MMSE error ratio {worst_margin:.3f}",
    )
