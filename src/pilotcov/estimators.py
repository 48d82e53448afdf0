"""Channel-variance estimators from contaminated training observations.

All estimators work row-by-row: with diagonal covariances the rows of the
observation matrix are mutually independent, so each antenna m poses an
independent estimation problem for the length-K variance vector c_m.

Implemented estimators:
  * two-step reconstruction: per-slot sample variances, then a right
    inverse of the compound allocation matrix;
  * approximate ML: fixed-point iteration on the weighted normal
    equations obtained from the stationarity condition of the negative
    log-likelihood, with slot weights 1 / slot_power^2;
  * shared-scaling batch form: one weighted right inverse shared by all
    antenna rows;
  * adaptive estimator: exponentially-forgetting accumulation of the
    weighted normal equations, re-solved after every interval.

Each of them solves the weighted normal equations (Pi D Pi^T) c =
Pi D (b - sigma_v2) with a different diagonal slot weighting D: two-step
uses D = I, ML re-weights D at every iterate, shared scaling uses one D
for all antennas and the adaptive estimator accumulates Pi D Pi^T over
intervals.  All of them go through `_solve_normal`, and the D = I solve
is `shared_scaling_estimate` with D = None.

The batch estimators take per-slot statistics: the slot means b over the
S passes of a window (`estimate_obs_covariances`) with the compound
allocation Pi.  Raw squared observations with Pi tiled S times are an
equivalent input, since their NLL and normal equations are exactly S
times those of the means.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import IdentifiabilityError, SingularSystemError
from .schedule import Allocation, Schedule, rank_and_condition

__all__ = [
    "ObsCovEstimate",
    "CovEstimate",
    "AdaptiveState",
    "MLFixedPointResult",
    "estimate_obs_covariances",
    "two_step_reconstruct",
    "shared_scaling_estimate",
    "negative_llf",
    "llf_gradient",
    "ml_fixed_point",
    "estimate_all_rows_ml",
    "shared_scaling_fixed_point",
    "adaptive_update",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ObsCovEstimate:
    """Per-slot observation variances (sample means of squared magnitudes)."""

    c_obs: np.ndarray  # (M, N * Ttr)
    sample_count: int

    def __post_init__(self) -> None:
        if np.any(self.c_obs < 0):
            raise ValueError("observation variances must be nonnegative")


@dataclass(frozen=True)
class CovEstimate:
    """Estimated per-antenna, per-user channel variances."""

    C_hat: np.ndarray  # (M, K)

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.C_hat)):
            raise ValueError("estimate contains non-finite entries")


class MLFixedPointResult(NamedTuple):
    c_hat: np.ndarray
    iterations: int
    converged: bool


def estimate_obs_covariances(B: np.ndarray, schedule: Schedule) -> ObsCovEstimate:
    """Average the squared observations over the passes of the schedule.

    B (M x S*N*Ttr) holds S >= 1 whole passes.  The sample mean of |phi|^2
    is exactly the ML estimate of each slot's observation variance.
    """
    block = schedule.N * schedule.Ttr
    M, total = B.shape
    if total == 0 or total % block != 0:
        raise ValueError(
            f"{total} observation slots do not make whole passes of "
            f"{block} (N={schedule.N}, Ttr={schedule.Ttr})"
        )
    repeats = total // block
    means = B.reshape(M, repeats, block).mean(axis=1)
    return ObsCovEstimate(means, repeats)


def _solve_normal(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations G c = rhs for G = Pi D Pi^T.

    G must be symmetric positive definite; rhs is one right-hand side
    (length K) or one per column (K x M).
    """
    try:
        return scipy.linalg.solve(G, rhs, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"weighted normal equations are singular: {exc}"
        ) from exc


def two_step_reconstruct(
    obs: ObsCovEstimate,
    schedule: Schedule,
    sigma_v2: float,
    *,
    clamp: bool = True,
) -> CovEstimate:
    """Right-invert the compound allocation (D = I):
    C = (c_obs - sigma_v2) Pi^T (Pi Pi^T)^{-1}.

    Requires the compound allocation matrix to have full row rank K;
    otherwise the channel variances are not uniquely reconstructible.
    """
    rank, _ = rank_and_condition(schedule)
    if rank < schedule.K:
        raise IdentifiabilityError(
            f"compound allocation has rank {rank} < K={schedule.K}; channel "
            f"variances cannot be uniquely reconstructed"
        )
    return shared_scaling_estimate(
        obs.c_obs, schedule.compound, None, sigma_v2, clamp=clamp
    )


def shared_scaling_estimate(
    B_mean: np.ndarray,
    Pi_tilde: np.ndarray,
    D: np.ndarray | None,
    sigma_v2: float,
    *,
    clamp: bool = True,
) -> CovEstimate:
    """Weighted right inverse shared by all antenna rows.

    C = (B_mean - sigma_v2) D Pi^T (Pi D Pi^T)^{-1} for a positive diagonal
    D (given as a vector of slot weights; None means identity).  With
    D = identity this reduces exactly to the two-step reconstruction.
    """
    Pi = np.asarray(Pi_tilde, dtype=float)
    d = np.ones(Pi.shape[1]) if D is None else np.asarray(D, dtype=float)
    if d.shape != (Pi.shape[1],):
        raise ValueError(f"D must be a length-{Pi.shape[1]} weight vector")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("D must be strictly positive and finite")
    rhs = Pi @ (d[:, None] * (np.asarray(B_mean) - sigma_v2).T)  # (K, M)
    C = _solve_normal((Pi * d) @ Pi.T, rhs).T
    return CovEstimate(np.maximum(C, 0.0) if clamp else C)


def _slot_powers(c_m: np.ndarray, Pi: np.ndarray, sigma_v2: float) -> np.ndarray:
    return Pi.T @ c_m + sigma_v2


def negative_llf(
    c_m: np.ndarray, b_m: np.ndarray, Pi: np.ndarray, sigma_v2: float
) -> float:
    """Negative log-likelihood of one antenna row's squared observations.

    sum_i [ b_i / p_i + log p_i ] with slot powers p_i = pi_i^T c_m + sigma_v2.
    """
    powers = _slot_powers(np.asarray(c_m, float), np.asarray(Pi, float), sigma_v2)
    if np.any(powers <= 0):
        raise ValueError("all slot powers must be strictly positive")
    return float(np.sum(b_m / powers + np.log(powers)))


def llf_gradient(
    c_m: np.ndarray, b_m: np.ndarray, Pi: np.ndarray, sigma_v2: float
) -> np.ndarray:
    """Gradient of `negative_llf` with respect to the variance vector."""
    Pi = np.asarray(Pi, dtype=float)
    powers = _slot_powers(np.asarray(c_m, float), Pi, sigma_v2)
    if np.any(powers <= 0):
        raise ValueError("all slot powers must be strictly positive")
    return Pi @ ((powers - b_m) / powers**2)


def _safe_llf(c_m: np.ndarray, b_m: np.ndarray, Pi: np.ndarray, sigma_v2: float) -> float:
    try:
        return negative_llf(c_m, b_m, Pi, sigma_v2)
    except ValueError:
        return np.inf


def ml_fixed_point(
    b_m: np.ndarray,
    Pi: np.ndarray,
    sigma_v2: float,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> MLFixedPointResult:
    """Fixed-point iteration on the stationarity condition of the LLF.

    Each step solves the weighted normal equations with slot weights
    d_i = 1 / slot_power_i^2 frozen at the previous iterate, then clamps
    the result to the nonnegative orthant.  If the LLF increases, the step
    is halved toward the previous iterate (up to 10 times); the cost is
    neither convex nor quasi-convex, so this only safeguards against
    divergence without moving the fixed points.

    Convergence requires the step criterion ||c_new - c_old||_inf <=
    tol * (1 + ||c_old||_inf) and, at interior iterates, a certified
    gradient norm <= 10 * tol.

    b_m is normally one row of slot means with Pi the compound allocation;
    the gradient certificate is then per pass of the schedule and does not
    depend on the window length.  Raw squared observations with Pi tiled S
    times have the same minimisers but an S times larger gradient.
    """
    Pi = np.asarray(Pi, dtype=float)
    b_m = np.asarray(b_m, dtype=float)
    K = Pi.shape[0]
    if init is None:
        # warm start from the unweighted (two-step) solution
        c = shared_scaling_estimate(b_m[None, :], Pi, None, sigma_v2).C_hat[0]
    else:
        c = np.asarray(init, dtype=float).copy()
        if c.shape != (K,) or np.any(c < 0):
            raise ValueError("init must be a nonnegative length-K vector")

    obj = _safe_llf(c, b_m, Pi, sigma_v2)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        powers = _slot_powers(c, Pi, sigma_v2)
        if np.any(powers <= 0) or not np.all(np.isfinite(powers)):
            raise SingularSystemError(
                "slot powers vanished; weights 1/power^2 are undefined"
            )
        d = powers**-2
        c_new = np.maximum(
            _solve_normal((Pi * d) @ Pi.T, Pi @ (d * (b_m - sigma_v2))), 0.0
        )
        obj_new = _safe_llf(c_new, b_m, Pi, sigma_v2)
        if obj_new > obj:
            # backtrack toward the previous iterate while it helps; when no
            # halving descends, take the full step anyway: the clamped fixed
            # point may sit slightly uphill of the path minimum, and the map
            # stays bounded for positive noise power
            cand, obj_cand, accepted = c_new, obj_new, False
            for _ in range(10):
                cand = 0.5 * (cand + c)
                obj_cand = _safe_llf(cand, b_m, Pi, sigma_v2)
                if obj_cand <= obj:
                    c_new, obj_new, accepted = cand, obj_cand, True
                    break
            if not accepted and not np.isfinite(obj_new):
                # all candidates leave the LLF domain: stall out honestly
                break

        step_ok = np.max(np.abs(c_new - c)) <= tol * (1.0 + np.max(np.abs(c)))
        c, obj = c_new, obj_new
        if step_ok:
            if np.all(c > 0):
                # interior iterate: certify stationarity before stopping
                if np.max(np.abs(llf_gradient(c, b_m, Pi, sigma_v2))) <= 10 * tol:
                    converged = True
                    break
            else:
                converged = True
                break

    return MLFixedPointResult(c, iterations, converged)


def estimate_all_rows_ml(
    B: np.ndarray,
    Pi: np.ndarray,
    sigma_v2: float,
    tol: float = 1e-8,
    max_iter: int = 200,
    *,
    return_convergence: bool = False,
):
    """Run `ml_fixed_point` independently on every antenna row.

    The rows are independent problems; results do not depend on the order
    in which they are solved.  Non-convergence of individual rows is
    reported via the aggregated flags (and a warning), not an error.
    """
    Bm = np.asarray(B, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    # shared warm start: unweighted right inverse for all rows at once
    init_all = shared_scaling_estimate(Bm, Pi, None, sigma_v2).C_hat

    C_hat = np.empty((Bm.shape[0], Pi.shape[0]))
    flags = np.empty(Bm.shape[0], dtype=bool)
    for m in range(Bm.shape[0]):
        res = ml_fixed_point(Bm[m], Pi, sigma_v2, init=init_all[m],
                             tol=tol, max_iter=max_iter)
        C_hat[m] = res.c_hat
        flags[m] = res.converged
    if not np.all(flags):
        logger.warning(
            "ml_fixed_point did not converge on %d of %d antenna rows",
            int(np.sum(~flags)), flags.size,
        )
    est = CovEstimate(C_hat)
    if return_convergence:
        return est, flags
    return est


def shared_scaling_fixed_point(
    B: np.ndarray,
    Pi: np.ndarray,
    sigma_v2: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> CovEstimate:
    """Batch variant with one scaling matrix shared by all antenna rows.

    The shared slot weights are rebuilt from the antenna-averaged variance
    estimate, trading some accuracy for a single K x K solve per sweep.
    """
    Bm = np.asarray(B, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    est = shared_scaling_estimate(Bm, Pi, None, sigma_v2)
    C = est.C_hat
    for _ in range(max_iter):
        powers = Pi.T @ C.mean(axis=0) + sigma_v2
        if np.any(powers <= 0):
            raise SingularSystemError("average slot powers vanished")
        C_new = shared_scaling_estimate(Bm, Pi, powers**-2, sigma_v2).C_hat
        done = np.max(np.abs(C_new - C)) <= tol * (1.0 + np.max(np.abs(C)))
        C = C_new
        if done:
            break
    return CovEstimate(C)


@dataclass(frozen=True)
class AdaptiveState:
    """State of the adaptive variance estimator for one antenna row.

    Xi accumulates the weighted Gram matrix of the allocations, psi the
    weighted observations; c_hat solves Xi c = psi, clamped to c >= 0.
    """

    Xi: np.ndarray      # (K, K)
    psi: np.ndarray     # (K,)
    c_hat: np.ndarray   # (K,)
    lam: float

    @classmethod
    def initialize(cls, K: int, lam: float = 0.99) -> "AdaptiveState":
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")
        return cls(
            Xi=np.eye(K),
            psi=np.zeros(K),
            c_hat=np.ones(K),
            lam=lam,
        )

    @property
    def K(self) -> int:
        return self.psi.size


def adaptive_update(
    state: AdaptiveState,
    alloc: Allocation,
    b_m_t: np.ndarray,
    sigma_v2: float,
    *,
    unit_scaling: bool = False,
) -> AdaptiveState:
    """One interval of the adaptive estimator.

    Slot weights come from the current variance estimate,
    d_p = 1 / (pi_p^T c_hat + sigma_v2)^2; both accumulators are decayed
    by the forgetting factor before the new interval is added, and the
    new estimate solves the accumulated normal equations Xi c = psi,
    clamped to the nonnegative orthant.

    `unit_scaling=True` freezes the weights at one (plain recursive
    least squares), which is mainly useful for equivalence checks against
    the batch reconstruction.
    """
    A = alloc.assignment
    b_m_t = np.asarray(b_m_t, dtype=float)
    if A.shape[0] != state.K:
        raise ValueError(f"allocation has K={A.shape[0]}, state has K={state.K}")
    if b_m_t.shape != (alloc.Ttr,):
        raise ValueError(f"need one squared observation per pilot ({alloc.Ttr})")

    if unit_scaling:
        d = np.ones(alloc.Ttr)
    else:
        slot_power = A.T @ state.c_hat + sigma_v2
        if np.any(slot_power <= 0) or not np.all(np.isfinite(slot_power)):
            raise SingularSystemError("slot powers vanished in adaptive update")
        d = slot_power**-2

    psi = state.lam * state.psi + A @ (d * (b_m_t - sigma_v2))
    Xi = state.lam * state.Xi + (A * d) @ A.T
    c_hat = np.maximum(_solve_normal(Xi, psi), 0.0)
    return AdaptiveState(Xi=Xi, psi=psi, c_hat=c_hat, lam=state.lam)
