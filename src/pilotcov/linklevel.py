"""Channel estimation, receive filtering and uplink sum-rate evaluation.

Covariance estimates feed the per-user MMSE channel estimates; a
regularized zero-forcing filter built from the serving cell's estimates
is then scored by the Monte-Carlo uplink sum-rate, with all K users
(served and out-of-cell) contributing interference.

The filter and the rate take one draw or a stack of draws: any leading
axes of H_hat (..., M, K_served) and H_true (..., M, K) index draws.  The
filter is computed through the push-through identity

    (H H^H + a I_M)^{-1} H = H (H^H H + a I_K)^{-1},

so each draw solves a K_served x K_served system, not an M x M one
(Peel, Hochwald and Swindlehurst, IEEE Trans. Commun., 2005).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mmse_channel_estimate",
    "ls_channel_estimate",
    "rzf_filter",
    "uplink_sum_rate",
]


def mmse_channel_estimate(
    obs_col: np.ndarray, c_hk: np.ndarray, c_obs_p: np.ndarray
) -> np.ndarray:
    """Per-antenna Wiener shrinkage of observation columns.

    With diagonal covariances the conditional-mean estimate reduces to
    h_hat[m] = c_hk[m] / c_obs_p[m] * obs_col[m], where c_obs_p is the
    variance of the observation slot (sum of the sharing users' variances
    plus noise).  obs_col is one column (M,), one column per user
    (M x J) or a stack of those (..., M, J); c_hk and c_obs_p broadcast
    against it.
    """
    c_obs_p = np.asarray(c_obs_p, dtype=float)
    if not (c_obs_p > 0).all():
        raise ValueError("slot variances must be strictly positive")
    return (np.asarray(c_hk, float) / c_obs_p) * np.asarray(obs_col)


def ls_channel_estimate(obs_col: np.ndarray) -> np.ndarray:
    """Least-squares estimate: with orthonormal pilots this is the raw
    correlated observation, no statistics required.  obs_col is one column
    (M,), one column per user (M x J) or a stack (..., M, J)."""
    return np.array(obs_col, copy=True)


def rzf_filter(H_hat: np.ndarray, sigma_v2: float) -> np.ndarray:
    """Regularized zero-forcing combiner W = (H H^H + K sigma_v2 I)^{-1} H.

    H_hat is (M, K_served) or a stack (..., M, K_served); W has its shape.
    Evaluated as W = H (H^H H + K sigma_v2 I)^{-1}, one K_served x
    K_served solve per draw.  The noise power sigma_v2 must be > 0; its
    loading keeps that Gram matrix positive definite even for a
    rank-deficient H.
    """
    if not sigma_v2 > 0:
        raise ValueError(f"sigma_v2 must be > 0, got {sigma_v2}")
    H_hat = np.asarray(H_hat)
    K_served = H_hat.shape[-1]
    G = (np.swapaxes(H_hat, -1, -2).conj() @ H_hat
         + (K_served * sigma_v2) * np.eye(K_served))
    return H_hat @ np.linalg.solve(G, np.eye(K_served))


def uplink_sum_rate(
    W: np.ndarray,
    H_true: np.ndarray,
    sigma_v2: float,
    *,
    served: np.ndarray | None = None,
    overhead: float = 1.0,
) -> float | np.ndarray:
    """Instantaneous uplink sum-rate (bits per channel use) per draw.

    Column k of W combines for the user H_true[:, served[k]]; every other
    one of the K columns of H_true counts as interference.  `overhead`
    is the fraction of the coherence block left for data, typically
    1 - Ttr / T_coh.  W (M, K_served) and H_true (M, K) give a float;
    stacks (..., M, K_served) and (..., M, K) give one rate per draw,
    shape (...).  Summations run in fixed array order so the result is
    independent of any outer parallelization.
    """
    W = np.asarray(W)
    H_true = np.asarray(H_true)
    K_served = W.shape[-1]
    served = np.arange(K_served) if served is None else np.asarray(served, int)
    if served.shape != (K_served,):
        raise ValueError("need one served-user index per filter column")

    P = np.abs(np.swapaxes(W, -1, -2).conj() @ H_true) ** 2   # (..., K_served, K)
    signal = P[..., np.arange(K_served), served]
    interference = P.sum(axis=-1) - signal
    noise = sigma_v2 * np.sum(np.abs(W) ** 2, axis=-2)
    denom = interference + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0, signal / denom,
                        np.where(signal > 0, np.inf, 0.0))
    rate = overhead * np.sum(np.log2(1.0 + sinr), axis=-1)
    return float(rate) if rate.ndim == 0 else rate
