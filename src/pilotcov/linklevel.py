"""Channel estimation, receive filtering and uplink sum-rate evaluation.

Covariance estimates feed the per-user MMSE channel estimates; a
regularized zero-forcing filter built from the serving cell's estimates
is then scored by the Monte-Carlo uplink sum-rate, with all K users
(served and out-of-cell) contributing interference.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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
    plus noise).  obs_col is one column (M,) or one column per user
    (M x J), with c_hk and c_obs_p of the same shape.
    """
    c_obs_p = np.asarray(c_obs_p, dtype=float)
    if np.any(c_obs_p <= 0):
        raise ValueError("slot variances must be strictly positive")
    return (np.asarray(c_hk, float) / c_obs_p) * np.asarray(obs_col)


def ls_channel_estimate(obs_col: np.ndarray) -> np.ndarray:
    """Least-squares estimate: with orthonormal pilots this is the raw
    correlated observation, no statistics required.  obs_col is one column
    (M,) or one column per user (M x J)."""
    return np.array(obs_col, copy=True)


def rzf_filter(H_hat: np.ndarray, sigma_v2: float) -> np.ndarray:
    """Regularized zero-forcing combiner W = (H H^H + K sigma_v2 I)^{-1} H.

    The noise loading keeps the Gram matrix positive definite for any
    sigma_v2 > 0; at exactly zero noise a pseudo-inverse handles the
    rank-deficient case.
    """
    H_hat = np.asarray(H_hat)
    M, K_served = H_hat.shape
    G = H_hat @ H_hat.conj().T + (K_served * sigma_v2) * np.eye(M)
    if sigma_v2 > 0:
        return scipy.linalg.solve(G, H_hat, assume_a="pos")
    return np.linalg.pinv(G) @ H_hat


def uplink_sum_rate(
    W: np.ndarray,
    H_true: np.ndarray,
    sigma_v2: float,
    *,
    served: np.ndarray | None = None,
    overhead: float = 1.0,
) -> float:
    """Instantaneous uplink sum-rate (bits per channel use) for one draw.

    Column k of W combines for the user H_true[:, served[k]]; every other
    one of the K columns of H_true counts as interference.  `overhead`
    is the fraction of the coherence block left for data, typically
    1 - Ttr / T_coh.  Summations run in fixed array order so the result
    is independent of any outer parallelization.
    """
    W = np.asarray(W)
    H_true = np.asarray(H_true)
    K_served = W.shape[1]
    served = np.arange(K_served) if served is None else np.asarray(served, int)
    if served.shape != (K_served,):
        raise ValueError("need one served-user index per filter column")

    P = np.abs(W.conj().T @ H_true) ** 2          # (K_served, K_total)
    signal = P[np.arange(K_served), served]
    interference = P.sum(axis=1) - signal
    noise = sigma_v2 * np.sum(np.abs(W) ** 2, axis=0)
    denom = interference + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0, signal / denom,
                        np.where(signal > 0, np.inf, 0.0))
    return float(overhead * np.sum(np.log2(1.0 + sinr)))
