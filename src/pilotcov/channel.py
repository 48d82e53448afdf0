"""Block-fading channel draws and post-correlation training observations.

Pilot sequences are never materialized: correlating the received training
signal with the orthonormal pilots leaves one observation column per
pilot, equal to the sum of the channel vectors of the users assigned to
that pilot plus white noise.

Everything is a plain array: the ground-truth variances C are (M, K) real,
a channel draw H is (M, K) complex with one column per user, an interval's
allocation A = schedule.allocations[n] is (K, Ttr) one-hot, a training
observation Phi is (M, Ttr) complex with one column per pilot, and the
squared observations B of T intervals are (M, T * Ttr) real, column
t * Ttr + p belonging to pilot p of interval t.

With diagonal covariances each slot Phi[m, p] is CN(0, (C A)[m,p] +
sigma_v2), independent across antennas, pilots and intervals.  A sweep's
training window is therefore drawn directly from the slot variances of a
schedule pass, repeated T/N times, with `draw_channels`; `observe` forms
H A + noise where the channel H itself is needed, as in link-level
evaluation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "draw_channels",
    "observe",
    "squared_rows",
]


def draw_channels(C: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One circularly-symmetric complex Gaussian draw per entry of the
    variance array C: the (M, K) ground truth for a channel draw, or a stack
    of matrices, such as the (E, M, K) evaluation channels of a trial or the
    (T/N, N, M, Ttr) passes of a training window.  C may be a broadcast
    view, such as one pass of slot variances repeated T/N times.

    Real and imaginary parts are independent N(0, C[...]/2), so the
    per-entry power is exactly C[...].  Matrices are drawn in the order of
    the leading axes, real part then imaginary part of each, so from one
    generator state the draw of C[:t] is the first t entries of the draw of
    C: training windows of different lengths share their first intervals.
    """
    out = np.empty(C.shape, dtype=complex)
    # filled one index of the leading axis at a time, in stream order: no
    # temporary grows with the draw, which is the largest array of a unit
    for o, c in (zip(out, C) if C.ndim > 2 else [(out, C)]):
        z = rng.standard_normal((*c.shape[:-2], 2, *c.shape[-2:]))
        o.real = z[..., 0, :, :]
        o.imag = z[..., 1, :, :]
        del z
        o *= np.sqrt(c / 2.0)
    return out


def observe(
    H: np.ndarray,
    A: np.ndarray,
    sigma_v2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Training observations Phi = H A + noise for one interval under the
    (K, Ttr) one-hot allocation A."""
    if H.shape[1] != A.shape[0]:
        raise ValueError(
            f"channel has {H.shape[1]} users but allocation has {A.shape[0]}"
        )
    if not sigma_v2 >= 0:
        raise ValueError(f"sigma_v2 must be >= 0, got {sigma_v2}")
    M, Ttr = H.shape[0], A.shape[1]
    noise = np.sqrt(sigma_v2 / 2.0) * (
        rng.standard_normal((M, Ttr)) + 1j * rng.standard_normal((M, Ttr))
    )
    return H @ A + noise


def squared_rows(Phi: np.ndarray) -> np.ndarray:
    """|Phi|^2 of a (T, M, Ttr) stack of observations, or a list of T equal
    (M, Ttr) blocks, as one (M, T * Ttr) array preserving block order."""
    Phi = np.asarray(Phi)
    if Phi.ndim != 3 or Phi.shape[0] == 0:
        raise ValueError(
            f"need a non-empty (T, M, Ttr) stack of equal blocks, got shape {Phi.shape}"
        )
    # squared in place in the output's (M, T, Ttr) layout: one array, the
    # size of the result, on top of the draw
    rows = np.abs(Phi.transpose(1, 0, 2), order="C")
    rows **= 2
    return rows.reshape(Phi.shape[1], -1)
