"""Channel-variance estimators from contaminated training observations.

With diagonal covariances the rows of the observation matrix are mutually
independent, so each antenna m poses an independent estimation problem
for the length-K variance vector c_m.  Every estimator solves the
weighted normal equations (Pi D Pi^T) c = Pi D (b - sigma_v2) with its
own diagonal slot weighting D:
  * two-step reconstruction: D = I, a right inverse of the compound
    allocation applied to the per-slot sample variances;
  * approximate ML: fixed-point iteration on the stationarity condition
    of the negative log-likelihood, re-weighting D at every iterate and
    solving the rows one at a time;
  * shared-scaling batch form: one D, and one K x K system, for all rows;
  * adaptive estimator: exponentially-forgetting accumulation of the
    system over intervals, every row re-solved, as one stack, after each.

`_normal_equations` forms the system with one right-hand side per
antenna row, and `_solve_normal` solves it, taking the right-hand sides
as rows (..., K) for a single system and for a stack alike; it imports
scipy at the first solve, so a process that never solves (`pilotcov
validate`, `pilotcov schedule`) never loads it.  Variances are
nonnegative, and `_solve_nonneg`, the solve every estimator calls, is
the one place that imposes c >= 0.  The weights of ML,
shared scaling and the adaptive estimator are d_i = 1 / p_i^2 at the
slot powers p = Pi^T c + sigma_v2 of the current estimate:
`_slot_powers` forms p and refuses a power that is not positive, NaN
included, with ValueError, and `_slot_weights` refuses an infinite power
with SingularSystemError and returns p^-2 and its spread d_max / d_min.
Per-row ML compares that spread with kappa(Pi) of `_gram_kappa` to
certify each of its solves well conditioned before it forms it.

The batch estimators take per-slot statistics: the slot means b over the
S passes of a window (`estimate_obs_covariances`) with the compound
allocation Pi.  Raw squared observations with Pi tiled S times are an
equivalent input, since their NLL and normal equations are exactly S
times those of the means.

Inputs and results are plain arrays: the slot means are (M, N*Ttr) and
every estimate is (M, K).  Both ML modes return (C_hat, converged) with
one flag per antenna row; they log nothing, and the sweep warns of a
unit that stopped at max_iter.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import IdentifiabilityError, SingularSystemError
from .schedule import Schedule

__all__ = [
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
    "adaptive_estimate",
]


class MLFixedPointResult(NamedTuple):
    """`ml_fixed_point`'s estimate c_hat (K,), the iterations it ran, and
    whether it converged (False: it stopped at max_iter)."""

    c_hat: np.ndarray
    iterations: int
    converged: bool


def estimate_obs_covariances(B: np.ndarray, schedule: Schedule) -> np.ndarray:
    """Slot means (M x N*Ttr) of the squared observations over the passes
    of the schedule.

    B (M x S*N*Ttr) holds S >= 1 whole passes of finite, nonnegative
    squared magnitudes; any other entry, NaN and inf included, raises
    ValueError.  The sample mean of |phi|^2 is exactly the ML estimate of
    each slot's observation variance.
    """
    block = schedule.N * schedule.Ttr
    M, total = B.shape
    if total == 0 or total % block != 0:
        raise ValueError(
            f"{total} observation slots do not make whole passes of "
            f"{block} (N={schedule.N}, Ttr={schedule.Ttr})"
        )
    if not ((B >= 0) & (B < np.inf)).all():
        raise ValueError("squared observations must be finite and nonnegative")
    return B.reshape(M, total // block, block).mean(axis=1)


_EPS = np.finfo(np.float64).eps
_SQRT_EPS = np.sqrt(_EPS)
_HUGE = np.finfo(np.float64).max / 4
# the largest slot power whose weight 1 / p^2 is a normal float
_NORMAL_POWER = 1.0 / math.sqrt(np.finfo(np.float64).tiny)


@functools.cache
def _lapack() -> tuple:
    """LAPACK's float64 posv, pocon and lange, bound at the first call:
    importing scipy.linalg takes most of pilotcov's start-up."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack.get_lapack_funcs(("posv", "pocon", "lange"),
                                                dtype=np.float64)


def _normal_equations(Pi: np.ndarray, d: np.ndarray, r: np.ndarray) -> tuple:
    """The weighted normal equations G = Pi D Pi^T and their right-hand
    sides Pi D r, (G (..., K, K), rhs (..., K)), for the allocation Pi
    (K, S), slot weights d (..., S) and residual rows r (..., S), one row
    per antenna.

    For a one-hot allocation, where each row of Pi holds a single one,
    every entry of both products is a single product of d, r and Pi's
    ones, so it rounds the same whatever the shape of the stack: a stack
    of rows gives each row the bits of its own call.  The stacked
    adaptive update relies on that.
    """
    return (Pi * d[..., None, :]) @ Pi.T, (d * r) @ Pi.T


def _solve_normal(G: np.ndarray, rhs: np.ndarray, cert: float | bool = 0.0) -> np.ndarray:
    """Solve the normal equations of `_normal_equations`, G c = rhs, with
    the right-hand sides as rows.

    G must be symmetric positive definite.  A single G (K x K) takes one
    right-hand side (K,) or one per row (M, K); a stack G (..., K, K)
    takes one per slice, (..., K).  The solution has the shape of rhs.

    Non-finite input, single or stacked, raises ValueError before any
    solve.  Each system, alone or a slice of a stack, is solved by LAPACK
    directly: one upper Cholesky factor and solve (posv), then the factor's
    reciprocal condition number (pocon).  That gives the bits of scipy's
    positive definite `solve(G, rhs.T, assume_a="pos").T` for K >= 2, and
    of its batched solve of a stack at every K, which make the same factor
    and triangular solves (potrf, potrs), without their per-call overhead,
    and with their other checks: an indefinite system raises
    SingularSystemError, naming the slice of a stack, and an
    ill-conditioned one warns `scipy.linalg.LinAlgWarning`, once per call.
    `_lapack` binds the handles, and so imports scipy, at the process's
    first solve; later solves reuse them.

    `cert` certifies the systems' condition, in one of two forms.  A
    number is a floor, a lower bound on the smallest eigenvalue of every
    system (0, the default, proves nothing; the adaptive estimator passes
    its decayed prior's).  When `_certified` finds floor >= sqrt(eps)
    sqrt(K) max ||G||_1, no system can warn, and pocon and its 1-norm
    (lange) are skipped.  For symmetric positive definite G, ||G^-1||_1 <=
    sqrt(K) ||G^-1||_2 <= sqrt(K) / floor, so the reciprocal condition
    number ||G||_1^-1 ||G^-1||_1^-1 is at least floor / (sqrt(K) ||G||_1)
    >= sqrt(eps).  pocon's estimate of ||G^-1||_1 is a lower bound, so its
    rcond is at least the true one, far above the eps at which it warns;
    the sqrt(eps) margin absorbs the rounding in G that makes its smallest
    eigenvalue miss the floor by a few units of roundoff times ||G||_1.
    `True` is per-row ML's certificate for one system G (K, K) and one
    right-hand side (K,) (see `_gram_kappa`): its caller has proved that
    both are finite and that the floor test holds, so the system skips the
    finiteness scan as well and goes straight to posv, whose singular or
    indefinite verdict still raises; NumPy's True is the same
    certificate, not a floor of 1.  `False`, like 0, proves nothing.
    """
    if cert is True or cert is np.True_:
        U, x, info = _lapack()[0](G, rhs)
        if info > 0:
            raise _not_definite(info)
        return x
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise ValueError("normal equations must not contain infs or NaNs")
    posv, pocon, lange = _lapack()
    check = not _certified(G, cert)
    lead, K = G.shape[:-2], G.shape[-1]
    # a single system takes its right-hand sides as columns, in one solve
    systems = zip(G.reshape(-1, K, K), rhs.reshape(-1, K)) if lead else [(G, rhs.T)]
    solutions, ill = [], False
    for i, (g, b) in enumerate(systems):
        U, x, info = posv(g, b)
        if info > 0:
            where = (f" of stacked system {', '.join(map(str, np.unravel_index(i, lead)))}"
                     if lead else "")
            raise _not_definite(info, where)
        if check:
            rcond, _ = pocon(U, lange("1", g))
            ill = ill or not rcond >= _EPS
        solutions.append(x)
    if ill:
        import scipy.linalg

        # one text for every rcond and every stack, so the default filter
        # shows it once per estimator line that reaches it through
        # `_solve_nonneg`
        warnings.warn(
            "ill-conditioned normal equations: the solution may not be accurate",
            scipy.linalg.LinAlgWarning, stacklevel=3,
        )
    return np.reshape(solutions, rhs.shape) if lead else solutions[0].T


def _not_definite(info: int, where: str = "") -> SingularSystemError:
    # posv's verdict on a system whose leading minor of order info > 0 is
    # not positive
    return SingularSystemError(
        "weighted normal equations are singular or indefinite: the "
        f"leading minor of order {info}{where} is not positive"
    )


def _certified(G: np.ndarray, floor: float) -> bool:
    """Whether `floor`, a lower bound on the smallest eigenvalue of every
    system of G (..., K, K), proves each one's reciprocal condition number
    at least sqrt(eps): floor >= sqrt(eps) sqrt(K) max ||G||_1 (see
    `_solve_normal`).  A floor of 0 certifies nothing.  Per-row ML proves
    the same test before it forms a system, from `_gram_kappa`, and passes
    True instead of a floor."""
    K = G.shape[-1]
    # ||G||_1 is the largest column sum; one product forms every column sum
    # of a stack several times faster than numpy's sum over an axis
    return floor > 0 and floor >= _SQRT_EPS * math.sqrt(K) * (np.ones(K) @ np.abs(G)).max()


def _solve_nonneg(G: np.ndarray, rhs: np.ndarray, cert: float | bool = 0.0) -> np.ndarray:
    """`_solve_normal`'s solution clamped to the nonnegative orthant, entry
    by entry: the one place the estimators impose c >= 0."""
    return np.maximum(_solve_normal(G, rhs, cert), 0.0)


def two_step_reconstruct(
    c_obs: np.ndarray,
    schedule: Schedule,
    sigma_v2: float,
) -> np.ndarray:
    """Right-invert the compound allocation (D = I) on the slot means
    c_obs (M x N*Ttr), clamped to c >= 0:
    C = max((c_obs - sigma_v2) Pi^T (Pi Pi^T)^{-1}, 0), (M x K).

    Requires the compound allocation matrix to have full row rank K;
    otherwise the channel variances are not uniquely reconstructible.
    """
    if not schedule.identifiable:
        raise IdentifiabilityError(
            f"compound allocation has rank {schedule.rank} < K={schedule.K}; channel "
            f"variances cannot be uniquely reconstructed"
        )
    return shared_scaling_estimate(c_obs, schedule.compound, None, sigma_v2)


def shared_scaling_estimate(
    B_mean: np.ndarray,
    Pi_tilde: np.ndarray,
    D: np.ndarray | None,
    sigma_v2: float,
) -> np.ndarray:
    """Weighted right inverse shared by all antenna rows, clamped to c >= 0.

    C = max((B_mean - sigma_v2) D Pi^T (Pi D Pi^T)^{-1}, 0), (M x K), for a
    positive diagonal D (given as a vector of slot weights; None means
    identity).  With D = identity this is the two-step reconstruction.
    """
    Pi = np.asarray(Pi_tilde, dtype=float)
    B_mean = np.asarray(B_mean)
    if B_mean.shape[-1] != Pi.shape[1]:
        raise ValueError(
            f"need one observation per slot ({Pi.shape[1]}), got shape {B_mean.shape}"
        )
    d = np.ones(Pi.shape[1]) if D is None else np.asarray(D, dtype=float)
    if d.shape != (Pi.shape[1],):
        raise ValueError(f"D must be a length-{Pi.shape[1]} weight vector")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("D must be strictly positive and finite")
    return _solve_nonneg(*_normal_equations(Pi, d, B_mean - sigma_v2))


def _slot_powers(c: np.ndarray, Pi: np.ndarray, sigma_v2: float) -> tuple[np.ndarray, float]:
    """Slot powers p = Pi^T c + sigma_v2, one per slot of each variance
    vector c (..., K), and their minimum.  A power that is not positive,
    NaN included, raises ValueError; a problem with no slots passes, with
    minimum inf."""
    # written as a stack of matrix-vector products, so every row of a stack
    # (..., K) rounds as Pi^T @ c does for that row alone
    powers = (Pi.T @ np.asarray(c, float)[..., None])[..., 0] + sigma_v2
    low = float(powers.min(initial=np.inf))
    if not low > 0:
        raise ValueError("all slot powers must be strictly positive")
    return powers, low


def _slot_weights(powers: np.ndarray, low: float) -> tuple[np.ndarray, float]:
    """Slot weights d = 1 / p^2 at the checked slot powers p of
    `_slot_powers` and their minimum, and the weights' spread d_max / d_min
    = (max p / min p)^2, which per-row ML tests against `_gram_kappa`: the
    two checks reduce the extremes it needs.  A weight below the smallest
    normal float has lost bits, so its spread is inf.  An infinite power
    raises SingularSystemError."""
    high = float(powers.max(initial=0.0))
    if not high < math.inf:
        raise SingularSystemError(
            "slot powers are infinite; weights 1/power^2 are undefined"
        )
    ratio = high / low if high <= _NORMAL_POWER else math.inf
    return powers**-2, ratio * ratio


def _gram_kappa(Pi: np.ndarray) -> tuple[float, float]:
    """kappa(Pi), the largest spread d_max / d_min of slot weights that
    certifies the weighted normal equations Pi D Pi^T of the allocation Pi
    (K, S), and a scale that bounds their entries, (kappa, scale).

    For weights d in [d_min, d_max], G = Pi D Pi^T has lambda_min(G) >=
    d_min lambda_min(Pi Pi^T), since Pi (D - d_min I) Pi^T is positive
    semidefinite, and, for a nonnegative Pi, ||G||_1 <= d_max ||Pi Pi^T||_1.
    So `_solve_normal`'s floor test, lambda_min(G) >= sqrt(eps) sqrt(K)
    ||G||_1, holds whenever d_max / d_min <= kappa = lambda / (2 sqrt(eps)
    sqrt(K) ||Pi Pi^T||_1), for any lower bound lambda on lambda_min(Pi
    Pi^T).  Here lambda = 1 / ||(Pi Pi^T)^-1||_F, within 1.6 times the
    eigenvalue on random schedules, from an inverse that posv, whose LAPACK
    code the solves load anyway, computes (numpy's eigvalsh would map about
    0.8 MB more of LAPACK into the process).  The factor 2 covers the
    rounding of the computed inverse, a few units of roundoff times the
    condition number of Pi Pi^T: kappa >= 1, the least spread there is,
    needs that condition number below 1 / (2 sqrt(eps) sqrt(K)), so the
    error stays below about sqrt(eps K).  The rounding of d and G stays far
    inside the floor test's sqrt(eps) margin.  kappa is 0, certifying
    nothing, when Pi has a negative or non-finite entry or Pi Pi^T is
    singular.

    scale = max(1, ||Pi Pi^T||_1, largest row sum of Pi): times d_max and
    max(1, max |r|), it bounds every entry of G and of Pi D r, and of the
    products that form them.

    The pair depends on Pi's values alone, so the last Pi's is cached: the
    rows of a unit share Pi, and its inverse costs more than the
    certificate saves an ML iteration.
    """
    return _gram_kappa_of(Pi.shape, np.asarray(Pi, np.float64).tobytes())


@functools.lru_cache(maxsize=1)
def _gram_kappa_of(shape: tuple, data: bytes) -> tuple[float, float]:
    Pi = np.frombuffer(data).reshape(shape)
    if Pi.size == 0 or not (np.isfinite(Pi).all() and Pi.min() >= 0):
        return 0.0, math.inf
    gram = Pi @ Pi.T
    norm1 = gram.sum(axis=0).max()  # the Gram of a nonnegative Pi is too
    _, inverse, info = _lapack()[0](gram, np.eye(shape[0]))
    with np.errstate(over="ignore"):  # an inverse too large to square certifies nothing
        bound = 2 * _SQRT_EPS * math.sqrt(shape[0]) * norm1 * np.sqrt((inverse**2).sum())
    kappa = 1.0 / bound if info == 0 and 0 < bound < math.inf else 0.0
    return float(kappa), float(max(1.0, norm1, Pi.sum(axis=1).max()))


def _ml_kappa(Pi: np.ndarray, r: np.ndarray, sigma_v2: float) -> float:
    """`_gram_kappa`'s kappa for one ML row with residuals r = b_m -
    sigma_v2, or 0 when the row cannot prove its systems finite.  Every
    iterate is nonnegative, so on a nonnegative Pi its slot powers are at
    least sigma_v2 and its weights at most sigma_v2^-2; scale max(1,
    max |r|) / sigma_v2^2 below a quarter of the largest float then bounds
    every G and rhs the row forms, rounding included.  A non-finite r fails
    that test, so its solves keep the finiteness scan that refuses it."""
    kappa, scale = _gram_kappa(Pi)
    bound = float(np.abs(r).max(initial=1.0)) * scale
    return kappa if bound < _HUGE * float(sigma_v2) * float(sigma_v2) else 0.0


def _llf_at(powers: np.ndarray, b_m: np.ndarray) -> np.ndarray:
    # the LLF at checked slot powers, one value per row of a stack
    return (b_m / powers + np.log(powers)).sum(axis=-1)


def negative_llf(
    c_m: np.ndarray, b_m: np.ndarray, Pi: np.ndarray, sigma_v2: float
) -> float | np.ndarray:
    """Negative log-likelihood of one antenna row's squared observations.

    sum_i [ b_i / p_i + log p_i ] with slot powers p_i = pi_i^T c_m + sigma_v2.
    c_m is one variance vector (K,), giving a float, or a stack of them
    (..., K), giving one value per vector, each bit for bit the value of
    its own call.  A slot power anywhere that is not positive, NaN
    included, raises ValueError.
    """
    powers, _ = _slot_powers(c_m, np.asarray(Pi, float), sigma_v2)
    values = _llf_at(powers, b_m)
    return float(values) if values.ndim == 0 else values


def llf_gradient(
    c_m: np.ndarray, b_m: np.ndarray, Pi: np.ndarray, sigma_v2: float
) -> np.ndarray:
    """Gradient of `negative_llf` with respect to the variance vector."""
    Pi = np.asarray(Pi, dtype=float)
    powers, _ = _slot_powers(c_m, Pi, sigma_v2)
    return Pi @ ((powers - b_m) / powers**2)


def _small_step(new: np.ndarray, old: np.ndarray, tol: float) -> bool:
    # the stopping rule of both ML modes, for nonnegative iterates
    return np.abs(new - old).max() <= tol * (1.0 + old.max())


_HALVINGS = 10
_STEPS = 2.0 ** -np.arange(1, _HALVINGS + 1)[:, None]


def _halvings(c_new: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The backtrack's halvings c + 2^-j (c_new - c), j = 1..10, as a (10,
    K) stack.  For nonnegative c and c_new every halving is nonnegative: the
    rounded difference is at least -c, and c plus a fraction 2^-j <= 1/2 of
    it rounds to at least c - c = 0."""
    return c + _STEPS * (c_new - c)


def ml_fixed_point(
    b_m: np.ndarray,
    Pi: np.ndarray,
    sigma_v2: float,
    init: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> MLFixedPointResult:
    """Fixed-point iteration on the stationarity condition of the LLF from
    the caller's nonnegative (K,) warm start `init` (the two-step solution
    in `estimate_all_rows_ml`).

    Each step is `_solve_nonneg` on the weighted normal equations with
    slot weights d_i = 1 / slot_power_i^2 frozen at the previous iterate.
    An iterate's slot powers are computed and checked once, before the LLF
    takes their log, and give its LLF, the next weights and their spread
    d_max / d_min.  A step whose spread is below `_ml_kappa`'s kappa, which
    the schedule's Gram Pi Pi^T fixes once per row, is certified: its solve
    skips the condition estimate and the finiteness scan.  If the LLF
    increases, the step backtracks to the first of the halvings c + 2^-j
    (c_new - c) toward the previous iterate c, j = 1..10, that does not
    increase it.  One stacked `negative_llf` call scores the ten halvings
    of `_halvings`, so a row calls `negative_llf` once at the warm start
    and once per backtrack.  The cost is neither convex nor quasi-convex,
    so this only safeguards against divergence without moving the fixed
    points.

    Convergence requires the step rule of `_small_step`, ||c_new -
    c_old||_inf <= tol * (1 + ||c_old||_inf), and, at interior iterates, a
    certified gradient norm <= 10 * tol.

    b_m is normally one row of slot means with Pi the compound allocation;
    the gradient certificate is then per pass of the schedule and does not
    depend on the window length.  Raw squared observations with Pi tiled S
    times have the same minimisers but an S times larger gradient.  The
    noise power sigma_v2 must be > 0, so every iterate (c >= 0) has slot
    powers of at least sigma_v2 and a finite LLF.
    """
    Pi = np.asarray(Pi, dtype=float)
    b_m = np.asarray(b_m, dtype=float)
    K = Pi.shape[0]
    if b_m.shape != (Pi.shape[1],):
        raise ValueError(
            f"b_m must hold one observation per slot ({Pi.shape[1]}), "
            f"got shape {b_m.shape}"
        )
    if not sigma_v2 > 0:
        raise ValueError(f"sigma_v2 must be > 0, got {sigma_v2}")
    c = np.array(init, dtype=float)
    if c.shape != (K,) or not (c >= 0).all():
        raise ValueError("init must be a nonnegative length-K vector")

    r = b_m - sigma_v2
    kappa = _ml_kappa(Pi, r, sigma_v2)
    # the public `negative_llf` scores the warm start and each backtrack:
    # perfbench/tracing.py counts ML's LLF evaluations through it
    weights, spread = _slot_weights(*_slot_powers(c, Pi, sigma_v2))
    obj = negative_llf(c, b_m, Pi, sigma_v2)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        c_new = _solve_nonneg(*_normal_equations(Pi, weights, r), spread < kappa)
        # the iterate's powers are checked before its LLF takes their log
        powers, low = _slot_powers(c_new, Pi, sigma_v2)
        weights_new, spread_new = _slot_weights(powers, low)
        obj_new = float(_llf_at(powers, b_m))
        if obj_new > obj:
            # backtrack toward the previous iterate while it helps; when no
            # halving descends, take the full step anyway: the clamped fixed
            # point may sit slightly uphill of the path minimum, and the map
            # stays bounded for positive noise power.  Every iterate, full
            # step and halving alike, is nonnegative, so its slot powers are
            # at least sigma_v2 > 0 and one stacked LLF call scores all the
            # halvings.
            halvings = _halvings(c_new, c)
            values = negative_llf(halvings, b_m, Pi, sigma_v2)
            first = (values <= obj).argmax()
            if values[first] <= obj:
                c_new, obj_new = halvings[first], float(values[first])
                weights_new, spread_new = _slot_weights(*_slot_powers(c_new, Pi, sigma_v2))

        # an interior iterate must also certify stationarity
        converged = bool(_small_step(c_new, c, tol) and (
            not (c_new > 0).all()
            or np.abs(llf_gradient(c_new, b_m, Pi, sigma_v2)).max() <= 10 * tol))
        c, obj, weights, spread = c_new, obj_new, weights_new, spread_new
        if converged:
            break

    return MLFixedPointResult(c, iterations, converged)


def estimate_all_rows_ml(
    B: np.ndarray,
    Pi: np.ndarray,
    sigma_v2: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Run `ml_fixed_point` independently on every antenna row.

    Returns (C_hat (M x K), converged (M,) bool).  The rows are independent
    problems; results do not depend on the order in which they are solved.
    A row that stops at max_iter is flagged, not an error.
    """
    Bm = np.asarray(B, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    # shared warm start: unweighted right inverse for all rows at once
    init_all = shared_scaling_estimate(Bm, Pi, None, sigma_v2)

    rows = [ml_fixed_point(b, Pi, sigma_v2, init=c, tol=tol, max_iter=max_iter)
            for b, c in zip(Bm, init_all)]
    C_hat = np.array([res.c_hat for res in rows]).reshape(init_all.shape)
    return C_hat, np.array([res.converged for res in rows], dtype=bool)


def shared_scaling_fixed_point(
    B: np.ndarray,
    Pi: np.ndarray,
    sigma_v2: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch variant with one scaling matrix shared by all antenna rows.

    Returns (C_hat (M x K), converged (M,) bool), the rows' flags all equal:
    the rows stop together.  The shared slot weights are rebuilt from the
    antenna-averaged variance estimate, trading some accuracy for a single
    K x K solve per sweep.  Each step is `shared_scaling_estimate` at the
    weights of the antenna mean.  Stopping at max_iter is flagged, not an
    error.
    """
    Pi = np.asarray(Pi, dtype=float)
    C = shared_scaling_estimate(B, Pi, None, sigma_v2)
    for _ in range(max_iter):
        d, _ = _slot_weights(*_slot_powers(C.mean(axis=0), Pi, sigma_v2))
        C_new = shared_scaling_estimate(B, Pi, d, sigma_v2)
        if _small_step(C_new, C, tol):
            return C_new, np.ones(len(C_new), dtype=bool)
        C = C_new
    return C, np.zeros(len(C), dtype=bool)


def adaptive_update(
    Xi: np.ndarray,
    psi: np.ndarray,
    A: np.ndarray,
    d: np.ndarray,
    r: np.ndarray,
    lam: float,
    floor: float = 0.0,
) -> np.ndarray:
    """One interval of the adaptive estimator, for every row of the state.

    Decays the accumulated normal equations Xi (..., K, K) and psi (..., K)
    by the forgetting factor lam and adds the interval's, in place:
    Xi <- lam Xi + A D A^T and psi <- lam psi + A D r, for the interval's
    (K, Ttr) one-hot allocation A = `schedule.allocations[n]`, slot weights
    d and residuals r = b - sigma_v2 of each row's squared observations b
    (..., Ttr).  The leading shape of r must be the state's.  Returns the
    new estimate, `_solve_nonneg(Xi, psi, floor)`, (..., K), where floor
    is a lower bound on the smallest eigenvalue of every updated Xi: the
    added A D A^T is positive semidefinite, so a bound f on the old Xi
    gives lam f on the new one.  A system that is singular or indefinite
    raises SingularSystemError naming its row of the state.
    """
    rows = psi.shape[:-1]
    if A.shape[0] != psi.shape[-1]:
        raise ValueError(f"allocation has K={A.shape[0]}, state has K={psi.shape[-1]}")
    if r.shape != rows + (A.shape[1],):
        raise ValueError(
            f"need one squared observation per pilot ({A.shape[1]}) for each "
            f"row of the state {rows}, got shape {r.shape}"
        )
    G, rhs = _normal_equations(A, d, r)
    Xi *= lam
    Xi += G
    psi *= lam
    psi += rhs
    return _solve_nonneg(Xi, psi, floor)


def adaptive_estimate(
    B: np.ndarray, schedule: Schedule, sigma_v2: float, lam: float
) -> np.ndarray:
    """The adaptive estimator over a window of whole intervals, (M x K).

    B (M x T*Ttr) holds the squared observations of T intervals, interval t
    taken under allocation t % N.  Every row starts from the prior Xi = I,
    psi = 0, c = 1; each interval then weights its slots by `_slot_weights`
    at the `_slot_powers` of the previous estimate and makes one
    `adaptive_update` with forgetting factor lam in (0, 1].

    Every added A D A^T is positive semidefinite, so the decayed prior
    keeps Xi >= lam^(t+1) I after interval t, and update t passes that
    floor on.  Rounding in the accumulation moves the smallest eigenvalue
    by at most about 2 (t+1) u ||Xi||_1, for unit roundoff u, far inside
    the sqrt(eps) margin of `_solve_normal`'s certificate.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")
    Ttr, K = schedule.Ttr, schedule.K
    M, total = B.shape
    if total % Ttr != 0:
        raise ValueError(
            f"{total} observation slots do not make whole intervals of Ttr={Ttr}"
        )
    Xi = np.zeros((M, K, K)) + np.eye(K)
    psi = np.zeros((M, K))
    c = np.ones((M, K))
    for t in range(total // Ttr):
        A = schedule.allocations[t % schedule.N]
        d, _ = _slot_weights(*_slot_powers(c, A, sigma_v2))
        c = adaptive_update(Xi, psi, A, d, B[:, t * Ttr : (t + 1) * Ttr] - sigma_v2, lam,
                            floor=lam ** (t + 1))
    return c
