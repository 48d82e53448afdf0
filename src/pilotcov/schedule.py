"""Pilot schedules and their identifiability properties.

A schedule is one integer array: pilots[n, k] is the pilot (one of Ttr
orthonormal sequences) of user k in coherence interval n.  The one-hot
allocation of interval n is the K x Ttr matrix np.eye(Ttr)[pilots[n]].
Reusing the same allocation in every coherence interval makes the
variance-reconstruction problem ill-posed; iterating through a schedule
of distinct allocations makes the compound (horizontally stacked)
allocation matrix full row rank and the problem well-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentifiabilityError, InfeasibleConstraintError, SingularSystemError

_MAX_REDRAWS = 100

__all__ = [
    "Schedule",
    "min_schedule_length",
    "default_schedule_length",
    "check_random_schedule",
    "make_random_schedule",
    "rank_and_condition",
    "save_schedule",
    "load_schedule",
]


@dataclass(frozen=True, eq=False)
class Schedule:
    """The (N, K) pilot indices of a schedule over Ttr pilots.

    Derived once, at construction: the one-hot `allocations` (N, K, Ttr),
    their horizontal concatenation `compound` (K, N * Ttr), its
    `rank_and_condition` and `identifiable`, the one test of rank == K:
    only then are the per-user variances uniquely reconstructible.
    Schedules compare and hash by identity: a field-wise `==` on arrays has
    no truth value.
    """

    pilots: np.ndarray  # (N, K) integers in [0, Ttr)
    Ttr: int
    allocations: np.ndarray = field(init=False, repr=False)
    compound: np.ndarray = field(init=False, repr=False)
    rank: int = field(init=False)
    cond: float = field(init=False)
    identifiable: bool = field(init=False)

    def __post_init__(self) -> None:
        pilots = np.array(self.pilots)
        if pilots.ndim != 2 or pilots.size == 0:
            raise ValueError(
                f"pilots must be a non-empty 2-D array, got shape {pilots.shape}")
        if not np.issubdtype(pilots.dtype, np.integer):
            raise ValueError(f"pilot indices must be integers, got dtype {pilots.dtype}")
        if np.any(pilots < 0) or np.any(pilots >= self.Ttr):
            raise ValueError(f"pilot indices must lie in [0, {self.Ttr})")
        object.__setattr__(self, "pilots", pilots)
        # a contiguous array, not a strided view of compound: a product with
        # allocations[n] then takes the BLAS path of a plain (K, Ttr) matrix
        object.__setattr__(self, "allocations", np.eye(self.Ttr)[pilots])
        object.__setattr__(self, "compound", np.hstack(self.allocations))
        rank, cond = rank_and_condition(self)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "identifiable", rank == self.K)

    @property
    def K(self) -> int:
        return self.pilots.shape[1]

    @property
    def N(self) -> int:
        return self.pilots.shape[0]


def min_schedule_length(K: int, Ttr: int) -> int:
    """Smallest number of distinct allocations that can make the compound
    matrix full row rank when every user is served in every interval.

    With one pilot there is nothing to permute: serving all users each
    interval then pins the compound rank at 1.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if Ttr < 1:
        raise ValueError(f"Ttr must be >= 1, got {Ttr}")
    if Ttr == 1:
        raise IdentifiabilityError(
            "with a single pilot and all users served each interval the "
            "compound allocation has rank 1; at least two pilots are needed"
        )
    return math.ceil((K - 1) / (Ttr - 1))


def default_schedule_length(K: int, Ttr: int) -> int:
    """Schedule length used when none is given, by `schedule generate` and
    by a sweep config without N: two allocations more than the minimum."""
    return min_schedule_length(K, Ttr) + 2


def check_random_schedule(K: int, Ttr: int, N: int, num_cells: int,
                          require_full_rank: bool | None = None) -> bool:
    """Refuse inputs no random schedule of `make_random_schedule` can
    satisfy, and return whether its draws must be full rank (default: N
    is at least the minimum schedule length)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if num_cells < 1 or K % num_cells != 0:
        raise ValueError(f"K={K} users cannot be split into {num_cells} equal cells")
    users_per_cell = K // num_cells
    if users_per_cell > Ttr:
        raise InfeasibleConstraintError(
            f"{users_per_cell} users per cell cannot use distinct "
            f"pilots when only Ttr={Ttr} pilots are available"
        )
    if require_full_rank is None:
        require_full_rank = Ttr >= 2 and N >= min_schedule_length(K, Ttr)
    if require_full_rank and num_cells >= 2 and users_per_cell == Ttr:
        # each cell then uses every pilot exactly once per interval, so
        # differences of cell indicators annihilate every allocation and
        # the compound rank is capped at K - (num_cells - 1)
        raise IdentifiabilityError(
            f"with {users_per_cell} users per cell and Ttr={Ttr} "
            f"every cell occupies all pilots each interval; the compound "
            f"rank can never reach K={K}"
        )
    return require_full_rank


def make_random_schedule(
    K: int,
    Ttr: int,
    N: int,
    num_cells: int,
    rng: np.random.Generator,
    *,
    require_full_rank: bool | None = None,
) -> Schedule:
    """Draw N random allocations with same-cell users on distinct pilots.

    Cells are contiguous blocks of K // num_cells users; K must split
    evenly.  When `require_full_rank` (default: N is at least the minimum
    schedule length), rank-deficient draws are rejected and redrawn up to
    100 times before raising IdentifiabilityError, which names the default
    length: near the minimum length few draws may be full rank.  Pass
    `require_full_rank=False` to obtain a single unfiltered draw, e.g. to
    measure how often random schedules happen to be identifiable.
    """
    require_full_rank = check_random_schedule(K, Ttr, N, num_cells, require_full_rank)
    for _ in range(_MAX_REDRAWS + 1):
        # uniform random injection, interval by interval and cell by cell:
        # members of one cell get distinct pilots
        cells = [rng.permutation(Ttr)[: K // num_cells]
                 for _ in range(N) for _ in range(num_cells)]
        schedule = Schedule(np.reshape(cells, (N, K)), Ttr)
        if not require_full_rank or schedule.identifiable:
            return schedule
    # e.g. at the minimum length with one user per cell and Ttr = K, a draw
    # is full rank with probability K!/K^K
    raise IdentifiabilityError(
        f"no full-rank schedule found in {_MAX_REDRAWS + 1} draws "
        f"(K={K}, Ttr={Ttr}, N={N}): random draws of this length are rarely "
        f"full rank; use a longer schedule, such as the default length "
        f"N={default_schedule_length(K, Ttr)}"
    )


def rank_and_condition(schedule: Schedule) -> tuple[int, float]:
    """Numerical rank and condition number of the compound allocation.

    Singular values below max_dim * eps * s_max count as zero; the
    condition number is taken over the nonzero singular values.  A rank
    above the structural bound Ttr + (N - 1)(Ttr - 1) can only come from
    a failed SVD and raises SingularSystemError.
    """
    s = np.linalg.svd(schedule.compound, compute_uv=False)
    tol = max(schedule.compound.shape) * np.finfo(float).eps * s[0]
    nonzero = s[s > tol]
    rank = int(nonzero.size)
    cond = float(nonzero[0] / nonzero[-1])
    # with one-hot rows every user is served each interval, so adding an
    # allocation raises the rank by at most Ttr - 1
    bound = schedule.Ttr + (schedule.N - 1) * (schedule.Ttr - 1)
    if rank > bound:
        raise SingularSystemError(
            f"numerical rank {rank} of the compound allocation exceeds its "
            f"structural bound {bound}"
        )
    return rank, cond


def save_schedule(schedule: Schedule, path: str) -> None:
    """Write one line per interval: K space-separated pilot indices (0-based)."""
    lines = [" ".join(str(p) for p in row) for row in schedule.pilots]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_schedule(path: str, Ttr: int | None = None) -> Schedule:
    """Read the text format written by `save_schedule`.

    If `Ttr` is omitted it is inferred as max pilot index + 1.
    """
    rows: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError(f"empty schedule file: {path}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("all intervals must list the same number of users")
    pilots = np.array(rows)
    return Schedule(pilots, int(pilots.max()) + 1 if Ttr is None else Ttr)
