"""Simulation scenario and ground-truth variance generation.

The base station estimates the channel statistics of all K users (own cell
plus interferers) on M antennas.  All covariance matrices are diagonal, so
the ground truth is a plain (M, K) array C of per-antenna, per-user
variances: C[m, k] is the variance of the channel coefficient of user k at
antenna m.  It is only ever drawn from a profile, whose fields, like a
ScenarioConfig's, are checked when it is built: NaN and inf are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidProfileError

__all__ = [
    "ScenarioConfig",
    "Uniform",
    "BandLimited",
    "RandomSparse",
    "ProfileKind",
    "generate_covariance_set",
    "genie_covariances",
]

# every slot power is at least sigma_v2, so sigma_v2**-2 bounds every slot
# weight: below this it overflows (compared, since 1e-300 ** -2 raises)
_MIN_SIGMA_V2 = float(np.sqrt(np.finfo(float).tiny))


@dataclass(frozen=True)
class ScenarioConfig:
    """Dimensions and noise level of one uplink training scenario.

    M:              base-station antennas
    K:              total users, own cell plus neighbouring cells
    Ttr:            orthonormal pilot sequences per training phase
    sigma_v2:       noise variance (linear scale, finite and at least
                    sqrt of the smallest normal float), assumed known
    num_cells:      number of cells contributing users
    users_per_cell: users per cell; num_cells * users_per_cell == K
    seed:           base RNG seed (>= 0) of everything drawn for the scenario

    Cells are contiguous blocks of users: user k is in cell
    k // users_per_cell, and cell 0 is the served cell.
    """

    M: int
    K: int
    Ttr: int
    sigma_v2: float
    num_cells: int = 1
    users_per_cell: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if not 1 <= self.Ttr <= self.K:
            raise ValueError(f"Ttr must be in [1, K={self.K}], got {self.Ttr}")
        if not _MIN_SIGMA_V2 <= self.sigma_v2 < np.inf:
            raise ValueError(f"sigma_v2 must be finite and > 0, at least "
                             f"{_MIN_SIGMA_V2:.6g} for 1/sigma_v2**2 to be finite, "
                             f"got {self.sigma_v2}")
        if self.num_cells < 1:
            raise ValueError(f"num_cells must be >= 1, got {self.num_cells}")
        if self.users_per_cell is None:
            object.__setattr__(self, "users_per_cell", self.K // self.num_cells)
        if self.num_cells * self.users_per_cell != self.K:
            raise ValueError(
                f"K={self.K} users do not split into {self.num_cells} cells "
                f"of {self.users_per_cell}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _check_power(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise InvalidProfileError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Uniform:
    """Flat variance profile: every antenna sees the same power `power`."""

    power: float = 1.0

    def __post_init__(self) -> None:
        _check_power("power", self.power)


@dataclass(frozen=True)
class BandLimited:
    """Contiguous (wrapping) support of `width` antennas with a raised-cosine
    taper, mimicking limited angular support in the beamspace domain.

    Per-user support centers are drawn uniformly unless `center` fixes
    them at one antenna in [0, M).  Per-user total power is drawn
    log-uniformly over `dynamic_range_db` below `power`, emulating the
    path-loss disparity between own-cell users and interferers.
    """

    width: int
    power: float = 1.0
    center: int | None = None
    dynamic_range_db: float = 20.0

    def __post_init__(self) -> None:
        # both index the antennas, so a float would fail only when drawn
        if not isinstance(self.width, (int, np.integer)) or self.width < 1:
            raise InvalidProfileError(f"width must be an integer >= 1, got {self.width!r}")
        _check_power("power", self.power)
        if self.center is not None and not isinstance(self.center, (int, np.integer)):
            raise InvalidProfileError(f"center must be an integer, got {self.center!r}")
        if self.center is not None and self.center < 0:
            raise InvalidProfileError(f"center must be >= 0, got {self.center}")
        if not 0 <= self.dynamic_range_db < np.inf:
            raise InvalidProfileError(f"dynamic_range_db must be finite and >= 0, "
                                      f"got {self.dynamic_range_db}")

    def check_fits(self, M: int) -> None:
        """Refuse a support wider than M antennas or centered outside them."""
        if self.width > M:
            raise InvalidProfileError(f"width must be in [1, M={M}], got {self.width}")
        if self.center is not None and self.center >= M:
            raise InvalidProfileError(f"center must be in [0, M={M}), got {self.center}")


@dataclass(frozen=True)
class RandomSparse:
    """Random antenna support covering a `support_fraction` of the array;
    each column sums exactly to `total_power`."""

    support_fraction: float
    total_power: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.support_fraction <= 1.0:
            raise InvalidProfileError(
                f"support_fraction must be in (0, 1], got {self.support_fraction}"
            )
        _check_power("total_power", self.total_power)


ProfileKind = Union[Uniform, BandLimited, RandomSparse]


def _bandlimited_column(
    M: int, width: int, center: int, total_power: float
) -> np.ndarray:
    idx = (center - width // 2 + np.arange(width)) % M
    # half-sample offset keeps every tap strictly positive, including width=1
    taper = 1.0 - np.cos(2.0 * np.pi * (np.arange(width) + 0.5) / width)
    col = np.zeros(M)
    col[idx] = taper / taper.sum() * total_power
    return col


def generate_covariance_set(
    config: ScenarioConfig, profile: ProfileKind, rng: np.random.Generator
) -> np.ndarray:
    """Draw the ground-truth (M, K) variance matrix for all users.

    Deterministic given (config, profile, rng state).  Column sums of the
    BandLimited and RandomSparse profiles equal the drawn per-user powers.
    """
    M, K = config.M, config.K
    if isinstance(profile, Uniform):
        C = np.full((M, K), float(profile.power))
    elif isinstance(profile, BandLimited):
        profile.check_fits(M)
        C = np.zeros((M, K))
        for k in range(K):
            center = (
                int(rng.integers(0, M)) if profile.center is None else profile.center
            )
            power_k = profile.power * 10.0 ** (
                -rng.uniform(0.0, profile.dynamic_range_db) / 10.0
            )
            C[:, k] = _bandlimited_column(M, profile.width, center, power_k)
    elif isinstance(profile, RandomSparse):
        n_nz = max(1, round(profile.support_fraction * M))
        C = np.zeros((M, K))
        for k in range(K):
            support = rng.choice(M, size=n_nz, replace=False)
            weights = rng.random(n_nz) + 1e-12
            C[support, k] = weights / weights.sum() * profile.total_power
    else:
        raise InvalidProfileError(f"unknown profile kind: {profile!r}")

    with np.errstate(over="ignore"):  # an infinite norm is refused below
        norm = np.linalg.norm(C)  # estimation errors are relative to it
    if not 0 < norm < np.inf:
        raise InvalidProfileError(f"{profile!r} draws a ground truth of norm {norm}: "
                                  f"its powers underflow or overflow")
    return C


def genie_covariances(C: np.ndarray) -> np.ndarray:
    """Genie baseline: a copy of the true (M, K) variances."""
    return C.copy()
