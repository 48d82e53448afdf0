"""Experiment driver: scenario -> schedule -> training -> estimators -> rate.

Sweeps either the training window length T or the pilot count Ttr and
records, per (sweep value, estimator, seed): the Monte-Carlo uplink
sum-rate behind an RZF filter, the relative covariance estimation error,
and the estimator runtime.  Records are emitted as CSV.

Every work unit derives its own RNG streams from (seed_base, scenario
seed, trial), so results are reproducible and independent of execution
order; sweep points of one trial share their ground truth and evaluation
randomness so curves across the sweep are directly comparable.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import draw_channels, observe, squared_rows
from .errors import ConfigError, IdentifiabilityError
from .estimators import (
    AdaptiveState,
    CovEstimate,
    adaptive_update,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    shared_scaling_fixed_point,
    two_step_reconstruct,
)
from .linklevel import ls_channel_estimate, mmse_channel_estimate, rzf_filter, uplink_sum_rate
from .scenario import (
    BandLimited,
    CovarianceSet,
    ProfileKind,
    RandomSparse,
    ScenarioConfig,
    Uniform,
    genie_covariances,
    generate_covariance_set,
)
from .schedule import (
    Schedule,
    load_schedule,
    make_example_schedule_442,
    make_random_schedule,
    min_schedule_length,
    rank_and_condition,
)

__all__ = [
    "ESTIMATOR_NAMES",
    "UNIDENTIFIABLE",
    "ExperimentConfig",
    "Record",
    "ExperimentResult",
    "load_experiment_config",
    "run_experiment",
    "emit_csv",
    "load_result_csv",
]

ESTIMATOR_NAMES = ("genie", "ml", "two_step", "adaptive", "ls")
UNIDENTIFIABLE = "unidentifiable"

CSV_HEADER = "axis,estimator,seed,sum_rate,cov_rmse,runtime_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep experiment."""

    scenario: ScenarioConfig
    profile: ProfileKind
    schedule_mode: str = "random"          # random | example442 | imported
    schedule_n: int | None = None          # random mode; None -> min length + 2
    schedule_path: str | None = None       # imported mode
    estimators: tuple[str, ...] = ("genie", "ls")
    sweep_axis: str = "T"
    sweep_values: tuple[int, ...] = (60,)
    trials: int = 1
    T: int = 60                            # training window when sweeping Ttr
    t_coh: int = 200                       # coherence block length (channel uses)
    eval_intervals: int = 10
    lam: float = 0.99
    tol: float = 1e-8
    max_iter: int = 200
    ml_scaling: str = "per_row"            # per_row | shared
    seed_base: int = 0

    def __post_init__(self) -> None:
        validate_experiment_config(self)


def _load_imported_schedule(path: str, Ttr: int) -> Schedule:
    try:
        return load_schedule(path, Ttr=Ttr)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[schedule] path {path}: {exc}") from exc


def _schedule_length(cfg: ExperimentConfig, Ttr: int, K: int) -> int:
    if cfg.schedule_mode == "example442":
        return 3
    if cfg.schedule_mode == "imported":
        return _load_imported_schedule(cfg.schedule_path, Ttr).N
    if cfg.schedule_n is not None:
        return cfg.schedule_n
    try:
        return min_schedule_length(K, Ttr) + 2
    except IdentifiabilityError as exc:
        raise ConfigError(f"[schedule] {exc}") from exc


def validate_experiment_config(cfg: ExperimentConfig) -> None:
    """Surface infeasible settings before any simulation is run."""
    if cfg.sweep_axis not in ("T", "Ttr"):
        raise ConfigError(f"[sweep] axis must be T or Ttr, got {cfg.sweep_axis!r}")
    if not cfg.sweep_values or any(v < 1 for v in cfg.sweep_values):
        raise ConfigError("[sweep] values must be positive integers")
    if cfg.trials < 1:
        raise ConfigError("[sweep] trials must be >= 1")
    if cfg.schedule_mode not in ("random", "example442", "imported"):
        raise ConfigError(
            f"[schedule] mode must be random, example442 or imported, "
            f"got {cfg.schedule_mode!r}"
        )
    if cfg.schedule_mode == "imported" and not cfg.schedule_path:
        raise ConfigError("[schedule] path is required for imported mode")
    if cfg.schedule_n is not None and cfg.schedule_n < 1:
        raise ConfigError("[schedule] N must be >= 1")
    unknown = set(cfg.estimators) - set(ESTIMATOR_NAMES)
    if unknown or not cfg.estimators:
        raise ConfigError(
            f"[estimation] estimators must be a non-empty subset of "
            f"{ESTIMATOR_NAMES}, got {cfg.estimators}"
        )
    if not 0.0 < cfg.lam <= 1.0:
        raise ConfigError("[estimation] lambda must be in (0, 1]")
    if cfg.tol <= 0 or cfg.max_iter < 1:
        raise ConfigError("[estimation] tol must be > 0 and max_iter >= 1")
    if cfg.ml_scaling not in ("per_row", "shared"):
        raise ConfigError("[estimation] ml_scaling must be per_row or shared")
    if cfg.eval_intervals < 1:
        raise ConfigError("[link] eval_intervals must be >= 1")
    if cfg.scenario.seed < 0 or cfg.seed_base < 0:
        raise ConfigError(
            f"[scenario] seed and the seed base must be >= 0, got "
            f"{cfg.scenario.seed} and {cfg.seed_base}"
        )
    if cfg.scenario.sigma_v2 <= 0:
        raise ConfigError(
            "[scenario] sigma_v2 must be > 0: the MMSE evaluation needs "
            "strictly positive slot variances"
        )

    scn = cfg.scenario
    for v in cfg.sweep_values:
        Ttr = v if cfg.sweep_axis == "Ttr" else scn.Ttr
        T = cfg.T if cfg.sweep_axis == "Ttr" else v
        if not 1 <= Ttr <= scn.K:
            raise ConfigError(f"swept Ttr={Ttr} outside [1, K={scn.K}]")
        if Ttr >= cfg.t_coh:
            raise ConfigError(
                f"[link] T_coh={cfg.t_coh} must exceed Ttr={Ttr}, otherwise "
                f"no channel uses remain for data"
            )
        if cfg.schedule_mode == "example442" and (scn.K != 4 or Ttr != 2):
            raise ConfigError(
                "[schedule] example442 requires K=4 and Ttr=2 "
                f"(got K={scn.K}, Ttr={Ttr})"
            )
        if cfg.schedule_mode == "random" and scn.users_per_cell > Ttr:
            raise ConfigError(
                f"{scn.users_per_cell} users per cell cannot use distinct "
                f"pilots with Ttr={Ttr}"
            )
        N = _schedule_length(cfg, Ttr, scn.K)
        if T % N != 0:
            raise ConfigError(
                f"training window T={T} must be a multiple of the schedule "
                f"length N={N} so slot statistics see whole passes"
            )


@dataclass(frozen=True)
class Record:
    """One (sweep value, estimator, seed) result row.

    status is "ok" or "unidentifiable"; in the latter case sum_rate and
    cov_rmse carry no numbers.  cov_rmse is None for estimators that do
    not produce covariance estimates (LS).
    """

    axis_value: int
    estimator: str
    seed: int
    sum_rate: float | None
    cov_rmse: float | None
    runtime_ms: float
    status: str = "ok"


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[Record, ...]


def _build_schedule(
    cfg: ExperimentConfig,
    scn: ScenarioConfig,
    rng: np.random.Generator,
) -> Schedule:
    if cfg.schedule_mode == "example442":
        return make_example_schedule_442()
    if cfg.schedule_mode == "imported":
        sched = _load_imported_schedule(cfg.schedule_path, scn.Ttr)
        if sched.K != scn.K:
            raise ConfigError(
                f"imported schedule covers {sched.K} users, scenario has {scn.K}"
            )
        return sched
    N = _schedule_length(cfg, scn.Ttr, scn.K)
    return make_random_schedule(scn.K, scn.Ttr, N, scn.grouping(), rng)


def _estimate_adaptive(
    B: np.ndarray, schedule: Schedule, sigma_v2: float, lam: float
) -> CovEstimate:
    M = B.shape[0]
    K, Ttr, N = schedule.K, schedule.Ttr, schedule.N
    T = B.shape[1] // Ttr
    C_hat = np.empty((M, K))
    for m in range(M):
        state = AdaptiveState.initialize(K, lam)
        for t in range(T):
            alloc = schedule.allocations[t % N]
            state = adaptive_update(
                state, alloc, B[m, t * Ttr : (t + 1) * Ttr], sigma_v2
            )
        C_hat[m] = state.c_hat
    return CovEstimate(C_hat)


def _estimate_covariances(
    name: str,
    cfg: ExperimentConfig,
    truth: CovarianceSet,
    B: np.ndarray,
    schedule: Schedule,
    sigma_v2: float,
    identifiable: bool,
) -> CovEstimate | None:
    """Covariance estimate for one estimator, or None when it has none."""
    if name == "ls":
        return None
    if name == "genie":
        return CovEstimate(genie_covariances(truth).C)
    if name == "adaptive":
        return _estimate_adaptive(B, schedule, sigma_v2, cfg.lam)
    if not identifiable:
        raise _Unidentifiable()
    obs = estimate_obs_covariances(B, schedule)
    if name == "two_step":
        return two_step_reconstruct(obs, schedule, sigma_v2)
    if name == "ml":
        ml = (shared_scaling_fixed_point if cfg.ml_scaling == "shared"
              else estimate_all_rows_ml)
        return ml(obs.c_obs, schedule.compound, sigma_v2,
                  tol=cfg.tol, max_iter=cfg.max_iter)
    raise ConfigError(f"unknown estimator {name!r}")


class _Unidentifiable(Exception):
    """Internal: schedule rank < K, record a marker instead of numbers."""


def _serving_estimates(
    Phi: np.ndarray,
    alloc,
    served: np.ndarray,
    C_used: np.ndarray | None,
    sigma_v2: float,
) -> np.ndarray:
    """Channel estimates of the served users from one training phase; MMSE
    divides by the slot variances C Pi + sigma_v2, LS needs no C_used."""
    pilots = alloc.pilot_of_user[served]
    if C_used is None:
        return ls_channel_estimate(Phi[:, pilots])
    slot_var = C_used @ alloc.assignment + sigma_v2
    return mmse_channel_estimate(
        Phi[:, pilots], C_used[:, served], slot_var[:, pilots]
    )


def _run_unit(cfg: ExperimentConfig, axis_value: int, trial: int,
              measure_runtime: bool) -> list[Record]:
    scn = cfg.scenario
    if cfg.sweep_axis == "Ttr":
        scn = replace(scn, Ttr=axis_value)
        T = cfg.T
    else:
        T = axis_value

    # the axis value is deliberately left out of the seed material: sweep
    # points then share the ground truth, schedule draw and evaluation
    # channels of each trial, so curves differ only through the training
    # data and the swept quantity itself (channels and noise get separate
    # streams because noise consumption depends on Ttr)
    ss = np.random.SeedSequence([cfg.seed_base, scn.seed, trial])
    rng_cov, rng_sched, rng_train, rng_eval_chan, rng_eval_noise = map(
        np.random.default_rng, ss.spawn(5)
    )

    truth = generate_covariance_set(scn, cfg.profile, rng_cov)
    grouping = scn.grouping()
    schedule = _build_schedule(cfg, scn, rng_sched)
    rank, _ = rank_and_condition(schedule)
    identifiable = rank == scn.K

    blocks = []
    for t in range(T):
        alloc = schedule.allocations[t % schedule.N]
        H = draw_channels(truth, rng_train)
        blocks.append(observe(H, alloc, scn.sigma_v2, rng_train))
    B = squared_rows(blocks)

    # evaluation phases are shared by all estimators (common random numbers)
    eval_draws = []
    for e in range(cfg.eval_intervals):
        alloc = schedule.allocations[e % schedule.N]
        H = draw_channels(truth, rng_eval_chan)
        eval_draws.append((alloc, H, observe(H, alloc, scn.sigma_v2, rng_eval_noise)))

    served = grouping.members(0)
    overhead = 1.0 - scn.Ttr / cfg.t_coh
    truth_norm = np.linalg.norm(truth.C)

    records = []
    for name in cfg.estimators:
        start = time.perf_counter()
        try:
            est = _estimate_covariances(
                name, cfg, truth, B, schedule, scn.sigma_v2, identifiable
            )
        except _Unidentifiable:
            records.append(Record(axis_value, name, trial, None, None, 0.0,
                                  status=UNIDENTIFIABLE))
            continue
        runtime_ms = (time.perf_counter() - start) * 1e3 if measure_runtime else 0.0

        if est is None:
            cov_rmse = None
        elif truth_norm == 0.0:
            cov_rmse = float(np.linalg.norm(est.C_hat - truth.C))
        else:
            cov_rmse = float(np.linalg.norm(est.C_hat - truth.C) / truth_norm)

        rates = np.empty(len(eval_draws))
        for i, (alloc, H, Phi) in enumerate(eval_draws):
            C_used = None if est is None else est.C_hat
            H_hat = _serving_estimates(Phi, alloc, served, C_used, scn.sigma_v2)
            W = rzf_filter(H_hat, scn.sigma_v2)
            rates[i] = uplink_sum_rate(
                W, H, scn.sigma_v2, served=served, overhead=overhead
            )
        records.append(Record(axis_value, name, trial, float(rates.mean()),
                              cov_rmse, runtime_ms))
    return records


def run_experiment(
    cfg: ExperimentConfig,
    *,
    measure_runtime: bool = False,
) -> ExperimentResult:
    """Run the full sweep.  Output is deterministic given the config (with
    `measure_runtime=False`, the default, runtime_ms is reported as 0 so
    emitted CSV bytes are reproducible)."""
    validate_experiment_config(cfg)
    return ExperimentResult(tuple(
        r
        for v in cfg.sweep_values
        for s in range(cfg.trials)
        for r in _run_unit(cfg, v, s, measure_runtime)
    ))


def _fmt(value: float | None, status: str) -> str:
    if status == UNIDENTIFIABLE:
        return UNIDENTIFIABLE
    if value is None:
        return ""
    return format(value, ".6g")


def emit_csv(result: ExperimentResult, path: str) -> None:
    """Write records sorted by (axis, estimator, seed), 6 significant digits."""
    rows = sorted(result.records, key=lambda r:(r.axis_value, r.estimator, r.seed))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.axis_value},{r.estimator},{r.seed},"
            f"{_fmt(r.sum_rate, r.status)},{_fmt(r.cov_rmse, r.status)},"
            f"{format(r.runtime_ms, '.6g')}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_cell(token: str) -> tuple[float | None, str]:
    if token == UNIDENTIFIABLE:
        return None, UNIDENTIFIABLE
    if token == "":
        return None, "ok"
    return float(token), "ok"


def load_result_csv(path: str) -> ExperimentResult:
    """Parse a CSV produced by `emit_csv` back into records."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for ln in lines[1:]:
        axis, name, seed, rate_tok, rmse_tok, rt = ln.split(",")
        rate, status = _parse_cell(rate_tok)
        rmse, status2 = _parse_cell(rmse_tok)
        status = UNIDENTIFIABLE if UNIDENTIFIABLE in (status, status2) else "ok"
        records.append(
            Record(int(axis), name, int(seed), rate, rmse, float(rt), status)
        )
    return ExperimentResult(tuple(records))


def _finite_float(sec: configparser.SectionProxy, key: str,
                  fallback: float | None = None) -> float | None:
    """`getfloat` that also rejects nan and inf, which configparser accepts."""
    value = sec.getfloat(key, fallback)
    if value is not None and not np.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value}")
    return value


def _profile_from_section(sec: configparser.SectionProxy) -> ProfileKind:
    kind = sec.get("kind", "uniform").strip().lower()
    try:
        if kind == "uniform":
            return Uniform(power=_finite_float(sec, "power", 1.0))
        if kind == "bandlimited":
            center = sec.getint("center") if "center" in sec else None
            return BandLimited(
                width=sec.getint("width"),
                power=_finite_float(sec, "power", 1.0),
                center=center,
                dynamic_range_db=_finite_float(sec, "dynamic_range_db", 20.0),
            )
        if kind == "random_sparse":
            return RandomSparse(
                support_fraction=_finite_float(sec, "support_fraction"),
                total_power=_finite_float(sec, "total_power", 1.0),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[profile] invalid field: {exc}") from exc
    raise ConfigError(f"[profile] kind must be uniform, bandlimited or "
                      f"random_sparse, got {kind!r}")


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse the key = value configuration file format."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    def need(section: str) -> configparser.SectionProxy:
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section in {path}")
        return cp[section]

    def field(section: str, key: str, getter, default=None, required=False):
        if not cp.has_section(section) or key not in cp[section]:
            if required:
                raise ConfigError(f"[{section}] {key} is required")
            return default
        try:
            return getter(cp[section], key)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    get_int = lambda s, k: s.getint(k)
    get_float = _finite_float
    get_str = lambda s, k: s.get(k).strip()

    try:
        scenario = ScenarioConfig(
            M=field("scenario", "M", get_int, required=True),
            K=field("scenario", "K", get_int, required=True),
            Ttr=field("scenario", "Ttr", get_int, required=True),
            sigma_v2=field("scenario", "sigma_v2", get_float, required=True),
            num_cells=field("scenario", "num_cells", get_int, 1),
            users_per_cell=field("scenario", "users_per_cell", get_int, None),
            seed=field("scenario", "seed", get_int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc

    profile = _profile_from_section(need("profile"))

    estimators = tuple(
        tok.strip()
        for tok in field("estimation", "estimators", get_str, "genie, ls").split(",")
        if tok.strip()
    )
    values_raw = field("sweep", "values", get_str, required=True)
    try:
        sweep_values = tuple(int(tok.strip()) for tok in values_raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: {exc}") from exc

    return ExperimentConfig(
        scenario=scenario,
        profile=profile,
        schedule_mode=field("schedule", "mode", get_str, "random"),
        schedule_n=field("schedule", "N", get_int, None),
        schedule_path=field("schedule", "path", get_str, None),
        estimators=estimators,
        sweep_axis=field("sweep", "axis", get_str, "T"),
        sweep_values=sweep_values,
        trials=field("sweep", "trials", get_int, 1),
        T=field("scenario", "T", get_int, 60),
        t_coh=field("link", "T_coh", get_int, 200),
        eval_intervals=field("link", "eval_intervals", get_int, 10),
        lam=field("estimation", "lambda", get_float, 0.99),
        tol=field("estimation", "tol", get_float, 1e-8),
        max_iter=field("estimation", "max_iter", get_int, 200),
        ml_scaling=field("estimation", "ml_scaling", get_str, "per_row"),
    )
