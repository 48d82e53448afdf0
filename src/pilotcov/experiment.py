"""Experiment driver: scenario -> schedule -> training -> estimators -> rate.

Sweeps either the training window length T or the pilot count Ttr and
records, per (sweep value, estimator, seed): the Monte-Carlo uplink
sum-rate behind an RZF filter, the relative covariance estimation error,
and the estimator runtime.  Records are emitted as CSV.

Every trial derives its RNG streams from (seed_base, scenario seed,
trial), so results are reproducible and independent of execution order;
sweep points of one trial share their ground truth and evaluation
randomness so curves across the sweep are directly comparable.  The
sweep runs trial by trial and draws what its points share once per trial
(see `_trial_draws`), so it gives the records of its values run one at a
time.
"""

from __future__ import annotations

import configparser
import functools
import logging
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .channel import draw_channels, observe, squared_rows
from .errors import ConfigError, _as_config_error
from .estimators import (
    adaptive_estimate,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    shared_scaling_fixed_point,
    two_step_reconstruct,
)
from .linklevel import ls_channel_estimate, mmse_channel_estimate, rzf_filter, uplink_sum_rate
from .scenario import (
    BandLimited,
    ProfileKind,
    ScenarioConfig,
    Uniform,
    genie_covariances,
    generate_covariance_set,
)
from .schedule import (
    Schedule,
    check_random_schedule,
    default_schedule_length,
    load_schedule,
    make_random_schedule,
)

__all__ = [
    "ESTIMATOR_NAMES",
    "UNIDENTIFIABLE",
    "ExperimentConfig",
    "Record",
    "load_experiment_config",
    "run_experiment",
    "emit_csv",
]

logger = logging.getLogger(__name__)

ESTIMATOR_NAMES = ("genie", "ml", "two_step", "adaptive", "ls")
UNIDENTIFIABLE = "unidentifiable"
# estimators that invert the compound allocation: an unidentifiable schedule
# gives them a marker instead of numbers
INVERTS_COMPOUND = ("ml", "two_step")
# estimators that read no training window: on a T sweep a trial's rates
# are the same at every T
READS_NO_WINDOW = ("genie", "ls")

CSV_HEADER = "axis,estimator,seed,sum_rate,cov_rmse,runtime_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep experiment."""

    scenario: ScenarioConfig
    profile: ProfileKind
    sweep_values: tuple[int, ...]
    schedule_mode: str = "random"          # random | imported
    schedule_n: int | None = None          # random mode; None -> default_schedule_length
    schedule_path: str | None = None       # imported mode
    estimators: tuple[str, ...] = ("genie", "ls")
    sweep_axis: str = "T"
    trials: int = 1
    T: int = 60                            # training window when sweeping Ttr
    t_coh: int = 200                       # coherence block length (channel uses)
    eval_intervals: int = 10
    lam: float = 0.99
    tol: float = 1e-8
    max_iter: int = 200
    ml_scaling: str = "per_row"            # per_row | shared
    seed_base: int = 0
    # sweep value -> its (scenario, T, N, schedule), see _sweep_point
    points: dict[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Refuse infeasible settings before any simulation is run, then
        build every sweep point."""
        if self.sweep_axis not in ("T", "Ttr"):
            raise ConfigError(f"[sweep] axis must be T or Ttr, got {self.sweep_axis!r}")
        if not self.sweep_values or any(v < 1 for v in self.sweep_values):
            raise ConfigError("[sweep] values must be positive integers")
        if self.trials < 1:
            raise ConfigError("[sweep] trials must be >= 1")
        if self.schedule_mode not in ("random", "imported"):
            raise ConfigError(
                f"[schedule] mode must be random or imported, "
                f"got {self.schedule_mode!r}"
            )
        if self.schedule_mode == "imported" and not self.schedule_path:
            raise ConfigError("[schedule] path is required for imported mode")
        for key, value, mode in (("path", self.schedule_path, "imported"),
                                 ("N", self.schedule_n, "random")):
            if value is not None and self.schedule_mode != mode:
                raise ConfigError(f"[schedule] {key} is read only in {mode} mode, "
                                  f"not in {self.schedule_mode} mode")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown or not self.estimators:
            raise ConfigError(
                f"[estimation] estimators must be a non-empty subset of "
                f"{ESTIMATOR_NAMES}, got {self.estimators}"
            )
        for key, entries in (("[sweep] values", self.sweep_values),
                             ("[estimation] estimators", self.estimators)):
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ConfigError(f"{key} repeat {repeated[0]!r}: each would run twice")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError("[estimation] lambda must be in (0, 1]")
        if not 0 < self.tol < np.inf or self.max_iter < 1:
            raise ConfigError("[estimation] tol must be finite and > 0, and max_iter >= 1")
        if self.ml_scaling not in ("per_row", "shared"):
            raise ConfigError("[estimation] ml_scaling must be per_row or shared")
        if self.eval_intervals < 1:
            raise ConfigError("[link] eval_intervals must be >= 1")
        if self.seed_base < 0:
            raise ConfigError(f"the seed base must be >= 0, got {self.seed_base}")
        if isinstance(self.profile, BandLimited):
            with _as_config_error("[profile] "):
                self.profile.check_fits(self.scenario.M)
        object.__setattr__(self, "points",
                           {v: _sweep_point(self, v) for v in self.sweep_values})


def _sweep_point(cfg: ExperimentConfig, value: int) -> tuple:
    """(scenario, T, N, schedule) of one sweep value, built with the
    constructors its units use so that their own checks refuse what no
    unit could run.  schedule is the imported schedule, or None in random
    mode, where each unit draws its own."""
    scn, T = cfg.scenario, value
    if cfg.sweep_axis == "Ttr":
        with _as_config_error(f"[sweep] value {value}: "):
            scn = replace(scn, Ttr=value)
        T = cfg.T
    K, Ttr = scn.K, scn.Ttr
    if Ttr >= cfg.t_coh:
        raise ConfigError(
            f"[link] T_coh={cfg.t_coh} must exceed Ttr={Ttr}, otherwise "
            f"no channel uses remain for data"
        )
    schedule = None
    source = f"path {cfg.schedule_path}: " if cfg.schedule_path else ""
    with _as_config_error(f"[schedule] {source}"):
        if cfg.schedule_mode == "random":
            N = (default_schedule_length(K, Ttr) if cfg.schedule_n is None
                 else cfg.schedule_n)
            check_random_schedule(K, Ttr, N, scn.num_cells)
        else:
            schedule = load_schedule(cfg.schedule_path, Ttr=Ttr)
            N = schedule.N
            if schedule.K != K:
                raise ConfigError(f"[schedule] the imported schedule covers "
                                  f"{schedule.K} users, not K={K}")
    if T < 1 or T % N != 0:
        raise ConfigError(
            f"training window T={T} must be a positive multiple of the schedule "
            f"length N={N} so slot statistics see whole passes"
        )
    return scn, T, N, schedule


@dataclass(frozen=True)
class Record:
    """One (sweep value, estimator, seed) result row.

    sum_rate is None only for an unidentifiable schedule, whose record
    carries no numbers; cov_rmse is also None for estimators that do not
    produce covariance estimates (LS).
    """

    axis_value: int
    estimator: str
    seed: int
    sum_rate: float | None
    cov_rmse: float | None
    runtime_ms: float

    @property
    def status(self) -> str:
        """UNIDENTIFIABLE when the record has no sum-rate, else "ok"."""
        return UNIDENTIFIABLE if self.sum_rate is None else "ok"


def _estimate_covariances(
    name: str,
    cfg: ExperimentConfig,
    truth: np.ndarray,
    B: np.ndarray,
    c_obs: np.ndarray | None,
    schedule: Schedule,
    sigma_v2: float,
    unit: tuple[int, int],
) -> np.ndarray | None:
    """Covariance estimate (M, K) of one estimator in one unit (sweep value,
    trial), or None when it has none; ML warns of rows stopped at max_iter."""
    if name == "ls":
        return None
    if name == "genie":
        return genie_covariances(truth)
    if name == "adaptive":
        return adaptive_estimate(B, schedule, sigma_v2, cfg.lam)
    if name == "two_step":
        return two_step_reconstruct(c_obs, schedule, sigma_v2)
    # "ml": ExperimentConfig refuses any name outside ESTIMATOR_NAMES
    ml = (shared_scaling_fixed_point if cfg.ml_scaling == "shared"
          else estimate_all_rows_ml)
    C_hat, converged = ml(c_obs, schedule.compound, sigma_v2,
                          tol=cfg.tol, max_iter=cfg.max_iter)
    stopped = np.count_nonzero(~converged)
    if stopped:
        logger.warning("%s ML stopped at max_iter=%d on %d of %d antenna rows "
                       "at %s=%d, trial %d", cfg.ml_scaling, cfg.max_iter,
                       stopped, len(C_hat), cfg.sweep_axis, *unit)
    return C_hat


def _evaluate_rates(
    H: np.ndarray,
    Phi: np.ndarray,
    schedule: Schedule,
    served: np.ndarray,
    C_used: np.ndarray | None,
    sigma_v2: float,
    overhead: float,
) -> np.ndarray:
    """Sum-rate of each evaluation interval, (E,), from its channels H
    (E, M, K) and training phase Phi (E, M, Ttr) taken under allocation
    e % N.  The intervals e = n (mod N) share allocation n, so they share
    the served users' pilots and, for MMSE, the slot variances C_used A_n +
    sigma_v2; each allocation is one stacked estimate, filter and rate
    evaluation.  LS needs no C_used."""
    N = schedule.N
    rates = np.empty(H.shape[0])
    for n in range(min(N, H.shape[0])):
        pilots = schedule.pilots[n, served]
        obs = Phi[n::N][..., pilots]
        if C_used is None:
            H_hat = ls_channel_estimate(obs)
        else:
            slot_var = C_used @ schedule.allocations[n] + sigma_v2
            H_hat = mmse_channel_estimate(obs, C_used[:, served], slot_var[:, pilots])
        W = rzf_filter(H_hat, sigma_v2)
        rates[n::N] = uplink_sum_rate(W, H[n::N], sigma_v2, served=served,
                                      overhead=overhead)
    return rates


def _streams(cfg: ExperimentConfig, trial: int) -> list[np.random.Generator]:
    """The RNG streams of one trial: ground truth, schedule, training,
    evaluation channels and evaluation noise.

    The axis value is deliberately left out of the seed material: sweep
    points then share the ground truth, schedule draw and evaluation
    channels of each trial, so curves differ only through the training
    data and the swept quantity itself (channels and noise get separate
    streams because noise consumption depends on Ttr)."""
    ss = np.random.SeedSequence([cfg.seed_base, cfg.scenario.seed, trial])
    return [np.random.default_rng(s) for s in ss.spawn(5)]


def _draw_point(point: tuple, truth: np.ndarray, H_eval: np.ndarray,
                rngs: list[np.random.Generator]) -> tuple:
    """(schedule, squared training observations B (M, T * Ttr), evaluation
    observations (E, M, Ttr)) of one sweep point, from the schedule,
    training and evaluation-noise streams of `rngs`."""
    scn, T, N, schedule = point
    _, rng_sched, rng_train, _, rng_eval_noise = rngs
    if schedule is None:
        schedule = make_random_schedule(scn.K, scn.Ttr, N, scn.num_cells, rng_sched)

    # training draws each slot from its exact law: with diagonal covariances
    # and a fresh channel per interval, y_p[m] is CN(0, (C A)[m,p] + sigma_v2)
    # and independent across (m, p, t), and H is never used again in
    # training, so drawing H A + N would only spend normals on the same law.
    # The window is squared, and freed, before the observations are drawn.
    slot_var = truth @ schedule.allocations + scn.sigma_v2  # (N, M, Ttr)
    passes = np.broadcast_to(slot_var, (T // N, *slot_var.shape))
    B = squared_rows(draw_channels(passes, rng_train).reshape(T, scn.M, scn.Ttr))

    Phi_eval = np.empty((len(H_eval), scn.M, scn.Ttr), dtype=complex)
    for e, H in enumerate(H_eval):
        Phi_eval[e] = observe(H, schedule.allocations[e % N], scn.sigma_v2,
                              rng_eval_noise)
    return schedule, B, Phi_eval


@functools.lru_cache(maxsize=1)
def _trial_draws(cfg: ExperimentConfig, trial: int) -> tuple:
    """(truth, H_eval, longest, rates): the draws the sweep points of a
    trial share, drawn by the first of its units.  They are the ground
    truth, the (E, M, K) evaluation channels and, on a T sweep, the
    `_draw_point` of the largest T, of whose squared observations B each
    point reads the first T intervals; on a Ttr sweep `longest` is None
    and each unit draws its own.  `rates` starts empty; on a T sweep the
    first unit keeps there the per-interval rates of each estimator in
    READS_NO_WINDOW for the later ones.  `run_experiment` clears the memo
    before each trial, so one trial's draws are freed before the next's
    are drawn."""
    rngs = _streams(cfg, trial)
    truth = generate_covariance_set(cfg.scenario, cfg.profile, rngs[0])
    # evaluation channels are shared by all estimators (common random numbers)
    H_eval = draw_channels(np.broadcast_to(truth, (cfg.eval_intervals, *truth.shape)),
                           rngs[3])
    longest = None
    if cfg.sweep_axis == "T":
        longest = _draw_point(cfg.points[max(cfg.sweep_values)], truth, H_eval, rngs)
    # every unit of the trial reads them: a write in place would leak into
    # the next unit, so it raises instead
    for shared in (truth, H_eval, *(longest or ())[1:]):
        shared.flags.writeable = False
    return truth, H_eval, longest, {}


def _run_unit(cfg: ExperimentConfig, axis_value: int, trial: int,
              measure_runtime: bool) -> list[Record]:
    point = cfg.points[axis_value]
    scn, T = point[:2]
    truth, H_eval, longest, known_rates = _trial_draws(cfg, trial)
    schedule, B, Phi_eval = longest or _draw_point(point, truth, H_eval,
                                                   _streams(cfg, trial))
    B = B[:, :T * scn.Ttr]  # the first T intervals

    c_obs = None
    if schedule.identifiable and set(cfg.estimators) & set(INVERTS_COMPOUND):
        c_obs = estimate_obs_covariances(B, schedule)

    served = np.arange(scn.users_per_cell)
    overhead = 1.0 - scn.Ttr / cfg.t_coh
    truth_norm = np.linalg.norm(truth)

    records = []
    for name in cfg.estimators:
        if name in INVERTS_COMPOUND and not schedule.identifiable:
            records.append(Record(axis_value, name, trial, None, None, 0.0))
            continue
        start = time.perf_counter()
        C_hat = _estimate_covariances(name, cfg, truth, B, c_obs, schedule,
                                      scn.sigma_v2, (axis_value, trial))
        runtime_ms = (time.perf_counter() - start) * 1e3 if measure_runtime else 0.0

        if C_hat is None:
            cov_rmse = None
        elif not np.all(np.isfinite(C_hat)):
            raise ValueError(f"{name} estimate contains non-finite entries")
        else:
            cov_rmse = float(np.linalg.norm(C_hat - truth) / truth_norm)

        rates = known_rates.get(name)
        if rates is None:
            rates = _evaluate_rates(H_eval, Phi_eval, schedule, served, C_hat,
                                    scn.sigma_v2, overhead)
            if longest and name in READS_NO_WINDOW:
                known_rates[name] = rates
        records.append(Record(axis_value, name, trial, float(rates.mean()),
                              cov_rmse, runtime_ms))
    return records


def run_experiment(
    cfg: ExperimentConfig,
    *,
    measure_runtime: bool = False,
) -> tuple[Record, ...]:
    """Run the full sweep, trial by trial, and return its records in
    (sweep value, trial) order.  Output is deterministic given the config
    (with `measure_runtime=False`, the default, runtime_ms is reported as 0
    so emitted CSV bytes are reproducible).  The config was validated when
    it was built."""
    units = {}
    try:
        for s in range(cfg.trials):
            _trial_draws.cache_clear()
            for v in cfg.sweep_values:
                units[v, s] = _run_unit(cfg, v, s, measure_runtime)
    finally:
        _trial_draws.cache_clear()
    return tuple(r for v in cfg.sweep_values for s in range(cfg.trials)
                 for r in units[v, s])


def _fmt(value: float | None, status: str) -> str:
    if status == UNIDENTIFIABLE:
        return UNIDENTIFIABLE
    if value is None:
        return ""
    return format(value, ".6g")


def emit_csv(records: tuple[Record, ...], path: str) -> None:
    """Write records sorted by (axis, estimator, seed), 6 significant digits."""
    rows = sorted(records, key=lambda r: (r.axis_value, r.estimator, r.seed))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.axis_value},{r.estimator},{r.seed},"
            f"{_fmt(r.sum_rate, r.status)},{_fmt(r.cov_rmse, r.status)},"
            f"{format(r.runtime_ms, '.6g')}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _list_of(parse):
    return lambda text: tuple(parse(tok) for tok in text.split(",") if tok.strip())


# section -> key as documented -> (field of ScenarioConfig or
# ExperimentConfig, parser of its text); keys match in any case, as
# configparser lower-cases them
_SECTIONS = {
    "scenario": {"M": ("M", int), "K": ("K", int), "Ttr": ("Ttr", int),
                 "sigma_v2": ("sigma_v2", float), "num_cells": ("num_cells", int),
                 "users_per_cell": ("users_per_cell", int),
                 "seed": ("seed", int), "T": ("T", int)},
    "schedule": {"mode": ("schedule_mode", str.strip), "N": ("schedule_n", int),
                 "path": ("schedule_path", str.strip)},
    "estimation": {"estimators": ("estimators", _list_of(str.strip)),
                   "lambda": ("lam", float), "tol": ("tol", float),
                   "max_iter": ("max_iter", int),
                   "ml_scaling": ("ml_scaling", str.strip)},
    "sweep": {"axis": ("sweep_axis", str.strip),
              "values": ("sweep_values", _list_of(int)), "trials": ("trials", int)},
    "link": {"T_coh": ("t_coh", int), "eval_intervals": ("eval_intervals", int)},
}
# [profile] kind -> (class, key -> (field, parser) of the keys it reads)
_PROFILES = {
    "uniform": (Uniform, {"power": ("power", float)}),
    "bandlimited": (BandLimited, {"width": ("width", int), "power": ("power", float),
                                  "dynamic_range_db": ("dynamic_range_db", float)}),
}
# field -> key as documented, to name a required key the file leaves out
_KEY_OF = {
    field: f"[{section}] {key}"
    for section, keys in [*_SECTIONS.items(),
                          *(("profile", keys) for _, keys in _PROFILES.values())]
    for key, (field, _) in keys.items()
}


def _read_section(sec: configparser.SectionProxy, keys: dict) -> dict:
    """field -> parsed value of each key the section sets."""
    documented = {key.lower(): key for key in keys}
    unknown = sorted(set(sec) - set(documented))
    if unknown:
        raise ConfigError(f"[{sec.name}] unknown key {unknown[0]!r}")
    values = {}
    for name in sec:
        key = documented[name]
        field, parse = keys[key]
        with _as_config_error(f"[{sec.name}] {key}: "):
            values[field] = parse(sec[name])
    return values


def _build(cls, values: dict, context: str = ""):
    """cls from the values read for its fields: a field the file leaves out
    takes its default, and a field without a default is required (fields
    derived at construction are not read).  A ValueError of cls is
    reported after `context`; ExperimentConfig raises ConfigError itself."""
    for f in fields(cls):
        if f.init and f.default is MISSING and f.name not in values:
            raise ConfigError(f"{_KEY_OF[f.name]} is required")
    with _as_config_error(context):
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def load_experiment_config(path: str, seed_base: int | None = None) -> ExperimentConfig:
    """Parse the key = value configuration file format; `seed_base`, when
    given, replaces the default seed base, so the sweep points are resolved
    once.

    Every key is read through `_SECTIONS` (and `_PROFILES`, uniform or
    bandlimited, for the kind of [profile]); numbers are parsed with
    `float` or `int`, and the dataclasses built from them check their
    values, as for code.  A key the file leaves out is not passed, so it
    takes the dataclass default; the keys of fields without a default
    ([scenario] M, K, Ttr, sigma_v2, [sweep] values and the width of a
    bandlimited profile) and the [profile] section are required.  Values
    are read literally: a `%` is text, not interpolation.
    """
    with _as_config_error(f"cannot read config file {path}: "):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    with _as_config_error("config parse error: "):
        cp.read_string(text, source=path)
    for section in cp.sections():
        if section not in _SECTIONS and section != "profile":
            raise ConfigError(f"unknown section [{section}]")

    values = {}
    for section, keys in _SECTIONS.items():
        if cp.has_section(section):
            values.update(_read_section(cp[section], keys))
    scenario = _build(ScenarioConfig, values, "[scenario] ")

    if not cp.has_section("profile"):
        raise ConfigError(f"missing [profile] section in {path}")
    sec = cp["profile"]
    kind = sec.get("kind", "uniform").strip().lower()
    if kind not in _PROFILES:
        raise ConfigError(f"[profile] kind must be one of {', '.join(_PROFILES)}, "
                          f"got {kind!r}")
    cls, keys = _PROFILES[kind]
    # `kind` names no field of the profile, so _build passes it over
    profile = _build(cls, _read_section(sec, {"kind": ("kind", str), **keys}),
                     "[profile] ")
    if seed_base is not None:
        values["seed_base"] = seed_base
    return _build(ExperimentConfig, {**values, "scenario": scenario, "profile": profile})
