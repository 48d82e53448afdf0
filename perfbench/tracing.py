"""Per-layer trace of a pilotcov sweep, recorded from outside the library.

The tracer wraps the layer functions that pilotcov.experiment calls.  Each
one is looked up by module and name and rebound in every loaded pilotcov
module that imported it, so calls made through any of those names are
seen.  A name that no longer exists is reported as absent, together with
every metric that needs it; it never raises and never reads as zero.  So
is a name that still exists but was not called in a sweep where its
caller (CALLED_BY) ran: the library then does that work another way.

Timed calls become spans (function, layer, start, end, parent unit,
sweep), kept in memory and written once by `write_spans`.  A layer's
busy time is the self time of its spans: the span's duration minus the
time covered by spans nested inside it.  Work the tracer does itself
(the ML KKT certificate, schedule conditioning) runs in spans of the
`trace` layer, so it is charged to no library layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

TRACE = "trace"
EXPERIMENT = "experiment"


@dataclass(frozen=True)
class Hook:
    """One wrapped library function.

    layer: the layer its spans are charged to; None counts calls only.
    after: name of a Tracer method fed (bound arguments, result) after
    each call, inside a `trace` span.
    unit: the call is one work unit; spans inside it carry its label.
    """

    module: str
    name: str
    layer: str | None = None
    after: str | None = None
    unit: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


HOOKS = (
    Hook("pilotcov.experiment", "_run_unit", EXPERIMENT, unit=True),
    Hook("pilotcov.scenario", "generate_covariance_set", "scenario"),
    Hook("pilotcov.scenario", "genie_covariances", "scenario"),
    Hook("pilotcov.schedule", "make_random_schedule", "schedule", "_on_schedule"),
    Hook("pilotcov.schedule", "rank_and_condition", "schedule"),
    Hook("pilotcov.channel", "draw_channels", "channel.draw", "_on_draw"),
    Hook("pilotcov.channel", "observe", "channel.observe", "_on_draw"),
    Hook("pilotcov.channel", "squared_rows", "channel.square"),
    Hook("pilotcov.estimators", "estimate_obs_covariances", "estimators.two_step"),
    Hook("pilotcov.estimators", "two_step_reconstruct", "estimators.two_step"),
    Hook("pilotcov.estimators", "estimate_all_rows_ml", "estimators.ml"),
    Hook("pilotcov.estimators", "ml_fixed_point", None, "_on_ml_row"),
    Hook("pilotcov.estimators", "negative_llf"),
    Hook("pilotcov.estimators", "shared_scaling_fixed_point", "estimators.shared"),
    Hook("pilotcov.estimators", "adaptive_update", "estimators.adaptive"),
    Hook("pilotcov.linklevel", "mmse_channel_estimate", "linklevel.chanest"),
    Hook("pilotcov.linklevel", "ls_channel_estimate", "linklevel.chanest"),
    Hook("pilotcov.linklevel", "rzf_filter", "linklevel.rzf"),
    Hook("pilotcov.linklevel", "uplink_sum_rate", "linklevel.rate"),
)

_E, _S, _C, _L = ("pilotcov.estimators.", "pilotcov.schedule.",
                  "pilotcov.channel.", "pilotcov.linklevel.")
# functions the tracer calls itself, unwrapped
_GRAD, _RANK = _E + "llf_gradient", _S + "rank_and_condition"
_ML = (_E + "estimate_all_rows_ml", _E + "ml_fixed_point")
_KKT = _ML + (_GRAD,)
_SCHED = (_S + "make_random_schedule", _S + "rank_and_condition")
_CHANEST = (_L + "mmse_channel_estimate", _L + "ls_channel_estimate")
_SCENARIO = ("pilotcov.scenario.generate_covariance_set",
             "pilotcov.scenario.genie_covariances")
_UNIT = "pilotcov.experiment._run_unit"

# hooked names -> the hooked caller after which a sweep must show a call
# of at least one of them (every workload draws random schedules)
CALLED_BY: dict[tuple[str, ...], str] = {
    (_E + "ml_fixed_point",): _ML[0],
    (_E + "negative_llf",): _ML[1],
    (_SCENARIO[0],): _UNIT,
    (_S + "make_random_schedule",): _UNIT,
    (_S + "rank_and_condition",): _UNIT,
    (_C + "draw_channels",): _UNIT,
    (_C + "observe",): _UNIT,
    (_C + "squared_rows",): _UNIT,
    _CHANEST: _UNIT,
    (_L + "rzf_filter",): _UNIT,
    (_L + "uplink_sum_rate",): _UNIT,
}

# per-layer metric -> (unit, library names it needs)
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "estimators.ml.busy_s": ("s", _ML[:1]),
    "estimators.ml.rows": ("count", _ML),
    "estimators.ml.iterations": ("count", _ML),
    "estimators.ml.llf_evals": ("count", _ML + (_E + "negative_llf",)),
    "estimators.ml.flag_nonconverged_rows": ("count", _ML),
    "estimators.ml.kkt_fail_rows": ("count", _KKT),
    "estimators.ml.kkt_residual_max": ("grad/slot", _KKT),
    "estimators.ml.kkt_pass_frac": ("ratio", _KKT),
    "estimators.two_step.busy_s": ("s", (_E + "estimate_obs_covariances",
                                         _E + "two_step_reconstruct")),
    "estimators.shared.busy_s": ("s", (_E + "shared_scaling_fixed_point",)),
    "estimators.adaptive.busy_s": ("s", (_E + "adaptive_update",)),
    "estimators.adaptive.updates": ("count", (_E + "adaptive_update",)),
    "linklevel.rzf.busy_s": ("s", (_L + "rzf_filter",)),
    "linklevel.rzf.calls": ("count", (_L + "rzf_filter",)),
    "linklevel.rate.busy_s": ("s", (_L + "uplink_sum_rate",)),
    "linklevel.rate.calls": ("count", (_L + "uplink_sum_rate",)),
    "linklevel.chanest.busy_s": ("s", _CHANEST),
    "linklevel.chanest.calls": ("count", _CHANEST),
    "channel.draw.busy_s": ("s", (_C + "draw_channels",)),
    "channel.draw.calls": ("count", (_C + "draw_channels",)),
    "channel.observe.busy_s": ("s", (_C + "observe",)),
    "channel.observe.calls": ("count", (_C + "observe",)),
    "channel.square.busy_s": ("s", (_C + "squared_rows",)),
    "channel.square.calls": ("count", (_C + "squared_rows",)),
    "channel.bytes_drawn": ("bytes", (_C + "draw_channels", _C + "observe")),
    "schedule.busy_s": ("s", _SCHED),
    "schedule.rank_checks": ("count", _SCHED),
    "schedule.accept_frac": ("ratio", _SCHED),
    "schedule.cond_max": ("ratio", _SCHED),
    "scenario.busy_s": ("s", _SCENARIO),
    "scenario.calls": ("count", _SCENARIO),
    "experiment.self_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
}


def _resolve(key: str):
    module, _, name = key.rpartition(".")
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


class Tracer:
    """Wraps the hooked functions between `install` and `uninstall`."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = tuple(hooks)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._helpers: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.unit: str | None = None
        self.sweep = -1
        self.start_sweep(-1)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        self.absent = []
        self._helpers = {k: _resolve(k) for k in (_GRAD, _RANK)}
        self.absent += [k for k, fn in self._helpers.items() if fn is None]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pilotcov" or n.startswith("pilotcov."))]
        for hook in self.hooks:
            orig = _resolve(hook.key)
            if not callable(orig):
                if hook.key not in self.absent:
                    self.absent.append(hook.key)
                continue
            wrapper = self._wrap(hook, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def _wrap(self, hook: Hook, fn):
        key, layer, unit = hook.key, hook.layer, hook.unit
        after = getattr(self, hook.after) if hook.after else None
        sig = inspect.signature(fn) if (after or unit) else None

        def bind(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if layer is None:
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    self._traced(key, after, bind(args, kwargs), result)
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][1] if stack else None
            self.calls[key] += 1
            self.calls[(key, parent)] += 1
            outer_unit = self.unit
            if unit:
                a = bind(args, kwargs)
                self.units += 1
                self.unit = f"{a.get('axis_value', '?')}/{a.get('trial', self.units)}"
            frame = [0.0, key]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._close(key, layer, t0, t1, frame[0])
                self.unit = outer_unit
            if after is not None:
                self._traced(key, after, bind(args, kwargs), result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------
    def _close(self, key, layer, t0, t1, child) -> None:
        dur = t1 - t0
        self.busy[layer] += dur - child
        if self._stack:
            self._stack[-1][0] += dur
        self.spans.append((key, layer, t0, t1, self.unit, self.sweep))

    def _traced(self, key, method, arguments, result) -> None:
        frame = [0.0, TRACE]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            method(arguments, result)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            # the call's arguments or result changed shape: report the
            # function absent rather than fail the library call
            if key not in self.absent:
                print(f"tracing: cannot read {key}: {exc!r}", file=sys.stderr)
                self.absent.append(key)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._close(TRACE, TRACE, t0, t1, frame[0])

    def start_sweep(self, index: int) -> None:
        self.sweep = index
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.units = 0
        self.ml_iterations = 0
        self.ml_nonconverged = 0
        self.kkt_fail = 0
        self.kkt_max = 0.0
        self.cond_max = 0.0
        self.bytes_drawn = 0

    # -- observers of hooked calls --------------------------------------
    def _on_ml_row(self, a, result) -> None:
        c = np.asarray(result.c_hat, dtype=float)
        self.ml_iterations += int(result.iterations)
        self.ml_nonconverged += not result.converged
        grad = self._helpers[_GRAD]
        if grad is None:
            return
        Pi = np.asarray(a["Pi"], dtype=float)
        # KKT of min NLL s.t. c >= 0, per observation slot
        g = grad(c, a["b_m"], Pi, a["sigma_v2"]) / Pi.shape[1]
        residual = float(np.max(np.where(c > 0, np.abs(g), np.maximum(-g, 0.0))))
        self.kkt_max = max(self.kkt_max, residual)
        self.kkt_fail += residual > 10 * a["tol"]

    def _on_schedule(self, a, result) -> None:
        rank_and_condition = self._helpers[_RANK]
        if rank_and_condition is not None:
            self.cond_max = max(self.cond_max, float(rank_and_condition(result)[1]))

    def _on_draw(self, a, result) -> None:
        for name in ("H", "Phi"):
            result = getattr(result, name, result)
        self.bytes_drawn += np.asarray(result).nbytes

    # -- metrics --------------------------------------------------------
    def sweep_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer values of the sweep just run, in `wall` seconds."""
        calls, busy = self.calls, self.busy
        for names, caller in CALLED_BY.items():
            if calls[caller] and not any(calls[k] for k in names):
                self.absent += [k for k in names if k not in self.absent]
        rows = calls[_E + "ml_fixed_point"]
        draws = calls[(_S + "rank_and_condition", _S + "make_random_schedule")]
        values = {
            "estimators.ml.busy_s": busy["estimators.ml"],
            "estimators.ml.rows": rows,
            "estimators.ml.iterations": self.ml_iterations,
            "estimators.ml.llf_evals": calls[_E + "negative_llf"],
            "estimators.ml.flag_nonconverged_rows": self.ml_nonconverged,
            "estimators.ml.kkt_fail_rows": self.kkt_fail,
            "estimators.ml.kkt_residual_max": self.kkt_max,
            # a ratio over no rows reads 0; read it with its base, rows
            "estimators.ml.kkt_pass_frac": (rows - self.kkt_fail) / rows if rows else 0.0,
            "estimators.two_step.busy_s": busy["estimators.two_step"],
            "estimators.shared.busy_s": busy["estimators.shared"],
            "estimators.adaptive.busy_s": busy["estimators.adaptive"],
            "estimators.adaptive.updates": calls[_E + "adaptive_update"],
            "linklevel.rzf.busy_s": busy["linklevel.rzf"],
            "linklevel.rzf.calls": calls[_L + "rzf_filter"],
            "linklevel.rate.busy_s": busy["linklevel.rate"],
            "linklevel.rate.calls": calls[_L + "uplink_sum_rate"],
            "linklevel.chanest.busy_s": busy["linklevel.chanest"],
            "linklevel.chanest.calls": sum(calls[k] for k in _CHANEST),
            "channel.draw.busy_s": busy["channel.draw"],
            "channel.draw.calls": calls[_C + "draw_channels"],
            "channel.observe.busy_s": busy["channel.observe"],
            "channel.observe.calls": calls[_C + "observe"],
            "channel.square.busy_s": busy["channel.square"],
            "channel.square.calls": calls[_C + "squared_rows"],
            "channel.bytes_drawn": self.bytes_drawn,
            "schedule.busy_s": busy["schedule"],
            "schedule.rank_checks": calls[_S + "rank_and_condition"],
            "schedule.accept_frac": calls[_S + "make_random_schedule"] / draws if draws else 0.0,
            "schedule.cond_max": self.cond_max,
            "scenario.busy_s": busy["scenario"],
            "scenario.calls": sum(calls[k] for k in _SCENARIO),
            "experiment.self_s": wall - sum(v for k, v in busy.items() if k != EXPERIMENT),
        }
        return {k: v for k, v in values.items() if self.present(k)}

    def present(self, metric: str) -> bool:
        return not set(METRICS[metric][1]) & set(self.absent)

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, layer, t0, t1, unit, sweep in self.spans:
                fh.write(json.dumps({"name": key, "layer": layer, "start": t0,
                                     "end": t1, "unit": unit, "sweep": sweep}) + "\n")


def combine(per_sweep: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced sweeps of each per-layer value."""
    return {k: statistics.median_low(m[k] for m in per_sweep) for k in per_sweep[0]}
