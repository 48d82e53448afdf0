"""Command-line driver.

Subcommands:
  run       execute a sweep experiment from a config file and emit CSV
  schedule  generate or inspect pilot schedules (text format)
  validate  check a config file without running anything

Exit codes: 0 success, 1 bad input (command line, config or schedule
file), 2 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, IdentifiabilityError, PilotCovError, _as_config_error
from .experiment import emit_csv, load_experiment_config, run_experiment
from .schedule import (
    default_schedule_length,
    load_schedule,
    make_random_schedule,
    min_schedule_length,
    save_schedule,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _output_path(path: str) -> str:
    """A file path `run` or `schedule generate` can write to, refused
    before any work is done."""
    if not path:
        raise argparse.ArgumentTypeError("output path is empty")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory of {path} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise argparse.ArgumentTypeError(f"{path} is not writable")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pilotcov",
        description="Pilot-scheduled covariance estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep experiment")
    run_p.add_argument("config", help="experiment config file (key = value sections)")
    run_p.add_argument("--out", type=_output_path, default="results.csv",
                       help="output CSV path, a writable file in an existing directory")
    run_p.add_argument("--seed-base", type=int, default=None,
                       help="override the RNG seed base")
    run_p.add_argument("--timing", action="store_true",
                       help="record wall-clock estimator runtimes; note this "
                            "makes the CSV non-reproducible byte-for-byte")

    sched_p = sub.add_parser("schedule", help="generate or inspect schedules")
    sched_sub = sched_p.add_subparsers(dest="schedule_command", required=True)

    gen_p = sched_sub.add_parser("generate", help="draw a random schedule")
    gen_p.add_argument("--users", type=int, required=True, help="total users K")
    gen_p.add_argument("--pilots", type=int, required=True, help="pilot count Ttr")
    gen_p.add_argument("--length", type=int, default=None,
                       help="allocations per schedule (default: minimum + 2)")
    gen_p.add_argument("--cells", type=int, default=1, help="number of cells")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", type=_output_path, default=None,
                       help="write text format here, a writable file in an "
                            "existing directory")

    insp_p = sched_sub.add_parser("inspect", help="report rank and conditioning")
    insp_p.add_argument("file", help="schedule text file")
    insp_p.add_argument("--pilots", type=int, default=None,
                        help="pilot count (default: max index + 1)")

    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("config")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_experiment_config(args.config, seed_base=args.seed_base)
    records = run_experiment(cfg, measure_runtime=args.timing)
    emit_csv(records, args.out)
    n_bad = sum(r.status != "ok" for r in records)
    print(f"wrote {len(records)} records to {args.out}"
          + (f" ({n_bad} unidentifiable)" if n_bad else ""))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.schedule_command == "generate":
        K, Ttr = args.users, args.pilots
        with _as_config_error():
            N = args.length if args.length is not None else default_schedule_length(K, Ttr)
            schedule = make_random_schedule(
                K, Ttr, N, args.cells, np.random.default_rng(args.seed)
            )
        print(f"K={K} Ttr={Ttr} N={N} rank={schedule.rank} "
              f"condition={schedule.cond:.6g}")
        if args.out:
            save_schedule(schedule, args.out)
            print(f"wrote {args.out}")
        return 0

    with _as_config_error(f"schedule file {args.file}: "):
        schedule = load_schedule(args.file, Ttr=args.pilots)
        try:
            min_length = min_schedule_length(schedule.K, schedule.Ttr)
        except IdentifiabilityError:
            min_length = None  # no schedule length helps a single pilot
    print(f"K={schedule.K} Ttr={schedule.Ttr} N={schedule.N}")
    print(f"rank={schedule.rank} condition={schedule.cond:.6g} "
          f"identifiable={'yes' if schedule.identifiable else 'NO'}")
    if min_length is not None:
        print(f"minimum schedule length={min_length}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    load_experiment_config(args.config)
    print(f"{args.config}: OK")
    return 0


_COMMANDS = {"run": _cmd_run, "schedule": _cmd_schedule, "validate": _cmd_validate}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PilotCovError, np.linalg.LinAlgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
