import configparser
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pilotcov import (
    BandLimited,
    ConfigError,
    ExperimentConfig,
    Record,
    ScenarioConfig,
    Schedule,
    Uniform,
    emit_csv,
    load_experiment_config,
    ls_channel_estimate,
    make_random_schedule,
    mmse_channel_estimate,
    run_experiment,
    rzf_filter,
    uplink_sum_rate,
)
from pilotcov.cli import main as cli_main
from pilotcov.experiment import _evaluate_rates
from pilotcov.schedule import default_schedule_length

from training import EXAMPLE442_SCHEDULE

DESK_CFG = """
[scenario]
M = 8
K = 6
Ttr = 4
sigma_v2 = 0.2
num_cells = 2
users_per_cell = 3
seed = 7

[profile]
kind = bandlimited
width = 4
power = 1.0
dynamic_range_db = 10.0

[schedule]
mode = random
N = 5

[estimation]
estimators = genie, ls
tol = 1e-8
max_iter = 100

[sweep]
axis = T
values = 10, 20
trials = 3

[link]
T_coh = 100
eval_intervals = 4
"""

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE442_SECTION = f"mode = imported\npath = {EXAMPLE442_SCHEDULE}"
# DESK_CFG at the geometry of the example442 schedule, windows of whole passes
EXAMPLE442_CFG = (DESK_CFG.replace("K = 6\nTtr = 4", "K = 4\nTtr = 2")
                  .replace("users_per_cell = 3", "users_per_cell = 2")
                  .replace("mode = random\nN = 5", EXAMPLE442_SECTION)
                  .replace("values = 10, 20", "values = 9, 18"))
# DESK_CFG sweeping Ttr, with `[scenario] T = {T}` to be filled in
TTR_SWEEP_CFG = (DESK_CFG.replace("seed = 7", "seed = 7\nT = {T}")
                 .replace("axis = T\nvalues = 10, 20", "axis = Ttr\nvalues = 4"))

CHECKED_IN_CONFIGS = sorted(
    path for folder in ("configs", "perfbench/workloads", "tests/data")
    for path in (ROOT / folder).glob("*.cfg")
)


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CFG)
    return str(path)


def _example442_config(**overrides) -> ExperimentConfig:
    # one cell of 4 users running the shipped canonical schedule
    defaults = dict(
        scenario=ScenarioConfig(M=6, K=4, Ttr=2, sigma_v2=0.2, num_cells=1, seed=3),
        profile=Uniform(power=1.0),
        schedule_mode="imported",
        schedule_path=str(EXAMPLE442_SCHEDULE),
        sweep_values=(9,),
        trials=2,
        eval_intervals=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scenario=ScenarioConfig(
            M=8, K=6, Ttr=4, sigma_v2=0.2, num_cells=2, users_per_cell=3, seed=7
        ),
        profile=BandLimited(width=4, power=1.0, dynamic_range_db=10.0),
        schedule_mode="random",
        schedule_n=5,
        estimators=("genie", "ls"),
        sweep_axis="T",
        sweep_values=(10, 20),
        trials=3,
        eval_intervals=4,
        t_coh=100,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigLoading:
    def test_round_trip_fields(self, desk_config):
        cfg = load_experiment_config(desk_config)
        assert cfg.scenario.M == 8
        assert cfg.scenario.users_per_cell == 3
        assert cfg.profile == BandLimited(width=4, power=1.0, dynamic_range_db=10.0)
        assert cfg.estimators == ("genie", "ls")
        assert cfg.sweep_values == (10, 20)
        assert cfg.t_coh == 100

    @pytest.mark.parametrize("cut, named", [
        ("M = 8\n", "[scenario] M"),
        ("K = 6\n", "[scenario] K"),
        ("Ttr = 4\n", "[scenario] Ttr"),
        ("sigma_v2 = 0.2\n", "[scenario] sigma_v2"),
        ("values = 10, 20\n", "[sweep] values"),
        ("[profile]\nkind = bandlimited\nwidth = 4\npower = 1.0\n"
         "dynamic_range_db = 10.0\n", "[profile]"),
    ], ids=["M", "K", "Ttr", "sigma_v2", "values", "profile"])
    def test_missing_section_named_in_error(self, cut, named, tmp_path):
        assert cut in DESK_CFG
        path = tmp_path / "broken.cfg"
        path.write_text(DESK_CFG.replace(cut, ""))
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_experiment_config(path)

    def test_file_defaults_are_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "required_only.cfg"
        path.write_text("[scenario]\nM = 8\nK = 4\nTtr = 4\nsigma_v2 = 0.2\n\n"
                        "[profile]\n\n[sweep]\nvalues = 60\n")
        assert load_experiment_config(path) == ExperimentConfig(
            scenario=ScenarioConfig(M=8, K=4, Ttr=4, sigma_v2=0.2),
            profile=Uniform(),
            sweep_values=(60,),
        )

    @pytest.mark.parametrize("path", CHECKED_IN_CONFIGS,
                             ids=[str(p.relative_to(ROOT)) for p in CHECKED_IN_CONFIGS])
    def test_checked_in_config_survives_configparser_rewrite(self, path, tmp_path,
                                                             monkeypatch):
        # every checked-in config, the presets README tells users to run
        # included, passes `pilotcov validate` as written, from the
        # repository root where their schedule paths resolve
        monkeypatch.chdir(ROOT)
        assert cli_main(["validate", str(path)]) == 0
        # a configparser read and write lower-cases the keys and drops the
        # comments, as the benchmark does for its check and unit sweeps
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(path, encoding="utf-8")
        rewritten = tmp_path / path.name
        with open(rewritten, "w", encoding="utf-8") as fh:
            cp.write(fh)
        assert "ttr = " in rewritten.read_text()
        assert load_experiment_config(rewritten) == load_experiment_config(path)

    def test_bad_field_named_in_error(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(DESK_CFG.replace("M = 8", "M = eight"))
        with pytest.raises(ConfigError, match=r"\[scenario\] M"):
            load_experiment_config(path)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="estimators"):
            _tiny_config(estimators=("genie", "oracle"))

    def test_window_must_cover_whole_passes(self):
        with pytest.raises(ConfigError, match="multiple"):
            _tiny_config(sweep_values=(12,))  # N=5 does not divide 12

    def test_zero_noise_rejected_for_experiments(self):
        # the scenario refuses it, before any experiment config is built
        with pytest.raises(ValueError, match="sigma_v2"):
            ScenarioConfig(M=8, K=6, Ttr=4, sigma_v2=0.0, num_cells=2,
                           users_per_cell=3, seed=7)

    @pytest.mark.parametrize("field, value", [
        ("tol", np.nan), ("tol", np.inf), ("lam", np.nan),
        ("sigma_v2", np.inf), ("sigma_v2", np.nan),
    ])
    def test_non_finite_numbers_rejected_in_code(self, field, value):
        if field == "sigma_v2":
            with pytest.raises(ValueError, match="sigma_v2 must be finite"):
                ScenarioConfig(M=8, K=6, Ttr=4, sigma_v2=value, num_cells=2,
                               users_per_cell=3, seed=7)
        else:
            with pytest.raises(ConfigError, match="lambda" if field == "lam" else field):
                _tiny_config(**{field: value})

    def test_infeasible_cell_constraint_surfaced_before_run(self):
        with pytest.raises(ConfigError, match="users per cell"):
            _tiny_config(sweep_axis="Ttr", sweep_values=(2,), T=10)


class TestRunExperiment:
    def test_record_counting(self):
        res = run_experiment(_tiny_config())
        assert len(res) == 2 * 2 * 3  # estimators x sweep x trials
        combos = {(r.axis_value, r.estimator, r.seed) for r in res}
        assert len(combos) == len(res)

    def test_genie_rmse_exactly_zero(self):
        res = run_experiment(_tiny_config())
        for r in res:
            if r.estimator == "genie":
                assert r.cov_rmse == 0.0

    def test_ls_has_no_cov_rmse(self):
        res = run_experiment(_tiny_config())
        for r in res:
            if r.estimator == "ls":
                assert r.cov_rmse is None

    def test_determinism_byte_identical_csv(self, tmp_path):
        cfg = _tiny_config(estimators=("genie", "ml", "two_step", "ls"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), p1)
        emit_csv(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unidentifiable_marker_for_short_schedule(self):
        # a single allocation caps the compound rank at Ttr=4 < K=6:
        # covariance reconstruction is impossible, but genie and ls still
        # produce rates
        cfg = _tiny_config(
            schedule_n=1,
            estimators=("genie", "ml", "two_step", "ls"),
            sweep_values=(10,),
            trials=2,
        )
        res = run_experiment(cfg)
        by_name = {}
        for r in res:
            by_name.setdefault(r.estimator, []).append(r)
        for name in ("two_step", "ml"):
            assert all(r.status == "unidentifiable" for r in by_name[name])
            assert all(r.sum_rate is None for r in by_name[name])
        for name in ("genie", "ls"):
            assert all(r.status == "ok" for r in by_name[name])
            assert all(r.sum_rate is not None for r in by_name[name])

    def test_adaptive_estimator_runs(self):
        cfg = _tiny_config(estimators=("adaptive",), sweep_values=(10,), trials=1)
        res = run_experiment(cfg)
        assert len(res) == 1
        assert res[0].cov_rmse is not None

    @pytest.mark.parametrize("ml_scaling", ["per_row", "shared"])
    def test_ml_stop_at_max_iter_warned_once_per_unit(self, ml_scaling, caplog):
        cfg = _tiny_config(estimators=("ml",), max_iter=1, ml_scaling=ml_scaling)
        with caplog.at_level(logging.WARNING, logger="pilotcov.experiment"):
            res = run_experiment(cfg)
        assert all(r.status == "ok" for r in res)
        messages = sorted(r.getMessage() for r in caplog.records
                          if r.name == "pilotcov.experiment")
        units = sorted(f"at T={v}, trial {s}" for v in cfg.sweep_values
                       for s in range(cfg.trials))
        assert len(messages) == len(units) == 6
        for message, unit in zip(messages, units):
            match = re.fullmatch(rf"{ml_scaling} ML stopped at max_iter=1 on (\d) of 8 "
                                 rf"antenna rows {unit}", message)
            assert match, message
            if ml_scaling == "shared":  # its one flag stops every row
                assert match[1] == "8"

    def test_ttr_sweep(self):
        cfg = _tiny_config(
            sweep_axis="Ttr", sweep_values=(4, 6), T=10, schedule_n=5,
        )
        res = run_experiment(cfg)
        assert {r.axis_value for r in res} == {4, 6}

    def test_example442_mode(self):
        cfg = _example442_config(estimators=("genie", "two_step"))
        res = run_experiment(cfg)
        assert all(r.status == "ok" for r in res)

    def test_example442_mode_is_gone(self, tmp_path, capsys):
        # the canonical schedule runs from its shipped file; the mode that
        # built it in code is refused, from a file and in code alike
        path = tmp_path / "example442.cfg"
        path.write_text(EXAMPLE442_CFG)
        assert cli_main(["validate", str(path)]) == 0
        path.write_text(EXAMPLE442_CFG.replace(EXAMPLE442_SECTION, "mode = example442"))
        assert cli_main(["validate", str(path)]) == 1
        assert "mode must be random or imported" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="mode must be random or imported"):
            _example442_config(schedule_mode="example442", schedule_path=None)


class TestCSV:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv((), path)
        assert path.read_text() == "axis,estimator,seed,sum_rate,cov_rmse,runtime_ms\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv((Record(10, "genie", 0, 1.25, 0.0, 0.0),), path)
        assert path.read_text().splitlines() == [
            "axis,estimator,seed,sum_rate,cov_rmse,runtime_ms",
            "10,genie,0,1.25,0,0",
        ]

    def test_rows_sorted(self, tmp_path):
        recs = (
            Record(20, "ls", 1, 1.0, None, 0.0),
            Record(10, "ls", 0, 1.0, None, 0.0),
            Record(10, "genie", 1, 1.0, 0.0, 0.0),
            Record(10, "genie", 0, 1.0, 0.0, 0.0),
        )
        path = tmp_path / "sorted.csv"
        emit_csv(recs, path)
        keys = [ln.split(",")[:3] for ln in path.read_text().splitlines()[1:]]
        assert keys == sorted(keys, key=lambda k: (int(k[0]), k[1], int(k[2])))

    def test_markers_survive_round_trip(self, tmp_path):
        recs = (
            Record(5, "two_step", 0, None, None, 0.0),
            Record(5, "ls", 0, 2.5, None, 0.0),
        )
        path = tmp_path / "mark.csv"
        emit_csv(recs, path)
        text = path.read_text()
        assert "unidentifiable,unidentifiable" in text
        assert "5,ls,0,2.5,,0" in text

    def test_status_is_read_off_sum_rate(self):
        assert Record(5, "ml", 0, None, None, 0.0).status == "unidentifiable"
        assert Record(5, "ls", 0, 2.5, None, 0.0).status == "ok"
        # a record cannot be given a status that contradicts its numbers
        with pytest.raises(TypeError):
            Record(5, "ls", 0, 2.5, None, 0.0, status="unidentifiable")


class TestCLI:
    def test_run_subcommand(self, desk_config, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(["run", desk_config, "--out", str(out)]) == 0
        assert out.exists()
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,estimator,seed,sum_rate,cov_rmse,runtime_ms"
        assert len(lines) == 1 + 12

    def test_run_is_reproducible(self, desk_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", desk_config, "--out", str(a)]) == 0
        assert cli_main(["run", desk_config, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validate_subcommand(self, desk_config, tmp_path):
        assert cli_main(["validate", desk_config]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(DESK_CFG.replace("values = 10, 20", "values = 7"))
        assert cli_main(["validate", str(bad)]) == 1

    def test_schedule_generate_and_inspect(self, tmp_path, capsys):
        sched_file = tmp_path / "sched.txt"
        rc = cli_main([
            "schedule", "generate", "--users", "6", "--pilots", "4",
            "--length", "3", "--cells", "2", "--seed", "1",
            "--out", str(sched_file),
        ])
        assert rc == 0
        assert sched_file.exists()
        rc = cli_main(["schedule", "inspect", str(sched_file), "--pilots", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identifiable=yes" in out

    def test_inspect_single_pilot_schedule(self, tmp_path, capsys):
        # with one pilot no schedule length is enough, so none is printed
        sched_file = tmp_path / "one_pilot.txt"
        sched_file.write_text("0 0 0\n0 0 0\n")
        assert cli_main(["schedule", "inspect", str(sched_file)]) == 0
        out = capsys.readouterr().out
        assert "Ttr=1" in out and "rank=1 " in out and "identifiable=NO" in out
        assert "minimum schedule length" not in out

    def test_shipped_example442_file_is_the_canonical_schedule(self, capsys):
        assert cli_main(["schedule", "inspect", str(EXAMPLE442_SCHEDULE)]) == 0
        assert "rank=4 condition=1.73205 identifiable=yes" in capsys.readouterr().out

    def test_default_schedule_length_shared_by_cli_and_sweep(self, tmp_path, capsys):
        # `schedule generate` without --length, a config without N
        assert cli_main(["schedule", "generate", "--users", "6", "--pilots", "4",
                         "--cells", "2"]) == 0
        printed = int(re.search(r"\bN=(\d+)", capsys.readouterr().out).group(1))
        path = tmp_path / "no_n.cfg"
        path.write_text(DESK_CFG.replace("N = 5\n", "")
                        .replace("values = 10, 20", "values = 8, 16"))
        cfg = load_experiment_config(str(path))
        assert cfg.schedule_n is None
        N = {point[2] for point in cfg.points.values()}
        assert N == {printed} == {default_schedule_length(6, 4)}

    def test_seed_base_changes_output(self, desk_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli_main(["run", desk_config, "--out", str(a)])
        cli_main(["run", desk_config, "--out", str(b), "--seed-base", "99"])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}", "--bogus"],
        ["run", "{cfg}", "--threads", "2"],
        ["schedule", "generate", "--users", "12", "--pilots", "1"],
        ["schedule", "generate", "--users", "12", "--pilots", "5", "--cells", "3",
         "--length", "0"],
        ["schedule", "generate", "--users", "12", "--pilots", "5", "--cells", "0"],
        ["schedule", "inspect", "{missing}"],
        ["schedule", "inspect", "{malformed}"],
        ["schedule", "inspect", "{single_user}"],
        ["run", "{cfg}", "--out", ""],
        ["schedule", "generate", "--users", "12", "--pilots", "5", "--cells", "3",
         "--out", ""],
        ["schedule", "generate", "--users", "12", "--pilots", "5", "--cells", "3",
         "--out", "{missing}/x.txt"],
        ["schedule", "generate", "--users", "12", "--pilots", "5", "--cells", "3",
         "--out", "{dir}"],
        ["schedule", "inspect", "{empty}"],
        ["schedule", "inspect", "{ragged}"],
        ["schedule", "generate", "--users", "4", "--pilots", "2", "--seed", "-1"],
    ])
    def test_bad_input_exits_1(self, argv, desk_config, tmp_path, capsys):
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("0 1 x\n")
        single_user = tmp_path / "single_user.txt"
        single_user.write_text("0\n1\n")
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        ragged = tmp_path / "ragged.txt"
        ragged.write_text("0 1 2\n1 0\n")
        paths = {"cfg": desk_config, "missing": str(tmp_path / "missing.txt"),
                 "malformed": str(malformed), "single_user": str(single_user),
                 "empty": str(empty), "ragged": str(ragged), "dir": str(tmp_path)}
        argv = [a.format(**paths) for a in argv]
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 1
        out, err = capsys.readouterr()
        assert err and out == ""
        if "--seed" in argv:
            assert "--seed" in err

    @pytest.mark.parametrize("edits, extra", [
        ([("sigma_v2 = 0.2", "sigma_v2 = nan")], []),
        ([("sigma_v2 = 0.2", "sigma_v2 = inf")], []),
        ([("tol = 1e-8", "tol = nan"),
          ("estimators = genie, ls", "estimators = genie, ml, ls")], []),
        ([("power = 1.0", "power = nan")], []),
        ([("seed = 7", "seed = -3")], []),
        ([], ["--seed-base", "-1"]),
    ], ids=["sigma_v2-nan", "sigma_v2-inf", "tol-nan", "power-nan", "seed-negative",
            "seed-base-negative"])
    def test_bad_numbers_exit_1(self, edits, extra, tmp_path, capsys):
        text = DESK_CFG
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "numbers.cfg"
        path.write_text(text)
        rc = cli_main(["run", str(path), "--out", str(tmp_path / "o.csv"), *extra])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        if edits:
            assert cli_main(["validate", str(path)]) == 1

    BANDLIMITED = "kind = bandlimited\nwidth = 4\npower = 1.0\ndynamic_range_db = 10.0\n"

    @pytest.mark.parametrize("old, new, named", [
        ("width = 4", "width = 0", "width"),
        ("width = 4", "width = 9", "width"),
        ("width = 4", "width = 4\ncenter = 8", "[profile] center"),
        ("width = 4", "width = 4\ncenter = -1", "[profile] center"),
        ("power = 1.0", "power = -1", "power"),
        (BANDLIMITED, "kind = uniform\npower = -1\n", "power"),
        (BANDLIMITED, "kind = uniform\npower = 0\n", "power must be finite and > 0"),
        ("dynamic_range_db = 10.0", "dynamic_range_db = inf", "dynamic_range_db"),
        ("kind = bandlimited", "kind = gaussian", "kind must be one of"),
        (BANDLIMITED, "kind = random_sparse\nsupport_fraction = 1.5\n",
         "support_fraction"),
        ("width = 4\n", "", "width"),
        (BANDLIMITED, "kind = random_sparse\ntotal_power = 1.0\n", "support_fraction"),
        ("max_iter = 100", "max_iter = 100\nml_scalling = shared", "ml_scalling"),
        ("[link]", "[output]\nformat = csv\n\n[link]", "[output]"),
        ("width = 4", "width = 4\nsupport_fraction = 0.5", "support_fraction"),
        ("Ttr = 4", "Ttr = 3", "every cell occupies all pilots"),
        ("mode = random\nN = 5", "mode = imported\npath = {sched}", "covers 4 users"),
        ("mode = random\nN = 5", "mode = imported\npath = {six_users}\nN = 9",
         "[schedule] N"),
        ("mode = random\nN = 5", "mode = random\nN = 5\npath = nowhere.txt",
         "[schedule] path is read only in imported mode"),
        ("values = 10, 20", "values = 10, 10", "values repeat 10"),
        ("estimators = genie, ls", "estimators = genie, genie, ls",
         "estimators repeat 'genie'"),
        ("mode = random\nN = 5", EXAMPLE442_SECTION, "imported schedule covers 4 users"),
        ("axis = T\nvalues = 10, 20", "axis = Ttr\nvalues = 7", "Ttr must be in"),
        (DESK_CFG, TTR_SWEEP_CFG.replace("{T}", "0"), "T=0"),
        (DESK_CFG, TTR_SWEEP_CFG.replace("{T}", "-5"), "T=-5"),
        ("axis = T", "axis = N", "axis must be T or Ttr"),
        ("values = 10, 20", "values = 0", "values must be positive"),
        ("trials = 3", "trials = 0", "trials must be >= 1"),
        ("mode = random\nN = 5", "mode = imported", "path is required"),
        ("mode = random\nN = 5", "mode = affine", "mode must be random"),
        ("max_iter = 100", "max_iter = 100\nml_scaling = pooled", "ml_scaling must be"),
        ("eval_intervals = 4", "eval_intervals = 0", "eval_intervals must be >= 1"),
        ("T_coh = 100", "T_coh = 4", "T_coh=4 must exceed Ttr=4"),
        ("sigma_v2 = 0.2", "sigma_v2 = 0", "[scenario] sigma_v2 must be finite and > 0"),
        ("sigma_v2 = 0.2", "sigma_v2 = 1e-300", "[scenario] sigma_v2"),
        ("mode = random\nN = 5", "mode = imported\npath = sched%1.txt", "[schedule] path"),
        ("power = 1.0", "power = 1.0%", "[profile] power"),
        ("mode = random\nN = 5", "mode = imported\npath = %(mode)s.txt",
         "[schedule] path %(mode)s.txt"),
    ], ids=["width-0", "width-above-M", "center-at-M", "center-negative",
            "bandlimited-power-negative",
            "uniform-power-negative", "uniform-power-zero", "dynamic-range-inf",
            "profile-kind-unknown",
            "support-fraction-above-1", "width-missing",
            "support-fraction-missing", "misspelt-key", "unknown-section",
            "key-of-other-kind", "cells-saturate-pilots", "imported-K-mismatch",
            "N-outside-random-mode", "path-outside-imported-mode",
            "repeated-sweep-value", "repeated-estimator", "example442-at-desk-geometry",
            "swept-Ttr-above-K", "ttr-sweep-window-0", "ttr-sweep-window-negative",
            "sweep-axis-unknown", "sweep-value-0", "trials-0", "imported-without-path",
            "schedule-mode-unknown", "ml-scaling-unknown", "eval-intervals-0",
            "t-coh-not-above-ttr", "sigma-v2-0", "sigma-v2-weights-overflow",
            "percent-in-path", "percent-in-number", "interpolation-syntax-in-path"])
    def test_config_refused_at_validate(self, old, new, named, tmp_path, capsys):
        sched = tmp_path / "four_users.txt"
        sched.write_text("0 1 2 3\n1 2 3 0\n")
        six_users = tmp_path / "six_users.txt"
        six_users.write_text("0 1 2 3 0 1\n1 2 3 0 1 2\n2 3 0 1 3 0\n"
                             "3 0 1 2 2 3\n0 2 3 1 3 0\n")
        assert old in DESK_CFG
        path = tmp_path / "refused.cfg"
        path.write_text(DESK_CFG.replace(old, new.format(sched=sched, six_users=six_users)))
        for argv in (["validate", str(path)],
                     ["run", str(path), "--out", str(tmp_path / "o.csv")]):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error") and named in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("text, named", [
        (None, "cannot read config file"),
        ("M = 8\n", "config parse error"),
        (b"[scenario]\nM = 8\xff\n", "cannot read config file"),
    ], ids=["missing-file", "no-section-header", "not-utf-8"])
    def test_unreadable_config_refused_at_validate(self, text, named, tmp_path, capsys):
        path = tmp_path / "unreadable.cfg"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        assert cli_main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--help"])
        assert exc.value.code == 0

    def test_numerical_failure_in_run_exits_2(self, desk_config, tmp_path, monkeypatch):
        from pilotcov import SingularSystemError, cli

        def singular(cfg, **kwargs):
            raise SingularSystemError("weighted normal equations are singular")

        monkeypatch.setattr(cli, "run_experiment", singular)
        assert cli_main(["run", desk_config, "--out", str(tmp_path / "o.csv")]) == 2

    def test_indefinite_adaptive_system_in_run_exits_2(self, tmp_path, monkeypatch,
                                                      capsys):
        # antenna row 2 enters the first update with an indefinite Gram
        # matrix, so the first stacked solve of the adaptive estimator fails
        # on that slice alone, and names it
        from pilotcov import estimators

        update = estimators.adaptive_update

        def indefinite(Xi, psi, A, d, r, lam, floor=0.0):
            Xi[2] = -100.0 * np.eye(Xi.shape[-1])
            return update(Xi, psi, A, d, r, lam, floor=floor)

        monkeypatch.setattr(estimators, "adaptive_update", indefinite)
        path = tmp_path / "adaptive.cfg"
        path.write_text(DESK_CFG.replace("estimators = genie, ls",
                                         "estimators = adaptive"))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "indefinite" in err and "of stacked system 2 " in err

    @pytest.mark.parametrize("profile, named, norm", [
        ("kind = uniform\npower = 1e-200\n", "Uniform(power=1e-200)", "norm 0.0"),
        (BANDLIMITED.replace("10.0", "1e6"), "dynamic_range_db=1000000.0", "norm 0.0"),
        ("kind = uniform\npower = 1e300\n", "Uniform(power=1e+300)", "norm inf"),
    ], ids=["uniform-power-underflows", "bandlimited-range-underflows",
            "uniform-power-overflows"])
    def test_underflowing_ground_truth_exits_2(self, profile, named, norm, tmp_path,
                                                capsys):
        # each passes validation, but the norm of the drawn truth underflows
        # to 0 or overflows to inf, so no estimation error relative to it exists
        path = tmp_path / "underflow.cfg"
        path.write_text(DESK_CFG.replace(self.BANDLIMITED, profile))
        assert cli_main(["validate", str(path)]) == 0
        out = tmp_path / "o.csv"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error") and named in err and norm in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_non_finite_estimate_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        from pilotcov import experiment

        def nan_ml(B, Pi, sigma_v2, tol=1e-8, max_iter=200):
            return (np.full((B.shape[0], Pi.shape[0]), np.nan),
                    np.ones(B.shape[0], dtype=bool))

        monkeypatch.setattr(experiment, "estimate_all_rows_ml", nan_ml)
        with pytest.raises(ValueError, match="ml estimate contains non-finite"):
            run_experiment(_tiny_config(estimators=("genie", "ml"), trials=1))
        path = tmp_path / "ml.cfg"
        path.write_text(DESK_CFG.replace("estimators = genie, ls",
                                         "estimators = ml"))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_tiny_noise_power_exits_2_with_one_warning_per_line(self, tmp_path):
        # a noise power about 1e-10 of the signal's gives band-limited rows
        # at c = 0 slot weights near 1/sigma_v2**2, and the weighted Gram
        # matrix of ML is then too ill-conditioned to factor (the config
        # passes the sqrt(tiny) bound on sigma_v2).  Run in a fresh process:
        # the suite's filter would raise the LinAlgWarning instead.
        text = (ROOT / "configs" / "desk.cfg").read_text()
        for old, new in [("sigma_v2 = 0.1", "sigma_v2 = 1e-10"),
                         ("values = 30, 60, 120, 240", "values = 30"),
                         ("trials = 20", "trials = 1")]:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "tiny_noise.cfg"
        path.write_text(text)
        src = str(ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "pilotcov.cli", "run", str(path),
             "--out", str(tmp_path / "o.csv")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "singular or indefinite" in proc.stderr.splitlines()[-1]
        # the warning text does not vary, so each line that warns shows once
        warned = [line.split(": LinAlgWarning")[0]
                  for line in proc.stderr.splitlines() if "LinAlgWarning" in line]
        assert 1 <= len(warned) == len(set(warned)), proc.stderr
        assert not (tmp_path / "o.csv").exists()


# values a config may not hold, or may hold only in some keys
BAD_TOKENS = ["", "%", "%(x)s", "nan", "inf", "-1", "1e400", "abc", "é", "1" + "0" * 29,
              "ml, ml"]
DESK_FILE_LINES = (ROOT / "configs" / "desk.cfg").read_text().splitlines()
VALUE_LINES = [i for i, line in enumerate(DESK_FILE_LINES) if re.match(r"\w+ = ", line)]


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(VALUE_LINES), st.sampled_from(BAD_TOKENS)),
                min_size=1, max_size=3, unique_by=lambda edit: edit[0]))
def test_bad_values_never_escape_validate(tmp_path, edits):
    # whatever replaces 1-3 values of configs/desk.cfg, validate accepts it
    # (exit 0) or refuses it as bad input (exit 1): no exception escapes
    lines = list(DESK_FILE_LINES)
    for i, token in edits:
        lines[i] = f"{lines[i].split(' = ')[0]} = {token}"
    path = tmp_path / "mutated.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli_main(["validate", str(path)]) in (0, 1)


@pytest.mark.parametrize("axis", ["T", "Ttr"])
@pytest.mark.parametrize("estimators, averages", [
    (("genie", "ml", "two_step", "ls"), 1),
    (("adaptive", "ls"), 0),
], ids=["inverting", "adaptive-only"])
def test_unit_ranks_each_schedule_and_averages_slots_once(estimators, averages, axis,
                                                         monkeypatch):
    # a T sweep draws one random schedule per trial, which its points share;
    # a Ttr sweep draws one per unit.  Slot averages are taken once per unit.
    import pilotcov
    from pilotcov import Schedule, experiment, schedule

    calls = {"schedules": 0, "ranks": 0, "averages": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Schedule, "__post_init__",
                        counting("schedules", Schedule.__post_init__))
    # every module binding, so a rank check made anywhere is counted
    rank = counting("ranks", schedule.rank_and_condition)
    for module in (schedule, experiment, pilotcov.estimators, pilotcov.cli):
        monkeypatch.setattr(module, "rank_and_condition", rank, raising=False)
    monkeypatch.setattr(experiment, "estimate_obs_covariances",
                        counting("averages", experiment.estimate_obs_covariances))
    sweep = {"T": dict(sweep_values=(20, 10)),
             "Ttr": dict(sweep_axis="Ttr", sweep_values=(5, 4), T=10)}[axis]
    cfg = _tiny_config(estimators=estimators, trials=2, **sweep)
    run_experiment(cfg)
    units = len(cfg.sweep_values) * cfg.trials
    assert calls["schedules"] == (cfg.trials if axis == "T" else units)
    assert calls["ranks"] == calls["schedules"]
    assert calls["averages"] == averages * units


def test_t_sweep_evaluates_genie_and_ls_once_per_trial(monkeypatch):
    # genie and LS read no training window, so their rates are the same at
    # every T and are evaluated once per trial; two-step's are per unit.
    # Each estimator is still estimated in every unit.
    from pilotcov import experiment

    estimated, filters = [], {}
    estimate, rzf = experiment._estimate_covariances, experiment.rzf_filter

    def naming(name, *args):
        estimated.append(name)
        return estimate(name, *args)

    def counting(*args, **kwargs):
        filters[estimated[-1]] = filters.get(estimated[-1], 0) + 1
        return rzf(*args, **kwargs)

    monkeypatch.setattr(experiment, "_estimate_covariances", naming)
    monkeypatch.setattr(experiment, "rzf_filter", counting)
    cfg = _tiny_config(estimators=("genie", "ls", "two_step"), trials=1,
                       sweep_values=(20, 10))
    run_experiment(cfg)
    per_evaluation = min(cfg.schedule_n, cfg.eval_intervals)
    units = len(cfg.sweep_values) * cfg.trials
    assert filters == {"genie": per_evaluation * cfg.trials,
                       "ls": per_evaluation * cfg.trials,
                       "two_step": per_evaluation * units}
    assert sorted(estimated) == sorted(cfg.estimators * units)


def test_ml_scores_each_backtrack_with_one_llf_call(monkeypatch):
    # per ML row: one LLF call for the warm start, then one stacked call for
    # the ten halvings of each backtrack; the full steps are scored from the
    # slot powers the iteration computes anyway
    from pilotcov import estimators

    llf, fixed_point = estimators.negative_llf, estimators.ml_fixed_point
    shapes, per_row = [], []

    def counting_llf(c_m, *args, **kwargs):
        shapes.append(np.shape(c_m))
        return llf(c_m, *args, **kwargs)

    def counted_fixed_point(*args, **kwargs):
        shapes.clear()
        result = fixed_point(*args, **kwargs)
        K = result.c_hat.size
        per_row.append((shapes.count((K,)), shapes.count((10, K)), len(shapes),
                        result.iterations))
        return result

    monkeypatch.setattr(estimators, "negative_llf", counting_llf)
    monkeypatch.setattr(estimators, "ml_fixed_point", counted_fixed_point)
    run_experiment(_tiny_config(estimators=("ml",), trials=2))
    assert per_row
    assert any(backtracks for _, backtracks, _, _ in per_row), "no row backtracked"
    assert all(starts == 1 and calls == 1 + backtracks and backtracks <= iterations
               for starts, backtracks, calls, iterations in per_row), per_row


def test_genie_beats_ls_in_most_seeds():
    cfg = _tiny_config(
        estimators=("genie", "ls"), sweep_values=(20,), trials=10,
        eval_intervals=10,
    )
    res = run_experiment(cfg)
    genie = {r.seed: r.sum_rate for r in res if r.estimator == "genie"}
    ls = {r.seed: r.sum_rate for r in res if r.estimator == "ls"}
    wins = sum(genie[s] >= ls[s] for s in genie)
    assert wins >= 9  # >= 90% of seeds


def test_imported_schedule_mode(tmp_path):
    from pilotcov import make_random_schedule, save_schedule

    rng = np.random.default_rng(0)
    sched = make_random_schedule(6, 4, 5, 2, rng)
    path = tmp_path / "sched.txt"
    save_schedule(sched, str(path))
    cfg = _tiny_config(
        schedule_mode="imported", schedule_path=str(path), schedule_n=None,
        estimators=("two_step",), sweep_values=(10,), trials=2,
    )
    res = run_experiment(cfg)
    assert all(r.status == "ok" for r in res)


def test_imported_schedule_read_once_per_sweep_value(tmp_path, monkeypatch):
    from pilotcov import experiment, make_random_schedule, save_schedule

    load_schedule, reads = experiment.load_schedule, [0]

    def counting_load(*args, **kwargs):
        reads[0] += 1
        return load_schedule(*args, **kwargs)

    monkeypatch.setattr(experiment, "load_schedule", counting_load)
    path = tmp_path / "sched.txt"
    save_schedule(make_random_schedule(6, 4, 5, 2, np.random.default_rng(0)), str(path))
    imported = dict(schedule_mode="imported", schedule_path=str(path), schedule_n=None,
                    estimators=("genie", "two_step"), sweep_values=(10, 20), trials=3)
    cfg = _tiny_config(**imported)
    assert reads[0] == 2
    records = run_experiment(cfg)
    assert reads[0] == 2
    # the units run the schedule the config checked, not what the file now holds
    save_schedule(make_random_schedule(6, 4, 5, 2, np.random.default_rng(1)), str(path))
    assert run_experiment(cfg) == records
    assert run_experiment(_tiny_config(**imported)) != records
    # so does `pilotcov run`, with or without a seed base
    cfg_path = tmp_path / "imported.cfg"
    cfg_path.write_text(DESK_CFG.replace("mode = random\nN = 5",
                                         f"mode = imported\npath = {path}"))
    for seed_base in ([], ["--seed-base", "3"]):
        reads[0] = 0
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv"),
                         *seed_base]) == 0
        assert reads[0] == 2


ALL_ESTIMATORS = ("genie", "ml", "two_step", "adaptive", "ls")


def _shared_sweep_config(mode, tmp_path) -> ExperimentConfig:
    if mode == "example442":
        return _example442_config(estimators=ALL_ESTIMATORS, sweep_values=(18, 9))
    if mode == "ttr":
        return _tiny_config(sweep_axis="Ttr", sweep_values=(5, 4), T=10,
                            estimators=ALL_ESTIMATORS, trials=2)
    if mode == "imported":
        from pilotcov import save_schedule

        path = tmp_path / "sched.txt"
        save_schedule(make_random_schedule(6, 4, 5, 2, np.random.default_rng(0)), str(path))
        return _tiny_config(schedule_mode="imported", schedule_path=str(path),
                            schedule_n=None, sweep_values=(60, 30),
                            estimators=ALL_ESTIMATORS, trials=2)
    return _tiny_config(sweep_values=(60, 30), estimators=ALL_ESTIMATORS, trials=2)


@pytest.mark.parametrize("mode", ["random", "example442", "imported", "ttr"])
def test_sweep_equals_its_single_value_sweeps(mode, tmp_path):
    # the points of a trial share their draws, so a sweep must give, bit
    # for bit, the records of its values run one at a time
    from dataclasses import replace

    cfg = _shared_sweep_config(mode, tmp_path)
    one_at_a_time = tuple(r for v in cfg.sweep_values
                          for r in run_experiment(replace(cfg, sweep_values=(v,))))
    records = run_experiment(cfg)
    assert [(r.axis_value, r.seed) for r in records[::len(ALL_ESTIMATORS)]] == [
        (v, s) for v in cfg.sweep_values for s in range(cfg.trials)]
    assert records == one_at_a_time


@pytest.mark.parametrize("axis", ["T", "Ttr"])
def test_trial_draws_freed_before_next_trial_drawn(axis, monkeypatch):
    # a trial's draws are alive only while its units run: when the next
    # trial draws its truth, the last trial's truth is gone
    import gc
    import weakref

    from pilotcov import experiment

    draw = experiment.generate_covariance_set
    drawn = []

    def tracked(*args):
        gc.collect()
        assert not drawn or drawn[-1]() is None, "the last trial's truth is alive"
        truth = draw(*args)
        drawn.append(weakref.ref(truth))
        return truth

    monkeypatch.setattr(experiment, "generate_covariance_set", tracked)
    cfg = (_tiny_config() if axis == "T"
           else _tiny_config(sweep_axis="Ttr", sweep_values=(5, 4), T=10))
    run_experiment(cfg)
    gc.collect()
    assert len(drawn) == cfg.trials >= 2 and drawn[-1]() is None


def test_run_refuses_missing_output_directory_before_any_unit(desk_config, tmp_path,
                                                               monkeypatch, capsys):
    from pilotcov import experiment

    def no_unit(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(experiment, "_run_unit", no_unit)
    out = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", desk_config, "--out", str(out)])
    assert exc.value.code == 1
    assert "missing_dir" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("case", ["directory", "unwritable"])
def test_run_refuses_unwritable_output_before_any_unit(case, desk_config, tmp_path,
                                                      monkeypatch, capsys):
    import os

    from pilotcov import experiment

    def no_unit(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(experiment, "_run_unit", no_unit)
    if case == "directory":
        out = tmp_path / "out.csv"
        out.mkdir()
        named = "is a directory"
    else:
        folder = tmp_path / "locked"
        folder.mkdir()
        folder.chmod(0o500)
        out = folder / "out.csv"
        named = "is not writable"
        # a process that may write anywhere (root) is refused this directory
        # as it would be a read-only one
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode, **kw: (
            Path(p) != folder and access(p, mode, **kw)))
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", desk_config, "--out", str(out)])
    assert exc.value.code == 1
    assert named in capsys.readouterr().err
    assert out.is_dir() == (case == "directory")


def test_timing_flag_records_wall_clock(tmp_path, desk_config):
    out = tmp_path / "timed.csv"
    assert cli_main(["run", desk_config, "--out", str(out), "--timing"]) == 0
    rows = out.read_text().splitlines()[1:]
    runtimes = [row.split(",")[5] for row in rows]
    assert any(rt != "0" for rt in runtimes)


def test_emit_csv_unwritable_path_raises(tmp_path):
    res = (Record(1, "ls", 0, 1.0, None, 0.0),)
    with pytest.raises(OSError):
        emit_csv(res, str(tmp_path / "missing_dir" / "out.csv"))


def _serving_estimates_loop(Phi, pilots, served, C_used, sigma_v2):
    """Reference: one served user at a time, its slot variance from a mask."""
    H_hat = np.empty((Phi.shape[0], served.size), dtype=complex)
    for j, k in enumerate(served):
        col = Phi[:, pilots[k]]
        if C_used is None:
            H_hat[:, j] = ls_channel_estimate(col)
        else:
            sharing = pilots == pilots[k]
            c_obs = C_used[:, sharing].sum(axis=1) + sigma_v2
            H_hat[:, j] = mmse_channel_estimate(col, C_used[:, k], c_obs)
    return H_hat


def _evaluate_rates_loop(H, Phi, schedule, served, C_used, sigma_v2, overhead):
    """Reference: one evaluation interval at a time, each through the
    per-user serving loop and a single-draw filter and rate."""
    rates = np.empty(H.shape[0])
    for e in range(H.shape[0]):
        H_hat = _serving_estimates_loop(Phi[e], schedule.pilots[e % schedule.N], served,
                                        C_used, sigma_v2)
        W = rzf_filter(H_hat, sigma_v2)
        rates[e] = uplink_sum_rate(W, H[e], sigma_v2, served=served, overhead=overhead)
    return rates


@pytest.mark.parametrize("with_cov", [True, False], ids=["mmse", "ls"])
def test_allocation_evaluation_matches_per_user_loop(with_cov):
    # random geometries: 1-4 cells of 1-4 users, pilots reused across cells,
    # E intervals over 1-4 allocations
    rng = np.random.default_rng(11)
    for _ in range(50):
        cells, per_cell = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        Ttr, M = int(rng.integers(per_cell, per_cell + 3)), int(rng.integers(1, 9))
        N, E = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        # distinct pilots inside each cell, reused across cells
        schedule = Schedule(np.stack([
            np.concatenate([rng.permutation(Ttr)[:per_cell] for _ in range(cells)])
            for _ in range(N)]), Ttr)
        K = cells * per_cell
        served = per_cell * int(rng.integers(cells)) + np.arange(per_cell)
        H = rng.standard_normal((E, M, K)) + 1j * rng.standard_normal((E, M, K))
        Phi = rng.standard_normal((E, M, Ttr)) + 1j * rng.standard_normal((E, M, Ttr))
        C_used = rng.uniform(0.0, 2.0, size=(M, K)) if with_cov else None
        sigma_v2, overhead = rng.uniform(0.05, 1.0), rng.uniform(0.5, 1.0)
        np.testing.assert_allclose(
            _evaluate_rates(H, Phi, schedule, served, C_used, sigma_v2, overhead),
            _evaluate_rates_loop(H, Phi, schedule, served, C_used, sigma_v2, overhead),
            rtol=1e-12,
        )


@pytest.mark.parametrize("with_cov", [True, False], ids=["mmse", "ls"])
@pytest.mark.parametrize("E", [1, 4, 5, 13], ids=["1", "N-1", "N", "2N+3"])
def test_allocation_evaluation_matches_per_interval_loop(with_cov, E):
    rng = np.random.default_rng(12)
    M, K, Ttr, N, sigma_v2, overhead = 9, 6, 4, 5, 0.2, 0.95
    schedule = make_random_schedule(K, Ttr, N, 2, rng)
    H = rng.standard_normal((E, M, K)) + 1j * rng.standard_normal((E, M, K))
    Phi = np.stack([H[e] @ schedule.allocations[e % N] for e in range(E)])
    Phi += np.sqrt(sigma_v2 / 2) * (rng.standard_normal(Phi.shape)
                                    + 1j * rng.standard_normal(Phi.shape))
    C_used = rng.uniform(0.1, 2.0, size=(M, K)) if with_cov else None
    served = np.arange(3, 6)
    rates = _evaluate_rates(H, Phi, schedule, served, C_used, sigma_v2, overhead)
    np.testing.assert_allclose(
        rates,
        _evaluate_rates_loop(H, Phi, schedule, served, C_used, sigma_v2, overhead),
        rtol=1e-12,
    )
