import numpy as np
import pytest

from pilotcov import (
    Allocation,
    BandLimited,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    Record,
    ScenarioConfig,
    Uniform,
    UserGrouping,
    emit_csv,
    load_experiment_config,
    load_result_csv,
    ls_channel_estimate,
    mmse_channel_estimate,
    run_experiment,
)
from pilotcov.cli import main as cli_main
from pilotcov.experiment import _serving_estimates

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


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK_CFG)
    return str(path)


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

    def test_missing_section_named_in_error(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[scenario]\nM = 4\n")
        with pytest.raises(ConfigError, match=r"\[scenario\] K"):
            load_experiment_config(path)

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
        with pytest.raises(ConfigError, match="sigma_v2"):
            _tiny_config(
                scenario=ScenarioConfig(
                    M=8, K=6, Ttr=4, sigma_v2=0.0, num_cells=2,
                    users_per_cell=3, seed=7,
                )
            )

    def test_infeasible_cell_constraint_surfaced_before_run(self):
        with pytest.raises(ConfigError, match="users per cell"):
            _tiny_config(sweep_axis="Ttr", sweep_values=(2,), T=10)


class TestRunExperiment:
    def test_record_counting(self):
        res = run_experiment(_tiny_config())
        assert len(res.records) == 2 * 2 * 3  # estimators x sweep x trials
        combos = {(r.axis_value, r.estimator, r.seed) for r in res.records}
        assert len(combos) == len(res.records)

    def test_genie_rmse_exactly_zero(self):
        res = run_experiment(_tiny_config())
        for r in res.records:
            if r.estimator == "genie":
                assert r.cov_rmse == 0.0

    def test_ls_has_no_cov_rmse(self):
        res = run_experiment(_tiny_config())
        for r in res.records:
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
        for r in res.records:
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
        assert len(res.records) == 1
        assert res.records[0].cov_rmse is not None

    def test_ttr_sweep(self):
        cfg = _tiny_config(
            sweep_axis="Ttr", sweep_values=(4, 6), T=10, schedule_n=5,
        )
        res = run_experiment(cfg)
        assert {r.axis_value for r in res.records} == {4, 6}

    def test_example442_mode(self):
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(
                M=6, K=4, Ttr=2, sigma_v2=0.2, num_cells=1, seed=3
            ),
            profile=Uniform(power=1.0),
            schedule_mode="example442",
            estimators=("genie", "two_step"),
            sweep_values=(9,),
            trials=2,
            eval_intervals=3,
        )
        res = run_experiment(cfg)
        assert all(r.status == "ok" for r in res.records)


class TestCSV:
    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ExperimentResult(()), path)
        assert path.read_text() == "axis,estimator,seed,sum_rate,cov_rmse,runtime_ms\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(
            ExperimentResult((Record(10, "genie", 0, 1.25, 0.0, 0.0),)), path
        )
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
        emit_csv(ExperimentResult(recs), path)
        keys = [ln.split(",")[:3] for ln in path.read_text().splitlines()[1:]]
        assert keys == sorted(keys, key=lambda k: (int(k[0]), k[1], int(k[2])))

    def test_round_trip_reproduces_records(self, tmp_path):
        cfg = _tiny_config(estimators=("genie", "two_step", "ls"))
        res = run_experiment(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(res, p1)
        emit_csv(load_result_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_markers_survive_round_trip(self, tmp_path):
        recs = (
            Record(5, "two_step", 0, None, None, 0.0, status="unidentifiable"),
            Record(5, "ls", 0, 2.5, None, 0.0),
        )
        path = tmp_path / "mark.csv"
        emit_csv(ExperimentResult(recs), path)
        text = path.read_text()
        assert "unidentifiable,unidentifiable" in text
        loaded = load_result_csv(path)
        assert loaded.records[1].status == "unidentifiable"
        assert loaded.records[0].cov_rmse is None


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
    ])
    def test_bad_input_exits_1(self, argv, desk_config, tmp_path, capsys):
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("0 1 x\n")
        paths = {"cfg": desk_config, "missing": str(tmp_path / "missing.txt"),
                 "malformed": str(malformed)}
        argv = [a.format(**paths) for a in argv]
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 1
        assert capsys.readouterr().err

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


def test_genie_beats_ls_in_most_seeds():
    cfg = _tiny_config(
        estimators=("genie", "ls"), sweep_values=(20,), trials=10,
        eval_intervals=10,
    )
    res = run_experiment(cfg)
    genie = {r.seed: r.sum_rate for r in res.records if r.estimator == "genie"}
    ls = {r.seed: r.sum_rate for r in res.records if r.estimator == "ls"}
    wins = sum(genie[s] >= ls[s] for s in genie)
    assert wins >= 9  # >= 90% of seeds


def test_imported_schedule_mode(tmp_path):
    from pilotcov import UserGrouping, make_random_schedule, save_schedule

    rng = np.random.default_rng(0)
    grouping = UserGrouping.contiguous(2, 3)
    sched = make_random_schedule(6, 4, 5, grouping, rng)
    path = tmp_path / "sched.txt"
    save_schedule(sched, str(path))
    cfg = _tiny_config(
        schedule_mode="imported", schedule_path=str(path), schedule_n=None,
        estimators=("two_step",), sweep_values=(10,), trials=2,
    )
    res = run_experiment(cfg)
    assert all(r.status == "ok" for r in res.records)


def test_timing_flag_records_wall_clock(tmp_path, desk_config):
    out = tmp_path / "timed.csv"
    assert cli_main(["run", desk_config, "--out", str(out), "--timing"]) == 0
    rows = out.read_text().splitlines()[1:]
    runtimes = [row.split(",")[5] for row in rows]
    assert any(rt != "0" for rt in runtimes)


def test_emit_csv_unwritable_path_raises(tmp_path):
    res = ExperimentResult((Record(1, "ls", 0, 1.0, None, 0.0),))
    with pytest.raises(OSError):
        emit_csv(res, str(tmp_path / "missing_dir" / "out.csv"))


def _serving_estimates_loop(Phi, alloc, served, C_used, sigma_v2):
    """Reference: one served user at a time, its slot variance from a mask."""
    H_hat = np.empty((Phi.shape[0], served.size), dtype=complex)
    pilots = alloc.pilot_of_user
    for j, k in enumerate(served):
        col = Phi[:, pilots[k]]
        if C_used is None:
            H_hat[:, j] = ls_channel_estimate(col)
        else:
            sharing = alloc.assignment[:, pilots[k]] == 1
            c_obs = C_used[:, sharing].sum(axis=1) + sigma_v2
            H_hat[:, j] = mmse_channel_estimate(col, C_used[:, k], c_obs)
    return H_hat


@pytest.mark.parametrize("with_cov", [True, False], ids=["mmse", "ls"])
def test_serving_estimates_match_per_user_loop(with_cov):
    rng = np.random.default_rng(11)
    for _ in range(50):
        cells, per_cell = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        Ttr, M = int(rng.integers(per_cell, per_cell + 3)), int(rng.integers(1, 9))
        # distinct pilots inside each cell, reused across cells
        alloc = Allocation.from_pilot_indices(np.concatenate(
            [rng.permutation(Ttr)[:per_cell] for _ in range(cells)]), Ttr)
        served = UserGrouping.contiguous(cells, per_cell).members(
            int(rng.integers(cells)))
        Phi = rng.standard_normal((M, Ttr)) + 1j * rng.standard_normal((M, Ttr))
        C_used = rng.uniform(0.0, 2.0, size=(M, alloc.K)) if with_cov else None
        sigma_v2 = rng.uniform(0.05, 1.0)
        np.testing.assert_allclose(
            _serving_estimates(Phi, alloc, served, C_used, sigma_v2),
            _serving_estimates_loop(Phi, alloc, served, C_used, sigma_v2),
            rtol=1e-12,
        )
