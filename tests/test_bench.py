import json
import math
import time

import pytest

from percband import geometry, learner
from percband.bench import (
    CSV_HEADER,
    ExperimentConfig,
    config_for_value,
    expected_draws_per_trial,
    run_single,
    run_sweep,
    run_trial,
    trial_seed,
)
from percband.cli import main, parse_noise, parse_sweep
from percband.oracles import NoiseModel
from percband.verify import CheckResult, run_suite


def small_config(**kw):
    base = dict(
        mode="active",
        d=5,
        noise=NoiseModel.realizable(),
        epsilon=0.25,
        delta=0.1,
        trials=3,
        master_seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestTrialSeeding:
    def test_seeds_are_stable_and_distinct(self):
        s = trial_seed(0, 0, 0)
        assert s == trial_seed(0, 0, 0)
        assert len({trial_seed(0, v, t) for v in range(3) for t in range(5)}) == 15


class TestRunSingle:
    def test_one_epoch_one_row(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = small_config(trials=1, epsilon=0.5, output_path=str(out))
        rows = run_single(cfg)
        assert len(rows) == 1
        assert len(rows[0].report.traces) == 1
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_labels_column_matches_report(self):
        rows = run_single(small_config())
        for row in rows:
            assert row.labels == row.report.total_labels
            assert row.unlabeled_draws == row.report.total_unlabeled

    def test_rows_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_single(small_config(output_path=str(out1)))
        run_single(small_config(output_path=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_mode_dispatch(self, tmp_path):
        out = tmp_path / "verify.csv"
        cfg = ExperimentConfig(mode="verify", master_seed=1, output_path=str(out))
        results = run_single(cfg)
        assert all(isinstance(r, CheckResult) for r in results)
        lines = out.read_text().splitlines()
        assert lines[0] == "check,passed,statistic,bound,margin,detail"
        assert len(lines) == len(results) + 1

    def test_verify_mode_honours_sample_count(self):
        cfg = ExperimentConfig(mode="verify", master_seed=4, samples=20_000)
        assert run_single(cfg) == run_suite(4, n_samples=20_000)

    def test_init_mode_accounts_for_preamble(self):
        rows = run_single(small_config(mode="init", trials=2, epsilon=0.25))
        for row in rows:
            assert row.labels > row.report.total_labels  # init labels included


class TestBudgetExhaustion:
    @pytest.mark.parametrize("mode", ["active", "passive", "init"])
    def test_exhausted_trial_is_a_failed_row(self, monkeypatch, tmp_path, mode):
        # A budget of half the expected draws runs out in the first epoch.
        monkeypatch.setattr(learner, "DRAW_BUDGET_FACTOR", 0.5)
        out = tmp_path / "sweep.csv"
        rows, _ = run_sweep(small_config(mode=mode, trials=2, output_path=str(out)),
                            "epsilon", [0.5, 0.25])
        assert len(out.read_text().splitlines()) == 1 + len(rows) == 5
        schedule = learner.make_schedule(5, 0.5, 0.1, NoiseModel.realizable())
        m, b = schedule.m[0], schedule.b[0]
        budget = learner.default_draw_budget(m, geometry.band_mass(5, b / 2.0, b))
        for row in rows:
            assert not row.succeeded and row.report is None
            assert 0.0 <= row.final_angle <= math.pi
            if mode == "passive":
                assert row.labels == row.unlabeled_draws == budget
            elif mode == "active":
                assert row.unlabeled_draws == budget and 0 < row.labels < m
            else:
                assert row.unlabeled_draws > 0 and row.labels > 0


class TestSweep:
    def test_rows_ordered_and_summarized(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_config(output_path=str(out), trials=2)
        rows, summaries = run_sweep(cfg, "epsilon", [0.5, 0.25])
        assert [(r.value_index, r.trial) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [s.value for s in summaries] == [0.5, 0.25]
        assert all(0.0 <= s.success_rate <= 1.0 for s in summaries)
        text = out.read_text().splitlines()
        assert len(text) == 5

    def test_axis_substitution(self):
        cfg = small_config()
        assert config_for_value(cfg, "d", 8).d == 8
        assert config_for_value(cfg, "eta", 0.2).noise == NoiseModel.bounded(0.2)
        assert config_for_value(cfg, "nu", 0.01).noise == NoiseModel.adversarial(0.01)
        assert config_for_value(cfg, "epsilon", 0.1).epsilon == 0.1
        with pytest.raises(ValueError):
            config_for_value(cfg, "gamma", 1)

    def test_parallel_jobs_reproduce_serial_bytes(self, tmp_path):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        run_sweep(small_config(output_path=str(serial), trials=2), "epsilon", [0.5, 0.25])
        run_sweep(
            small_config(output_path=str(parallel), trials=2, jobs=2),
            "epsilon",
            [0.5, 0.25],
        )
        assert serial.read_bytes() == parallel.read_bytes()


class TestCli:
    def test_parse_noise(self):
        assert parse_noise("realizable") == NoiseModel.realizable()
        assert parse_noise("bounded:0.2") == NoiseModel.bounded(0.2)
        assert parse_noise("bounded_margin:0.2:0.5") == NoiseModel.bounded_margin(0.2, 0.5)
        assert parse_noise("adversarial:0.01") == NoiseModel.adversarial(0.01)
        with pytest.raises(Exception):
            parse_noise("bogus:1")

    def test_parse_sweep(self):
        axis, values = parse_sweep("epsilon=0.2,0.1")
        assert axis == "epsilon" and values == [0.2, 0.1]
        with pytest.raises(Exception):
            parse_sweep("epsilon")
        with pytest.raises(Exception):
            parse_sweep("gamma=1,2")

    def test_run_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--d", "5", "--epsilon", "0.5", "--trials", "2",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert "trials" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        out = tmp_path / "cfg.csv"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "d": 5, "epsilon": 0.5, "trials": 2, "seed": 3, "noise": "bounded:0.2",
        }))
        code = main([
            "run", "--config", str(cfg_file), "--noise", "realizable", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(",realizable," in r for r in rows)
        assert all(",5," in r for r in rows)

    @pytest.mark.parametrize("argv, noise", [
        (["--noise", "bounded_margin:0.1:0.5", "--eta", "0.3"], "bounded_margin,0.3,"),
        (["--eta", "0.3"], "bounded,0.3,"),
        (["--noise", "bounded:0.1", "--nu", "0.01"], "adversarial,0.01,"),
    ])
    def test_eta_and_nu_shortcuts(self, tmp_path, argv, noise):
        out = tmp_path / "noise.csv"
        assert main(["run", "--d", "5", "--epsilon", "0.5", "--trials", "1",
                     "--out", str(out)] + argv) == 0
        assert f",{noise}" in out.read_text().splitlines()[1]

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"dimension": 5}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(cfg_file)])

    @pytest.mark.parametrize("argv, config", [
        (["--noise", "bogus"], None),
        (["--noise", "bounded:0.7"], None),
        (["--trials", "0"], None),
        ([], {"noise": "bogus"}),
        ([], {"d": "10"}),
        ([], {"trials": 2.5}),
        ([], {"timing": 1}),
        (["--max-draws", "nan"], None),
    ])
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg_file = tmp_path / "bad.json"
            cfg_file.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg_file)]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--d", "5", "--trials", "1"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--scale-m", repr(learner.THEORY_SCALE_M), "--scale-b", repr(learner.THEORY_SCALE_B)],
        ["init-run", "--scale-m", "3e11"],
        ["sweep", "--sweep", "epsilon=0.4,0.05", "--max-draws", "1e5"],
    ])
    def test_absurd_cost_is_refused_before_running(self, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trials", "1"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "--max-draws" in err

    def test_cost_preflight_counts_every_schedule(self):
        active = expected_draws_per_trial(small_config())
        assert expected_draws_per_trial(small_config(mode="passive")) == active
        assert expected_draws_per_trial(small_config(mode="init")) > active
        assert main(["run", "--d", "5", "--epsilon", "0.25", "--trials", "1",
                     "--max-draws", repr(active)]) == 0

    def test_bad_sweep_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--d", "5", "--trials", "1", "--sweep", "d=2.5"])
        assert exc.value.code == 2
        assert "invalid dimension" in capsys.readouterr().err

    def test_config_file_float_field_takes_an_integer(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"d": 5, "epsilon": 0.5, "trials": 1, "scale_m": 4}))
        assert main(["run", "--config", str(cfg_file)]) == 0

    def test_verify_command_exit_code(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--seed", "2", "--samples", "20000", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "checks passed" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--d", "5", "--trials", "2", "--seed", "5",
            "--sweep", "epsilon=0.5,0.25", "--out", str(out),
        ])
        assert code == 0
        assert "epsilon=0.5" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 5

    def test_init_run_command(self, tmp_path):
        out = tmp_path / "init.csv"
        code = main([
            "init-run", "--d", "5", "--epsilon", "0.25", "--trials", "1",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(",init," in r for r in rows)


class TestTimingColumn:
    def test_timing_off_by_default(self):
        row = run_trial(small_config(trials=1), 0, 0)
        assert row.wall_time_s == 0.0

    def test_timing_flag_records(self):
        row = run_trial(small_config(trials=1, measure_time=True), 0, 0)
        assert row.wall_time_s > 0.0
