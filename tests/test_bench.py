import json
import math
import os
import subprocess
import sys
import time

import pytest

import percband
from percband import bench, geometry, learner
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
from percband.cli import build_config, build_parser, main, merge_settings, parse_noise, parse_sweep
from percband.oracles import NoiseModel
from percband.verify import all_passed, run_suite

from conftest import traced_peak_bytes


def readme_block(heading, fence):
    """The first ``fence`` code block under ``heading`` in the README."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read().split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


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

    def test_high_dimensional_trial_memory_is_bounded(self):
        cfg = small_config(d=5000, epsilon=0.2, scale_m=0.002, trials=1)
        row, peak = traced_peak_bytes(lambda: run_trial(cfg, 0, 0))
        assert row.labels > 0
        assert peak < 8 * geometry.CHUNK_BYTES

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
        # verify is no run_single mode: the CLI hands it to run_suite and write_verify_csv.
        with pytest.raises(ValueError, match="mode must be one of"):
            ExperimentConfig(mode="verify")
        out = tmp_path / "verify.csv"
        code = main(["verify", "--seed", "1", "--samples", "20000", "--out", str(out)])
        results = run_suite(1, n_samples=20_000)
        assert code == (0 if all_passed(results) else 1)
        lines = out.read_text().splitlines()
        assert lines[0] == "check,passed,statistic,bound,margin,detail"
        assert len(lines) == len(results) + 1

    def test_verify_mode_honours_sample_count(self, tmp_path):
        out, expected = tmp_path / "verify.csv", tmp_path / "expected.csv"
        assert main(["verify", "--seed", "4", "--samples", "20000", "--out", str(out)]) in (0, 1)
        bench.write_verify_csv(str(expected), run_suite(4, n_samples=20_000))
        assert out.read_bytes() == expected.read_bytes()
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            run_suite(4, n_samples=0)

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

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        assert len(run_single(small_config(jobs=64, trials=2))) == 2
        assert workers == [2]

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
        (["--jobs", "0"], None),
        (["--out", os.path.join("no-such-dir", "run.csv")], None),
        (["--out", "."], None),
        (["--seed", "-1"], None),
        (["--scale-m", "inf"], None),
        (["--scale-b", "nan"], None),
    ])
    def test_bad_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.chdir(tmp_path)
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
        for spec in ("d=2.5", "d=inf"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--d", "5", "--trials", "1", "--sweep", spec])
            assert exc.value.code == 2
            assert "invalid dimension" in capsys.readouterr().err

    def test_config_file_mode_init_runs_init(self, tmp_path):
        out = tmp_path / "init.csv"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"mode": "init"}))
        assert main(["run", "--config", str(cfg_file), "--d", "5", "--epsilon", "0.5",
                     "--trials", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows and all(",init," in r for r in rows)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("mode", ["bogus", "verify"])
    def test_mode_outside_the_list_is_a_usage_error(self, tmp_path, capsys, command, mode):
        cfg_file = tmp_path / "cfg.json"
        base = {"d": 5, "trials": 1, "sweep": "epsilon=0.5"}
        for file_values, flags in (({**base, "mode": mode}, []), (base, ["--mode", mode])):
            cfg_file.write_text(json.dumps(file_values))
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg_file)] + flags)
            assert exc.value.code == 2
            assert "mode must be one of" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["--samples", "0"],
        ["--out", os.path.join("no-such-dir", "verify.csv")],
        ["--seed", "-1"],
    ])
    def test_bad_verify_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "2000"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    def test_readme_cli_lines_parse_and_build(self):
        block = readme_block("## CLI", "```sh")
        lines = [line.split()[1:] for line in block.splitlines() if line.startswith("percband ")]
        assert {argv[0] for argv in lines} == {"run", "sweep", "init-run", "verify"}
        for argv in lines:
            args = build_parser().parse_args(argv)
            settings = merge_settings(args)
            if args.command != "verify":
                build_config(args.command, settings)

    def test_readme_library_quick_start_runs(self, capsys):
        exec(readme_block("## Library quick start", "```python"), {})
        labels, draws, final_angle = capsys.readouterr().out.split()
        assert 0 < int(labels) <= int(draws) and 0.0 <= float(final_angle) <= math.pi

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

    def test_cli_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: the CLI paths that compute band
        # masses and slab thresholds must not import it. A fresh interpreter,
        # because this one has imported scipy for the tests.
        script = (
            "import json, sys\n"
            "from percband.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['run', '--d', '10', '--epsilon', '0.2', '--trials', '1',\n"
            "             '--noise', 'adversarial:0.02', '--out', out + '/adv.csv']) == 0\n"
            "assert main(['init-run', '--d', '5', '--epsilon', '0.5', '--trials', '1',\n"
            "             '--out', out + '/init.csv']) == 0\n"
            "main(['verify', '--samples', '2000', '--out', out + '/verify.csv'])\n"
            "try:\n"
            "    main(['run', '--d', '10', '--epsilon', '0.05', '--max-draws', '1000'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 2\n"
            "else:\n"
            "    raise AssertionError('the preflight did not refuse')\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(percband.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "verify.csv").exists()
        assert json.loads(proc.stdout.splitlines()[-1]) == []


class TestTimingColumn:
    def test_timing_off_by_default(self):
        row = run_trial(small_config(trials=1), 0, 0)
        assert row.wall_time_s == 0.0

    def test_timing_flag_records(self):
        row = run_trial(small_config(trials=1, measure_time=True), 0, 0)
        assert row.wall_time_s > 0.0
