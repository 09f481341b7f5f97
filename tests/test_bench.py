import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import percband
from percband import bench, geometry, initialization, learner
from percband.bench import (
    CSV_HEADER,
    ExperimentConfig,
    run_trial,
    run_trials,
    steps_per_trial,
    summarize,
    trial_seed,
    write_csv,
)
from percband.cli import (
    COMMANDS,
    SETTINGS,
    SWEEP_AXES,
    build_config,
    build_parser,
    main,
    merge_settings,
    parse_noise,
    parse_sweep,
)
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


def band_preflight(config):
    """The CLI's band preflight: every schedule of the config reads its band masses."""
    for schedule in config.schedules:
        schedule.band_masses()


class TestTrialSeeding:
    def test_seeds_are_stable_and_distinct(self):
        s = trial_seed(0, 0, 0)
        assert s == trial_seed(0, 0, 0)
        assert len({trial_seed(0, v, t) for v in range(3) for t in range(5)}) == 15


class TestRunSingle:
    def test_one_epoch_one_row(self, tmp_path):
        out = tmp_path / "run.csv"
        rows = run_trials([small_config(trials=1, epsilon=0.5)])
        write_csv(str(out), rows)
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
        rows = run_trials([small_config()])
        for row in rows:
            assert row.labels == row.report.total_labels
            assert row.unlabeled_draws == row.report.total_unlabeled

    def test_trial_measures_each_epoch_boundary_once(self, monkeypatch):
        # K epochs have K + 1 boundaries, all read off the chain state, so no
        # vector is measured by geometry.angle. The row's final angle is the
        # last.
        calls = []
        angle = geometry.angle
        monkeypatch.setattr(geometry, "angle", lambda *a: calls.append(1) or angle(*a))
        row = run_trial(ExperimentConfig(d=10, epsilon=0.05, trials=1), 0, 0)
        assert len(row.report.traces) == 5
        assert len(calls) == 0
        assert row.final_angle == row.report.traces[-1].theta_after

    def test_rows_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(out1), run_trials([small_config()]))
        write_csv(str(out2), run_trials([small_config()]))
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_mode_dispatch(self, tmp_path):
        # verify is no trial mode: the CLI hands it to run_suite and write_verify_csv.
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

    def test_config_refuses_epsilon_below_the_floor(self):
        # The band-mass floor is the only limit on epsilon; band_masses()
        # refuses a config whose schedules fall below it, before any trial.
        band_preflight(ExperimentConfig(epsilon=1e-9))
        with pytest.raises(ValueError, match="below the floor"):
            band_preflight(ExperimentConfig(epsilon=1e-10))
        # init's branch runs target (1 - 2 eta) / 16, whatever epsilon says.
        band_preflight(ExperimentConfig(mode="init", noise=NoiseModel.bounded(0.49)))
        with pytest.raises(ValueError, match="below the floor"):
            band_preflight(ExperimentConfig(mode="init", noise=NoiseModel.bounded(0.4999999)))

    @pytest.mark.parametrize("mode", ["active", "init"])
    @pytest.mark.parametrize("scales", [dict(scale_m=-1.0), dict(scale_b=0.0), dict(scale_m=math.inf)])
    def test_config_refuses_bad_scale_factors(self, mode, scales):
        # Refused when the config is built, by the schedules it would run.
        with pytest.raises(ValueError, match="scale factors must be positive and finite"):
            ExperimentConfig(mode=mode, **scales)

    @pytest.mark.parametrize("field,value", [("d", 10.5), ("d", 10.0), ("trials", 2.5), ("master_seed", 1.5)])
    def test_config_refuses_a_non_integer_count(self, field, value):
        # Refused when the config is built, not by numpy inside the trial.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(epsilon=0.3, **{field: value})

    @pytest.mark.parametrize("field", ["d", "trials", "master_seed"])
    @pytest.mark.parametrize("value", [True, False])
    def test_config_refuses_a_bool_count(self, field, value):
        # A bool is an int to Python: trials=True would run one trial.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(epsilon=0.3, **{field: value})

    @pytest.mark.parametrize("field,value", [("noise", "bounded:0.2"), ("measure_time", "no"), ("measure_time", 1)])
    def test_config_refuses_a_mistyped_field(self, field, value):
        # A noise spec string is the CLI's; a truthy non-bool would turn timing on.
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            ExperimentConfig(epsilon=0.3, **{field: value})

    @pytest.mark.parametrize("field", ["epsilon", "delta", "scale_m", "scale_b"])
    @pytest.mark.parametrize("value", ["0.05", True, None, pytest.param(10**400, id="1e400")])
    def test_config_refuses_a_non_number_real_field(self, field, value):
        # By the field's name, not by a bare TypeError from a comparison.
        with pytest.raises(ValueError, match=f"^{field} (must be a real number|is beyond the float range)"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("n_samples", 1.5), ("n_samples", "5"), ("n_samples", True),
                                             ("seed", 1.5), ("seed", "0")])
    def test_run_suite_refuses_a_non_integer_by_name(self, field, value):
        # By the argument's name, not by numpy's IndexError or a bare TypeError.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_suite(**{field: value})

    def test_config_takes_numpy_integers(self):
        config = small_config(d=np.int64(5), trials=np.int64(1), master_seed=np.int64(11))
        assert run_trials([config])[0].csv_line() == run_trials([small_config(trials=1)])[0].csv_line()

    @pytest.mark.parametrize("command,built", [("run", 1), ("init-run", 2), ("sweep", 3)])
    def test_each_schedule_is_built_once_per_call(self, monkeypatch, tmp_path, command, built):
        # The config keeps its schedules: the cost preflight, the band-floor
        # check and every trial (init's branch runs included) read them. A
        # sweep builds one config per value, once each, and no other.
        values = ["--sweep", "epsilon=0.5,0.25,0.125"] if command == "sweep" else []
        calls = []
        make = learner.make_schedule
        for module in (bench, initialization):
            monkeypatch.setattr(module, "make_schedule", lambda *a, **k: calls.append(1) or make(*a, **k))
        out = tmp_path / "run.csv"
        assert main([command, "--d", "5", "--epsilon", "0.25", "--trials", "3", "--out", str(out)]
                    + values) == 0
        assert len(calls) == built
        assert len(out.read_text().splitlines()) == 1 + 3 * (3 if values else 1)

    def test_init_mode_accounts_for_preamble(self):
        # Every run charges m_k labels per epoch, so a trial's labels pass
        # the steps of its schedules by the disagreement test alone: none
        # when the branches land (anti)parallel, hypothesis_test_size otherwise.
        for noise in (NoiseModel.realizable(), NoiseModel.bounded(0.2)):
            config = small_config(mode="init", noise=noise, trials=4)
            test_size = initialization.hypothesis_test_size(noise, config.delta)
            extra = {row.labels - steps_per_trial(config) for row in run_trials([config])}
            assert extra <= {0, test_size}
            assert test_size in extra


class TestSweep:
    def test_rows_ordered_and_summarized(self):
        cfg = small_config(trials=2)
        rows = run_trials([replace(cfg, epsilon=v) for v in (0.5, 0.25)])
        assert [(r.value_index, r.trial) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [r.config.epsilon for r in rows] == [0.5, 0.5, 0.25, 0.25]
        summaries = summarize(rows)
        assert len(summaries) == 2
        assert all(0.0 <= rate <= 1.0 for _, _, rate in summaries)
        assert summarize(rows[2:]) == summaries[1:]

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_one_value_sweep_writes_the_run_csv(self, tmp_path, axis):
        # A sweep value is built as its setting's flag is, and overrides the
        # flag; both calls run value index 0, so their bytes agree.
        value = {"d": "7", "noise": "adversarial:0.01", "epsilon": "0.25"}[axis]
        common = ["--d", "5", "--noise", "bounded:0.1", "--epsilon", "0.5", "--trials", "2", "--seed", "4"]
        run, sweep = tmp_path / "run.csv", tmp_path / "sweep.csv"
        assert main(["run", *common, f"--{axis}", value, "--out", str(run)]) == 0
        assert main(["sweep", *common, "--sweep", f"{axis}={value}", "--out", str(sweep)]) == 0
        assert sweep.read_bytes() == run.read_bytes()

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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert len(run_trials([small_config(trials=2)], jobs=64)) == 2
        # Nor larger than the CPU count: --jobs 64 on 4 CPUs starts 4.
        assert len(run_trials([small_config(trials=64)], jobs=64)) == 64
        # A sweep's trials share one pool: 3 values of 1 trial at --jobs 2 start 2.
        assert main(["sweep", "--d", "5", "--trials", "1", "--jobs", "2",
                     "--sweep", "epsilon=0.5,0.25,0.125"]) == 0
        assert workers == [2, 4, 2]

    def test_jobs_below_one_is_refused_before_any_trial(self, monkeypatch):
        started = []
        monkeypatch.setattr(bench, "run_trial", lambda *a: started.append(a))
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_trials([small_config()], jobs=0)
        assert started == []

    def test_parallel_jobs_reproduce_serial_bytes(self, tmp_path):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        configs = [replace(small_config(trials=2), epsilon=v) for v in (0.5, 0.25)]
        write_csv(str(serial), run_trials(configs))
        write_csv(str(parallel), run_trials(configs, jobs=2))
        assert serial.read_bytes() == parallel.read_bytes()


class TestCli:
    def test_parse_noise(self):
        assert parse_noise("realizable") == NoiseModel.realizable()
        assert parse_noise("bounded:0.2") == NoiseModel.bounded(0.2)
        assert parse_noise("adversarial:0.01") == NoiseModel.adversarial(0.01)
        with pytest.raises(Exception):
            parse_noise("bogus:1")
        with pytest.raises(ValueError):
            parse_noise("bounded_margin:0.2:0.5")
        for spec in ("bounded:x", "adversarial:", "bounded:0.1:0.2", "realizable:0"):
            with pytest.raises(ValueError, match="bad noise spec"):
                parse_noise(spec)

    @pytest.mark.parametrize("spec", ["realizable", "bounded:0.2", "adversarial:0.005"])
    def test_row_noise_columns_parse_back_to_the_model(self, spec):
        config = build_config("run", {"d": 5, "noise": spec, "epsilon": 0.25, "trials": 1})
        row = dict(zip(CSV_HEADER.split(","), run_trials([config])[0].csv_line().split(",")))
        kind, param = row["noise_kind"], row["noise_param"]
        # A realizable row's level reads 0, and its spec is the kind alone.
        assert parse_noise(kind if (kind, param) == ("realizable", "0") else f"{kind}:{param}") == config.noise

    def test_negative_zero_noise_level_writes_zero(self, tmp_path):
        # bounded:-0 is the model bounded:0, so its rows are the same bytes.
        outs = [tmp_path / "minus.csv", tmp_path / "plus.csv"]
        for spec, out in zip(("bounded:-0", "bounded:0"), outs):
            assert main(["run", "--d", "5", "--epsilon", "0.3", "--trials", "1", "--noise", spec,
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_parse_sweep(self):
        axis, values = parse_sweep("epsilon=0.2,0.1")
        assert axis == "epsilon" and values == [0.2, 0.1]
        assert parse_sweep("d=5, 10") == ("d", [5, 10])
        assert parse_sweep("noise=bounded:0.1,realizable") == ("noise", ["bounded:0.1", "realizable"])
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
        (["--max-steps", "nan"], None),
        (["--jobs", "0"], None),
        (["--out", os.path.join("no-such-dir", "run.csv")], None),
        (["--out", "."], None),
        (["--seed", "-1"], None),
        (["--scale-m", "inf"], None),
        (["--scale-b", "nan"], None),
        (["--out", ""], None),
        ([], {"out": ""}),
        (["--delta", "1e-320"], None),
        (["--d", "1" + "0" * 400], None),
        (["--scale-m", "1e-300"], None),
        (["--trials", "1" + "0" * 400], None),
        ([], {"delta": 10**400}),
        # The noise level is part of --noise; there is no second way in.
        (["--eta", "0.3"], None),
        (["--nu", "0.01"], None),
        ([], {"eta": 0.3}),
        # The schedule refuses d < 3 for the config.
        (["--d", "2"], None),
        # The noise model has the paper's three kinds only.
        (["--noise", "bounded_margin:0.2:0.5"], None),
        ([], {"noise": "bounded_margin:0.2:0.5"}),
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

    @pytest.mark.parametrize("flag, value, name", [
        # m^2 / delta overflows to inf, which used to leave b = 0.
        ("--delta", "1e-300", "delta"),
        # theta = pi / 2^k is subnormal, and b underflows to 0.
        ("--epsilon", "5e-324", "epsilon"),
    ])
    def test_tiny_delta_or_epsilon_is_refused_by_name(self, tmp_path, capsys, flag, value, name):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--d", "10", "--trials", "1", "--out", str(tmp_path / "run.csv"), flag, value])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and name in errors[0]

    @pytest.mark.parametrize("argv", [
        ["run", "--scale-m", repr(learner.THEORY_SCALE_M), "--scale-b", repr(learner.THEORY_SCALE_B)],
        ["init-run", "--scale-m", "3e11"],
        ["sweep", "--sweep", "epsilon=0.4,0.05", "--max-steps", "1000"],
        # A band mass takes O(d) memory: the cost check must come first.
        ["run", "--d", "1000000000000"],
        ["sweep", "--sweep", "d=1000000000000"],
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
        assert "--max-steps" in err

    def test_cost_preflight_counts_every_schedule(self):
        active = steps_per_trial(small_config())
        assert steps_per_trial(small_config(mode="passive")) == active
        assert steps_per_trial(small_config(mode="init")) > active
        assert main(["run", "--d", "5", "--epsilon", "0.25", "--trials", "1",
                     "--max-steps", repr(active)]) == 0

    def test_cost_preflight_counts_every_trial(self, capsys):
        # 1,656 steps per trial at d=10, epsilon=0.05: three trials take
        # 4,968 steps, two take 3,312.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--d", "10", "--trials", "3", "--max-steps", "4000"])
        assert exc.value.code == 2
        assert "3 trial(s)" in capsys.readouterr().err
        assert main(["run", "--d", "10", "--trials", "2", "--max-steps", "4000"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--d", "100", "--epsilon", "1e-7", "--scale-b", repr(learner.THEORY_SCALE_B)],
        ["--scale-b", "1e-300"],
    ])
    def test_band_below_the_mass_floor_is_a_usage_error(self, capsys, argv):
        # These used to report wrapped (or negative) unlabeled draw counts.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--trials", "1", "--seed", "1"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "below the floor" in err

    def test_band_floor_covers_init_branch_runs(self):
        # At epsilon = 0.4 the branch runs' target 1/16 takes more epochs
        # than the main run, so only their thinnest band is below the floor.
        band_preflight(small_config(d=10, epsilon=0.4, scale_b=2e-10))
        with pytest.raises(ValueError, match="below the floor"):
            band_preflight(small_config(mode="init", d=10, epsilon=0.4, scale_b=2e-10))

    def test_overflowing_sweep_dimension_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--trials", "1", "--sweep", "d=1e300"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    def test_thin_bands_pass_the_preflight(self):
        # About 8,000 steps that draw about 7e10 unlabeled points: each step
        # draws its count as one geometric number, so the draws cost nothing.
        assert main(["run", "--d", "10", "--epsilon", "1e-6", "--trials", "1"]) == 0

    def test_epsilon_below_the_floor_is_a_usage_error(self, capsys):
        # At d = 10 the last band of epsilon = 1e-10 has mass 7.7e-13, below
        # the band-mass floor, which is the only limit on epsilon.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--d", "10", "--epsilon", "1e-10", "--trials", "3", "--seed", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "below the floor" in err

    def test_small_final_angles_are_not_quantized(self, tmp_path):
        # Near 1, a = cos(theta) takes only the values 1 - k 2^-53, so angles
        # read from a alone are quantized: these 20 final angles would be 15
        # of 1.4901e-8 and 5 of 2.1073e-8.
        out = tmp_path / "run.csv"
        assert main(["run", "--d", "10", "--epsilon", "1e-6", "--trials", "20", "--seed", "5",
                     "--out", str(out)]) == 0
        angles = [float(line.split(",")[12]) for line in out.read_text().splitlines()[1:]]
        assert len(angles) == 20
        assert not {f"{a:.4e}" for a in angles} <= {"1.4901e-08", "2.1073e-08"}
        assert len(set(angles)) == 20

    def test_epsilon_down_to_the_band_floor_runs(self, capsys):
        assert main(["run", "--d", "10", "--epsilon", "1e-9", "--trials", "5", "--seed", "3"]) == 0
        assert "5 trials: 5 succeeded" in capsys.readouterr().out

    def test_help_wraps_at_the_terminal_width(self, monkeypatch, capsys):
        lines = {}
        for columns in (40, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit):
                main(["run", "--help"])
            lines[columns] = capsys.readouterr().out.splitlines()
        assert len(lines[40]) > len(lines[120])
        assert 40 < max(map(len, lines[120])) <= 118

    def test_settings_do_not_leak_between_calls(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["run", "--d", "5", "--scale-m", "3", "--epsilon", "0.25", "--trials", "1",
                     "--out", str(first)]) == 0
        assert main(["run", "--epsilon", "0.25", "--trials", "1", "--out", str(second)]) == 0
        header = CSV_HEADER.split(",")
        rows = [dict(zip(header, path.read_text().splitlines()[1].split(",")))
                for path in (first, second)]
        assert (rows[0]["d"], float(rows[0]["scale_m"])) == ("5", 3.0)
        defaults = ExperimentConfig()
        assert (rows[1]["d"], float(rows[1]["scale_m"])) == (str(defaults.d), defaults.scale_m)

    def test_bad_sweep_value_is_a_usage_error(self, capsys):
        # Every token is converted as the axis's flag converts it: an empty
        # one is no value to drop but a usage error.
        for spec, named in (
            ("d=2.5", "--sweep d:"), ("d=inf", "--sweep d:"), ("d=1e3", "--sweep d:"),
            ("epsilon=0.5,,0.25", "--sweep epsilon:"), ("epsilon=0.5,", "--sweep epsilon:"),
            ("epsilon=x", "--sweep epsilon:"),
            ("noise=bounded:0.1,bounded:x", "bad noise spec"), ("noise=realizable,", "bad noise spec"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--d", "5", "--trials", "1", "--sweep", spec])
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(errors) == 1 and named in errors[0]

    @pytest.mark.parametrize("spec", ["eta=0.1", "nu=0.01"])
    def test_noise_level_axes_are_usage_errors(self, capsys, spec):
        # The noise level is swept through the noise setting: noise=bounded:0.1,...
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--d", "5", "--trials", "1", "--sweep", spec])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and str(SWEEP_AXES) in errors[0]

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
        # The summary counts the out-of-regime band_mass cells apart.
        lines = capsys.readouterr().out.splitlines()
        skipped = sum(line.startswith("[SKIP]") for line in lines)
        checks = sum(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
        assert skipped > 0
        assert lines[-1] == f"verify: {checks}/{checks} checks passed, {skipped} skipped"

    @pytest.mark.parametrize("argv", [
        ["--samples", "0"],
        ["--out", os.path.join("no-such-dir", "verify.csv")],
        ["--seed", "-1"],
        ["--out", ""],
    ])
    def test_bad_verify_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "2000"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        # The one error line names the setting, not numpy's reason.
        assert len(errors) == 1 and argv[0].lstrip("-") in errors[0]

    def test_readme_cli_lines_parse_and_build(self):
        block = readme_block("## CLI", "```sh")
        lines = [line.split()[1:] for line in block.splitlines() if line.startswith("percband ")]
        assert {argv[0] for argv in lines} == {"run", "sweep", "init-run", "verify"}
        for argv in lines:
            args = build_parser().parse_args(argv)
            settings = merge_settings(args)
            if args.command != "verify":
                build_config(args.command, settings)

    @pytest.mark.parametrize("argv", [["sweep", "--sweep", "epsilon=0.5"], ["init-run"]])
    def test_empty_out_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--d", "5", "--trials", "1", "--out", ""])
        assert exc.value.code == 2
        assert "--out ''" in capsys.readouterr().err

    def test_readme_settings_table_matches_settings(self):
        block = readme_block("| Setting | Commands |", "|---|---|")
        listed = {}
        for row in block.strip().split("\n\n", 1)[0].splitlines():
            names, commands = row.strip("|").split("|")
            commands = set(COMMANDS) if commands.strip() == "all four" else set(commands.split("`")[1::2])
            for name in names.split("`")[1::2]:
                assert name not in listed
                listed[name] = commands
        assert listed == {name: set(setting[1]) for name, setting in SETTINGS.items()}

    def test_star_import_resolves_every_export(self):
        namespace = {}
        exec("from percband import *", namespace)
        assert set(percband.__all__) <= set(namespace)

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
            "    main(['run', '--d', '10', '--epsilon', '0.05', '--max-steps', '1000'])\n"
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

    def test_cli_import_leaves_multiprocessing_out(self):
        # The process pool is imported only when a run asks for jobs > 1.
        src = os.path.dirname(os.path.dirname(os.path.abspath(percband.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, percband.cli; print('multiprocessing' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestTimingColumn:
    def test_timing_off_by_default(self):
        row = run_trial(small_config(trials=1), 0, 0)
        assert row.wall_time_s == 0.0

    def test_timing_flag_records(self):
        row = run_trial(small_config(trials=1, measure_time=True), 0, 0)
        assert row.wall_time_s > 0.0
