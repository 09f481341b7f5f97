"""Command-line interface for the benchmark harness.

Subcommands:

* ``run``      - seeded trials at a single configuration
* ``sweep``    - trials across one setting (d, noise, epsilon)
* ``init-run`` - trials with the acute-initialization preamble (``run --mode init``)
* ``verify``   - the statistical verification suite

``SETTINGS`` declares every setting once; each subcommand's flags and the
fields of a JSON configuration file (``--config``) come from it. Explicit
flags override file values, and a setting nobody gives keeps the default of
the code that reads it. Exit status is 0 iff everything executed passed its
gate (for verify: every check); a bad flag or config-file value is a usage
error with exit status 2, and so is a call whose trials take more than
``--max-steps`` Perceptron steps in all (every trial of every sweep value,
counted from the schedules before the first trial). Unlabeled draws are not
counted: a step draws its count of them as one geometric number, so they
cost no work.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import shutil
import sys

from .bench import (
    MODES,
    ExperimentConfig,
    run_trials,
    steps_per_trial,
    summarize,
    write_csv,
    write_verify_csv,
)
from .oracles import NoiseModel
from .verify import all_passed, run_suite

# Perceptron steps of a whole call (all its trials) above which it is
# refused: about ten minutes at ~0.6 us per step on a 2-core x86 machine.
MAX_STEPS = 1e9

COMMANDS = {
    "run": "seeded trials at one configuration",
    "sweep": "trials across one parameter axis",
    "init-run": "trials preceded by acute initialization",
    "verify": "run the statistical verification suite",
}
_TRIALS = ("run", "sweep", "init-run")
# The settings a sweep may vary; each value is read as its flag is.
SWEEP_AXES = ("d", "noise", "epsilon")

# Every setting: the JSON type a config-file value must have (an integer
# passes where a float is expected), the commands that read it, its help.
SETTINGS = {
    "mode": (str, ("run", "sweep"), "trial mode: " + " | ".join(MODES)),
    "d": (int, _TRIALS, "ambient dimension (>= 3)"),
    "noise": (str, _TRIALS, "realizable | bounded:ETA | adversarial:NU"),
    "epsilon": (float, _TRIALS, "target error"),
    "delta": (float, _TRIALS, "failure probability"),
    "trials": (int, _TRIALS, "seeded trials per setting"),
    "seed": (int, tuple(COMMANDS), "master seed"),
    "scale_m": (float, _TRIALS, "sample-count scale constant"),
    "scale_b": (float, _TRIALS, "band-width scale constant"),
    "out": (str, tuple(COMMANDS), "CSV output path"),
    "jobs": (int, _TRIALS, "parallel trial workers"),
    "max_steps": (float, _TRIALS,
                  f"refuse calls whose trials take more Perceptron steps in all (default {MAX_STEPS:g})"),
    "timing": (bool, _TRIALS,
               "record wall time per row (off by default: timed rows are not byte-reproducible)"),
    "sweep": (str, ("sweep",), "axis=v1,v2,... with axis in " + " | ".join(SWEEP_AXES)),
    "samples": (int, ("verify",), "Monte Carlo sample count per check"),
}
# The ExperimentConfig fields named apart from their settings, and the
# run_suite argument of each setting verify reads.
_CONFIG_NAMES = {"seed": "master_seed", "timing": "measure_time"}
_SUITE_ARGS = {"seed": "seed", "samples": "n_samples"}


def parse_noise(spec: str) -> NoiseModel:
    """Parse a noise spec: realizable | bounded:ETA | adversarial:NU."""
    kind, colon, level = spec.partition(":")
    if kind == "realizable" and not colon:
        return NoiseModel(kind)
    if kind in ("bounded", "adversarial") and colon:
        try:
            level = float(level)
        except ValueError:
            raise ValueError(f"bad noise spec {spec!r}") from None
        return NoiseModel(kind, level)
    raise ValueError(f"bad noise spec {spec!r}")


def parse_sweep(spec: str) -> tuple[str, list]:
    """Parse ``axis=v1,v2,...`` into a setting name and its values, each
    converted with the type of the setting's flag."""
    axis, sep, raw = spec.partition("=")
    axis = axis.strip()
    if not sep or axis not in SWEEP_AXES:
        raise ValueError(f"sweep spec must be axis=v1,v2,... with axis in {SWEEP_AXES}, got {spec!r}")
    try:
        return axis, [SETTINGS[axis][0](tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"--sweep {axis}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser at the terminal's width. One parser is built per
    width and shared by every call: parse with it, do not change it."""
    return _parser(shutil.get_terminal_size().columns - 2)


@functools.cache
def _parser(width: int) -> argparse.ArgumentParser:
    # argparse builds a help formatter for every flag it adds, and each one
    # asks for the terminal width: ask once, for the width it would read.
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="percband",
        description="Active halfspace learning benchmark on the unit sphere",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, command_help in COMMANDS.items():
        p = sub.add_parser(command, help=command_help, formatter_class=formatter)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for name, (kind, commands, help_text) in SETTINGS.items():
            if command not in commands:
                continue
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_true", default=None, help=help_text)
            else:
                p.add_argument(flag, dest=name, type=kind, help=help_text)
    return parser


def merge_settings(args: argparse.Namespace) -> dict:
    """The settings ``args.command`` reads: the config file's, overlaid by flags.

    A null config-file value counts as not given. Raises ValueError for a
    config file with unknown or mistyped fields.
    """
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(SETTINGS)
        if unknown:
            raise ValueError(f"unknown config file fields: {sorted(unknown)}")
        settings = {k: _typed(k, v) for k, v in file_values.items() if v is not None}
    settings.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    return {k: v for k, v in settings.items() if args.command in SETTINGS[k][1]}


def _typed(name: str, value):
    """A config-file value checked against the type of its setting."""
    kind = SETTINGS[name][0]
    if kind is float and type(value) is int:
        if abs(value) > sys.float_info.max:
            raise ValueError(f"config file field {name!r} is too large, got {value!r}")
        value = float(value)
    if type(value) is not kind:
        raise ValueError(f"config file field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def build_config(command: str, settings: dict) -> ExperimentConfig:
    """The trial configuration of run, sweep or init-run from its settings."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {_CONFIG_NAMES.get(k, k): v for k, v in settings.items()}
    kwargs = {k: v for k, v in kwargs.items() if k in fields}
    if "noise" in kwargs:
        kwargs["noise"] = parse_noise(kwargs["noise"])
    if command == "init-run":
        kwargs["mode"] = "init"
    return ExperimentConfig(**kwargs)


def _check_out(path: str) -> None:
    """Refuse an empty output path, a directory, or one whose directory cannot take the file."""
    directory = os.path.dirname(path) or "."
    if not path or os.path.isdir(path) or not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise ValueError(f"--out {path!r} is not a file in a writable directory")


def _check_cost(configs: list[ExperimentConfig], max_steps: float) -> None:
    """Refuse a call whose trials take too many Perceptron steps in all."""
    if not max_steps > 0.0:
        raise ValueError(f"--max-steps must be positive, got {max_steps!r}")
    steps = sum(c.trials * steps_per_trial(c) for c in configs)
    if steps > max_steps:
        c = configs[0]
        where = (f"d={c.d}, epsilon={c.epsilon:g}" if len(configs) == 1
                 else f"each of {len(configs)} sweep values")
        raise ValueError(
            f"{c.trials} trial(s) at {where} take {steps:,} Perceptron steps in all, "
            f"more than --max-steps {max_steps:.3g}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = merge_settings(args)
        if "out" in settings:
            _check_out(settings["out"])
        if args.command == "verify":
            # Inside the try: the suite refuses n_samples < 1 before it draws.
            results = run_suite(**{_SUITE_ARGS[k]: v for k, v in settings.items() if k in _SUITE_ARGS})
        else:
            jobs = settings.get("jobs", 1)
            if jobs < 1:
                raise ValueError(f"--jobs must be >= 1, got {jobs}")
            config_settings = [settings]
            if args.command == "sweep":
                if "sweep" not in settings:
                    raise ValueError("sweep requires --sweep axis=v1,v2,...")
                axis, values = parse_sweep(settings["sweep"])
                config_settings = [{**settings, axis: value} for value in values]
            configs = [build_config(args.command, s) for s in config_settings]
            _check_cost(configs, settings.get("max_steps", MAX_STEPS))
            # A band mass costs O(d): checked once the step count bounds d.
            for c in configs:
                for schedule in c.schedules:
                    schedule.band_masses()
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    if args.command == "verify":
        if "out" in settings:
            write_verify_csv(settings["out"], results)
        for r in results:
            print(r.line())
        checks = [r for r in results if not r.skipped]
        print(f"verify: {sum(r.passed for r in checks)}/{len(checks)} checks passed, "
              f"{len(results) - len(checks)} skipped")
        return 0 if all_passed(results) else 1

    rows = run_trials(configs, jobs)
    if "out" in settings:
        write_csv(settings["out"], rows)
    if args.command == "sweep":
        for value, (labels, draws, rate) in zip(values, summarize(rows)):
            value = value if axis == "noise" else f"{value:g}"
            print(f"{axis}={value}: median_labels={labels:g} median_unlabeled={draws:g} "
                  f"success_rate={rate:.2f}")
        return 0
    labels, draws, _ = summarize(rows)[0]
    print(
        f"{len(rows)} trials: {sum(r.succeeded for r in rows)} succeeded "
        f"(median labels {labels:g}, median unlabeled draws {draws:g})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
