"""Experiment harness: seeded trials, parameter sweeps, CSV reporting.

A trial plants a hidden target uniformly at random, builds the configured
oracle and schedule, runs the requested mode end to end, and scores success
as angle(final, target) <= pi * epsilon. Per-trial seeds are derived from
(master_seed, value_index, trial_index) through numpy's SeedSequence, so any
row can be reproduced in isolation from its seed column and trials may be
executed in parallel without changing the output.

CSV rows are a pure function of configuration and master seed, with one
deliberate exception: wall_time_s is measured, so it is only filled in when
timing is enabled (it defaults to off to keep output byte-reproducible).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, verify
from .initialization import InitConfig, acute_initialize
from .learner import (
    DEFAULT_SCALE_B,
    DEFAULT_SCALE_M,
    RunReport,
    active_perceptron,
    make_schedule,
)
from .oracles import LabelingOracle, NoiseModel

CSV_HEADER = (
    "trial,seed,mode,d,noise_kind,noise_param,epsilon,delta,scale_m,scale_b,"
    "labels,unlabeled_draws,final_angle,succeeded,wall_time_s"
)
VERIFY_CSV_HEADER = "check,passed,statistic,bound,margin,detail"

MODES = ("active", "passive", "init", "verify")
SWEEP_AXES = ("d", "eta", "nu", "epsilon")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "active"
    d: int = 10
    noise: NoiseModel = field(default_factory=NoiseModel.realizable)
    epsilon: float = 0.05
    delta: float = 0.1
    scale_m: float = DEFAULT_SCALE_M
    scale_b: float = DEFAULT_SCALE_B
    trials: int = 20
    master_seed: int = 0
    output_path: str | None = None
    jobs: int = 1
    measure_time: bool = False
    samples: int = 1_000_000  # Monte Carlo samples per verify check

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.d < geometry.MIN_DIMENSION:
            raise ValueError(f"d must be >= {geometry.MIN_DIMENSION}, got {self.d}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class TrialRow:
    """One CSV row; ``report`` tags along for in-process consumers."""

    trial: int
    seed: int
    mode: str
    d: int
    noise_kind: str
    noise_param: float
    epsilon: float
    delta: float
    scale_m: float
    scale_b: float
    labels: int
    unlabeled_draws: int
    final_angle: float
    succeeded: bool
    wall_time_s: float
    value_index: int = 0
    report: RunReport | None = field(default=None, compare=False)

    def csv_line(self) -> str:
        return ",".join(
            (
                str(self.trial),
                str(self.seed),
                self.mode,
                str(self.d),
                self.noise_kind,
                _fmt(self.noise_param),
                _fmt(self.epsilon),
                _fmt(self.delta),
                _fmt(self.scale_m),
                _fmt(self.scale_b),
                str(self.labels),
                str(self.unlabeled_draws),
                _fmt(self.final_angle),
                "1" if self.succeeded else "0",
                f"{self.wall_time_s:.6f}",
            )
        )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def trial_seed(master_seed: int, value_index: int, trial_index: int) -> int:
    """Deterministic 64-bit per-trial seed from the splittable scheme."""
    ss = np.random.SeedSequence((master_seed, value_index, trial_index))
    return int(ss.generate_state(2, np.uint64)[0])


def _acute_start(target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    v0 = geometry.sample_uniform_sphere(target.shape[0], rng)
    return v0 if float(v0 @ target) >= 0.0 else -v0


def run_trial(config: ExperimentConfig, value_index: int, trial_index: int) -> TrialRow:
    """Execute one fully isolated trial and build its row."""
    seed = trial_seed(config.master_seed, value_index, trial_index)
    plant_ss, oracle_ss, sampler_ss = np.random.SeedSequence(seed).spawn(3)
    rng_plant = np.random.default_rng(plant_ss)
    rng_sampler = np.random.default_rng(sampler_ss)

    target = geometry.sample_uniform_sphere(config.d, rng_plant)
    oracle = LabelingOracle(target, config.noise, np.random.default_rng(oracle_ss))
    schedule = make_schedule(
        config.d,
        config.epsilon,
        config.delta,
        config.noise,
        scale_m=config.scale_m,
        scale_b=config.scale_b,
    )

    start = time.perf_counter()
    extra_labels = 0
    extra_draws = 0
    if config.mode in ("active", "passive"):
        v0 = _acute_start(target, rng_plant)
        report = active_perceptron(
            oracle, v0, config.epsilon, config.delta, schedule, rng_sampler,
            target=target, charge_rejected=config.mode == "passive",
        )
    elif config.mode == "init":
        init = acute_initialize(
            oracle,
            config.d,
            InitConfig(
                model=config.noise,
                delta=config.delta,
                scale_m=config.scale_m,
                scale_b=config.scale_b,
            ),
            rng_sampler,
        )
        extra_labels = init.total_labels
        extra_draws = init.total_unlabeled
        report = active_perceptron(
            oracle, init.vector, config.epsilon, config.delta, schedule, rng_sampler,
            target=target,
        )
    else:
        raise ValueError(f"run_trial cannot execute mode {config.mode!r}")
    elapsed = time.perf_counter() - start

    return TrialRow(
        trial=trial_index,
        seed=seed,
        mode=config.mode,
        d=config.d,
        noise_kind=config.noise.kind,
        noise_param=config.noise.param,
        epsilon=config.epsilon,
        delta=config.delta,
        scale_m=config.scale_m,
        scale_b=config.scale_b,
        labels=report.total_labels + extra_labels,
        unlabeled_draws=report.total_unlabeled + extra_draws,
        final_angle=geometry.angle(report.final, target),
        succeeded=bool(report.succeeded),
        wall_time_s=elapsed if config.measure_time else 0.0,
        value_index=value_index,
        report=report,
    )


def _run_trial_packed(args: tuple[ExperimentConfig, int, int]) -> TrialRow:
    return run_trial(*args)


def _execute(config: ExperimentConfig, tasks: list[tuple[int, int]]) -> list[TrialRow]:
    """Run (value_index, trial_index) tasks, deterministically ordered output."""
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_run_trial_packed, [(config, v, t) for v, t in tasks]))
    else:
        rows = [run_trial(config, v, t) for v, t in tasks]
    return sorted(rows, key=lambda r: (r.value_index, r.trial))


def run_single(config: ExperimentConfig):
    """Run the configured trials at a single setting (or the verify suite).

    Returns the list of TrialRow (or CheckResult for mode="verify") and
    writes the CSV when an output path is configured.
    """
    if config.mode == "verify":
        results = verify.run_suite(config.master_seed, n_samples=config.samples)
        if config.output_path:
            write_verify_csv(config.output_path, results)
        return results
    rows = _execute(config, [(0, t) for t in range(config.trials)])
    if config.output_path:
        write_csv(config.output_path, rows)
    return rows


@dataclass(frozen=True)
class SweepSummary:
    axis: str
    value: float
    median_labels: float
    median_unlabeled: float
    success_rate: float

    def line(self) -> str:
        return (
            f"{self.axis}={self.value:g}: median_labels={self.median_labels:g} "
            f"median_unlabeled={self.median_unlabeled:g} "
            f"success_rate={self.success_rate:.2f}"
        )


def config_for_value(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "d":
        d = int(value)
        if d != value or d < 3:
            raise ValueError(f"invalid dimension {value!r}")
        return replace(config, d=d)
    if axis == "epsilon":
        return replace(config, epsilon=float(value))
    if axis == "eta":
        if config.noise.kind == "bounded_margin":
            noise = NoiseModel.bounded_margin(float(value), config.noise.margin)
        else:
            noise = NoiseModel.bounded(float(value))
        return replace(config, noise=noise)
    if axis == "nu":
        return replace(config, noise=NoiseModel.adversarial(float(value)))
    raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def run_sweep(
    config: ExperimentConfig, sweep_axis: str, values: list
) -> tuple[list[TrialRow], list[SweepSummary]]:
    """Run trials for each axis value; rows come back in (value, trial) order."""
    if not values:
        raise ValueError("sweep values must be nonempty")
    rows: list[TrialRow] = []
    for vi, value in enumerate(values):
        sub = config_for_value(config, sweep_axis, value)
        rows.extend(_execute(sub, [(vi, t) for t in range(config.trials)]))
    rows.sort(key=lambda r: (r.value_index, r.trial))
    summaries = []
    for vi, value in enumerate(values):
        group = [r for r in rows if r.value_index == vi]
        summaries.append(
            SweepSummary(
                axis=sweep_axis,
                value=float(value),
                median_labels=float(np.median([r.labels for r in group])),
                median_unlabeled=float(np.median([r.unlabeled_draws for r in group])),
                success_rate=float(np.mean([r.succeeded for r in group])),
            )
        )
    if config.output_path:
        write_csv(config.output_path, rows)
    return rows, summaries


def write_csv(path: str, rows: list[TrialRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


def write_verify_csv(path: str, results: list[verify.CheckResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(VERIFY_CSV_HEADER + "\n")
        for r in results:
            status = "skip" if r.skipped else ("1" if r.passed else "0")
            detail = r.detail.replace(",", ";")
            fh.write(
                f"{r.name},{status},{_nan_fmt(r.statistic)},{_nan_fmt(r.bound)},"
                f"{_nan_fmt(r.margin)},{detail}\n"
            )


def _nan_fmt(x: float) -> str:
    return "nan" if math.isnan(x) else _fmt(x)
