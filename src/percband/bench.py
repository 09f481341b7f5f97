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

import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry, verify
from .initialization import acute_initialize, branch_schedule
from .learner import (
    DEFAULT_SCALE_B,
    DEFAULT_SCALE_M,
    RunReport,
    Schedule,
    active_perceptron,
    make_schedule,
)
from .oracles import LabelingOracle, NoiseModel

CSV_HEADER = (
    "trial,seed,mode,d,noise_kind,noise_param,epsilon,delta,scale_m,scale_b,"
    "labels,unlabeled_draws,final_angle,succeeded,wall_time_s"
)
VERIFY_CSV_HEADER = "check,passed,statistic,bound,margin,detail"

MODES = ("active", "passive", "init")


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
    measure_time: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {self.noise!r}")
        if not isinstance(self.measure_time, bool):
            raise ValueError(f"measure_time must be a bool, got {self.measure_time!r}")
        for name, low in (("d", geometry.MIN_DIMENSION), ("trials", 1), ("master_seed", 0)):
            geometry.check_integer(getattr(self, name), name, low)
        # Building the schedules a trial runs checks epsilon, delta and the
        # scale factors, their types included; the instance keeps them.
        self.schedules

    # Built once per configuration and kept on the instance (a frozen
    # dataclass has a __dict__, and it pickles to pool workers with it).
    @cached_property
    def schedules(self) -> tuple[Schedule, ...]:
        """The schedule of each run a trial makes, in run order: in init
        mode the two branch runs (sharing one schedule) and the main run,
        otherwise the main run alone."""
        main = make_schedule(
            self.d, self.epsilon, self.delta, self.noise,
            scale_m=self.scale_m, scale_b=self.scale_b,
        )
        if self.mode == "init":
            branch = branch_schedule(self.d, self.noise, self.delta, self.scale_m, self.scale_b)
            return (branch, branch, main)
        return (main,)


@dataclass(frozen=True)
class TrialRow:
    """One CSV row; ``report`` tags along for in-process consumers."""

    config: ExperimentConfig
    trial: int
    seed: int
    labels: int
    unlabeled_draws: int
    final_angle: float
    succeeded: bool
    wall_time_s: float
    value_index: int
    report: RunReport = field(compare=False)

    def csv_line(self) -> str:
        c = self.config
        return ",".join(
            (
                str(self.trial),
                str(self.seed),
                c.mode,
                str(c.d),
                c.noise.kind,
                _fmt(c.noise.param),
                _fmt(c.epsilon),
                _fmt(c.delta),
                _fmt(c.scale_m),
                _fmt(c.scale_b),
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


def steps_per_trial(config: ExperimentConfig) -> int:
    """Perceptron steps of one trial (sum of m_k over its runs), from the
    schedules alone."""
    return sum(sum(s.m) for s in config.schedules)


def run_trial(config: ExperimentConfig, value_index: int, trial_index: int) -> TrialRow:
    """Execute one fully isolated trial and build its row."""
    seed = trial_seed(config.master_seed, value_index, trial_index)
    plant_ss, oracle_ss, sampler_ss = np.random.SeedSequence(seed).spawn(3)
    rng_plant = np.random.default_rng(plant_ss)
    rng_sampler = np.random.default_rng(sampler_ss)

    target = geometry.sample_uniform_sphere(config.d, rng_plant)
    oracle = LabelingOracle(target, config.noise, np.random.default_rng(oracle_ss))

    start = time.perf_counter()
    labels = draws = 0
    *branches, schedule = config.schedules
    if branches:
        init = acute_initialize(oracle, config.delta, rng_sampler, schedule=branches[0])
        labels, draws, v0 = init.total_labels, init.total_unlabeled, init.vector
    else:
        v0 = _acute_start(target, rng_plant)
    report = active_perceptron(
        oracle, v0, schedule, rng_sampler, charge_rejected=config.mode == "passive"
    )
    elapsed = time.perf_counter() - start

    return TrialRow(
        config=config,
        trial=trial_index,
        seed=seed,
        labels=labels + report.total_labels,
        unlabeled_draws=draws + report.total_unlabeled,
        final_angle=report.traces[-1].theta_after,
        succeeded=report.succeeded,
        wall_time_s=elapsed if config.measure_time else 0.0,
        value_index=value_index,
        report=report,
    )


def run_trials(configs: list[ExperimentConfig], jobs: int = 1) -> list[TrialRow]:
    """Run every trial of every configuration; rows come back in
    (configuration, trial) order, and a configuration's position in
    ``configs`` is its value index in ``trial_seed``. All the trials share
    one pool of min(jobs, trials, CPUs) workers; with one, they run in this
    process."""
    geometry.check_integer(jobs, "jobs", 1)
    tasks = [(c, vi, t) for vi, c in enumerate(configs) for t in range(c.trials)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here so that single-process runs do not import multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_trial, *zip(*tasks)))
    return [run_trial(*task) for task in tasks]


def summarize(rows: list[TrialRow]) -> list[tuple[float, float, float]]:
    """Median labels, median unlabeled draws and success rate of the rows
    of each value index, in the order the rows give them."""
    groups: dict[int, list[TrialRow]] = {}
    for r in rows:
        groups.setdefault(r.value_index, []).append(r)
    return [
        (
            float(np.median([r.labels for r in g])),
            float(np.median([r.unlabeled_draws for r in g])),
            float(np.mean([r.succeeded for r in g])),
        )
        for g in groups.values()
    ]


def write_csv(path: str, rows: list[TrialRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


def write_verify_csv(path: str, results: list[verify.CheckResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(VERIFY_CSV_HEADER + "\n")
        for r in results:
            detail = r.detail.replace(",", ";")
            fh.write(
                f"{r.name},{int(r.passed)},{_fmt(r.statistic)},{_fmt(r.bound)},"
                f"{_fmt(r.margin)},{detail}\n"
            )
