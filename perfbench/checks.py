"""Output checks, made apart from the program.

The schedule is recomputed from the closed form in the project README, band
masses come from the regularized incomplete beta function instead of the
program's quadrature, and sampled quantities are tested against their exact
laws with bounds wide enough that a correct program fails them with
probability below ~1e-8 per check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from scipy.special import betainc
from scipy.stats import binom

from workloads import Call

# README defaults for the schedule scale constants.
SCALE_M = 4.0
SCALE_B = 0.5

# Two-sided z-bound for draw totals: |z| > 6 has probability ~2e-9 under the
# normal approximation to a sum of >= 1,656 geometric counts.
DRAW_Z = 6.0
# A miss count whose upper tail under the gate rate is below this is an error.
MISS_ALPHA = 1e-6
# Relative agreement required between quadrature and betainc band masses.
BAND_MASS_RTOL = 1e-8


@dataclass(frozen=True)
class Epoch:
    m: int
    b: float
    p: float


def band_mass(d: int, lower: float, upper: float) -> float:
    """P[lower <= x1 <= upper] on the sphere in R^d: x1^2 ~ Beta(1/2, (d-1)/2)."""
    a, b = 0.5, (d - 1) / 2.0
    return 0.5 * (float(betainc(a, b, upper * upper)) - float(betainc(a, b, lower * lower)))


def schedule(d: int, epsilon: float, delta: float, zeta: float) -> list[Epoch]:
    """The README's closed-form epoch schedule at the default scale constants."""
    k0 = max(1, math.ceil(math.log2(1.0 / epsilon)))
    base = SCALE_M * d / (zeta * zeta)
    out = []
    for k in range(1, k0 + 1):
        m = math.ceil(base * (math.log(base) + math.log(k * (k + 1) / delta)))
        b = SCALE_B * 2.0**-k * math.pi * zeta / (math.sqrt(d) * math.log(m * m * k * (k + 1) / delta))
        b = min(b, 1.0 / (10.0 * math.sqrt(d)))
        out.append(Epoch(m, b, band_mass(d, b / 2.0, b)))
    return out


def test_size(zeta: float, delta: float) -> int:
    return math.ceil(8.0 / (zeta * zeta) * math.log(6.0 / delta))


def _draw_law(epochs: list[Epoch]) -> tuple[float, float]:
    """Mean and variance of the total draws: sum of Geometric(p_k) per step."""
    mean = sum(e.m / e.p for e in epochs)
    var = sum(e.m * (1.0 - e.p) / (e.p * e.p) for e in epochs)
    return mean, var


@dataclass(frozen=True)
class Expectation:
    """What one trial row of a call must show, from the closed form alone."""

    labels: int  # exact for active and init; a floor for passive
    steps: int  # Perceptron updates (accepted band points) per trial
    draw_mean: float
    draw_var: float


def expectation(call: Call) -> Expectation:
    main = schedule(call.d, call.epsilon, call.delta, call.zeta)
    steps = sum(e.m for e in main)
    mean, var = _draw_law(main)
    if call.mode != "init":
        return Expectation(steps, steps, mean, var)
    branch = schedule(call.d, call.zeta / 16.0, call.delta / 3.0, call.zeta)
    b_steps = sum(e.m for e in branch)
    b_mean, b_var = _draw_law(branch)
    n_test = test_size(call.zeta, call.delta)
    return Expectation(steps + 2 * b_steps + n_test, steps + 2 * b_steps,
                       mean + 2 * b_mean, var + 2 * b_var)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_verify_rows(path: str) -> list[dict]:
    """Rows of the verify CSV, whose check names hold unquoted commas
    (``band_mass[d=3,b=0.005]``): the name is everything before the last
    five fields."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(dict(zip(header, [",".join(parts[:-5]), *parts[-5:]])))
    return rows


def check_trial_rows(call: Call, rows: list[dict]) -> tuple[list[str], int]:
    """Errors found in one call's trial rows, and the number of misses.

    A miss (final angle above pi * epsilon) is not an error by itself; the
    caller tests the miss count binomially against the gate rate.
    """
    errors = []
    exp = expectation(call)
    kind, param = call.noise_kind_param()
    if [int(r["trial"]) for r in rows] != list(range(call.trials)):
        errors.append(f"{call.tag}: expected trials 0..{call.trials - 1}, got {len(rows)} rows")
    misses = 0
    for r in rows:
        where = f"{call.tag} trial {r['trial']}"
        fixed = (r["mode"], int(r["d"]), r["noise_kind"], float(r["noise_param"]),
                 float(r["epsilon"]), float(r["delta"]), float(r["scale_m"]), float(r["scale_b"]))
        want = (call.mode, call.d, kind, param, call.epsilon, call.delta, SCALE_M, SCALE_B)
        if fixed != want:
            errors.append(f"{where}: configuration columns {fixed} != {want}")
        labels, draws = int(r["labels"]), int(r["unlabeled_draws"])
        if call.mode == "passive":
            if labels != draws:
                errors.append(f"{where}: passive labels {labels} != draws {draws}")
            if labels < exp.labels:
                errors.append(f"{where}: passive labels {labels} < sum m_k {exp.labels}")
        elif labels != exp.labels:
            errors.append(f"{where}: labels {labels} != closed form {exp.labels}")
        # The init disagreement test adds at least n_test draws; how many more
        # depends on the branch outputs, which the CSV does not show, so the
        # bound is one-sided there.
        n_test = test_size(call.zeta, call.delta) if call.mode == "init" else 0
        z = (draws - n_test - exp.draw_mean) / math.sqrt(exp.draw_var)
        if z < -DRAW_Z or (z > DRAW_Z and not n_test):
            errors.append(f"{where}: draws {draws} vs expected {exp.draw_mean + n_test:.0f} (z={z:.2f})")
        theta = float(r["final_angle"])
        if not 0.0 <= theta <= math.pi:
            errors.append(f"{where}: final angle {theta} outside [0, pi]")
        hit = theta <= math.pi * call.epsilon
        if abs(theta - math.pi * call.epsilon) > 1e-9 and hit != (r["succeeded"] == "1"):
            errors.append(f"{where}: succeeded={r['succeeded']} disagrees with angle {theta}")
        misses += not hit
    return errors, misses


def miss_error(misses: list[tuple[Call, int]]) -> str | None:
    """An error when a round's misses, pooled over its calls, are implausible
    with every trial missing at its gate rate (a Poisson-binomial tail)."""
    dist = [1.0]
    for call, _ in misses:
        for _ in range(call.trials):
            r = call.gate_miss_rate
            dist = [a * (1.0 - r) + b * r for a, b in zip(dist + [0.0], [0.0] + dist)]
    seen = sum(m for _, m in misses)
    if seen and sum(dist[seen:]) < MISS_ALPHA:
        trials = sum(call.trials for call, _ in misses)
        return f"{seen} of {trials} trials missed pi*epsilon, tail {sum(dist[seen:]):.2g} at the gate rates"
    return None


_BAND_PREFIX = "band_mass[d="


def check_verify_rows(rows: list[dict]) -> tuple[list[str], int]:
    """Errors in the verify CSV, and the number of check rows that failed."""
    errors = []
    failed = 0
    for r in rows:
        name, status = r["check"], r["passed"]
        if status == "0":
            failed += 1
            continue
        if not name.startswith(_BAND_PREFIX):
            if status != "1":
                errors.append(f"{name}: status {status!r}")
            continue
        d_text, b_text = name[len(_BAND_PREFIX):-1].split(",b=")
        d, b = int(d_text), float(b_text)
        precondition = b <= 1.0 / (10.0 * math.sqrt(d))
        if status == "skip":
            if precondition:
                errors.append(f"{name}: skipped although b <= 1/(10 sqrt(d))")
            continue
        mass, bound = float(r["statistic"]), float(r["bound"])
        exact = band_mass(d, b / 2.0, b)
        if abs(mass - exact) > BAND_MASS_RTOL * exact:
            errors.append(f"{name}: quadrature {mass!r} vs betainc {exact!r}")
        if not math.isclose(bound, math.sqrt(d) * b / (8.0 * math.pi), rel_tol=1e-9):
            errors.append(f"{name}: bound {bound!r} is not sqrt(d) b / (8 pi)")
        if not precondition or exact < bound:
            errors.append(f"{name}: passed outside the bound's regime or below it")
    if not any(r["check"].startswith(_BAND_PREFIX) for r in rows):
        errors.append("verify: no band_mass rows")
    return errors, failed


def verify_samples(rows: list[dict], samples: int) -> int:
    """Monte Carlo samples behind the verify rows: one n-sample run per
    error-angle pair, per conditional-moment angle and per progress model."""
    runs = sum(r["check"].startswith(("error_angle[", "cond_moment_mean[", "progress_positive["))
               for r in rows)
    return runs * samples


def flip_errors(tally: dict) -> list[str]:
    """Errors in the oracle label flips recorded by the traced run.

    ``tally`` maps a noise spec to its labels, flips, slab mismatches and,
    for adversarial noise, (d, nu, tau).
    """
    errors = []
    for spec, t in tally.items():
        kind, _, param = spec.partition(":")
        n, flips = t["labels"], t["flips"]
        if kind == "realizable" and flips:
            errors.append(f"{spec}: {flips} flipped labels")
        elif kind == "bounded":
            eta = float(param)
            sd = math.sqrt(n * eta * (1.0 - eta))
            if abs(flips - n * eta) > DRAW_Z * sd:
                errors.append(f"{spec}: {flips}/{n} flips, expected {n * eta:.0f} +- {DRAW_Z * sd:.0f}")
        elif kind == "adversarial":
            if t["slab_mismatches"]:
                errors.append(f"{spec}: {t['slab_mismatches']} labels not flipped exactly on |u.x| <= tau")
            for d, nu, tau in t["slabs"]:
                mass = 2.0 * band_mass(d, 0.0, tau)
                if abs(mass - nu) > BAND_MASS_RTOL * nu:
                    errors.append(f"{spec}: slab mass 2 P[0 <= x1 <= {tau!r}] = {mass!r} != nu")
    return errors
