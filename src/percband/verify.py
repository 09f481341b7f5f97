"""Statistical verification suite for the geometric and progress guarantees.

Each check replays one of the quantitative facts the learner relies on
(error/angle identity, band-mass lower bound, conditional moment bounds,
per-step expected progress and its coarse envelope) as a seeded Monte Carlo
or exact computation with an explicit pass/fail margin. Sampled checks
use 3-standard-error margins: tight enough to catch implementation bugs,
loose enough (~0.3% false-failure rate per check) not to trip on luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .learner import DEFAULT_SCALE_B, DEFAULT_SCALE_M, mod_perceptron_params
from .oracles import NoiseModel, adversarial_threshold, labels_from_dots


@dataclass(frozen=True)
class CheckResult:
    """Machine-readable outcome of one verification check.

    ``statistic`` is the measured quantity, ``bound`` the value it is compared
    against, and ``margin`` the statistical allowance applied (0 for exact
    checks). Skipped entries record preconditions that ruled a case out.
    """

    name: str
    passed: bool
    statistic: float
    bound: float
    margin: float
    detail: str = ""
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        text = f"[{status}] {self.name}: stat={self.statistic:.6g} bound={self.bound:.6g} margin={self.margin:.6g}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def count_disagreements(a: np.ndarray, b: np.ndarray, n: int, rng: np.random.Generator) -> int:
    """Points among n uniform on the sphere where sign(a . x) != sign(b . x).

    Draws the same Gaussians from ``rng``, in the same order, as
    ``geometry.sample_uniform_sphere(d, rng, n=n)``, but tests the signs on
    them unnormalized: a sign is invariant under positive scaling.
    """
    normals = np.column_stack([a, b])
    count = 0
    for g in geometry.gaussian_chunks(a.shape[0], n, rng):
        signs = g @ normals >= 0.0
        count += int(np.count_nonzero(signs[:, 0] != signs[:, 1]))
    return count


def check_error_angle_relation(
    d: int,
    n_pairs: int,
    n_samples: int,
    rng: np.random.Generator,
) -> list[CheckResult]:
    """Empirical disagreement frequency vs the exact value angle/pi.

    For each random hypothesis pair, the Monte Carlo disagreement over
    n_samples uniform points must match angle/pi within 3 binomial standard
    errors.
    """
    results = []
    for i in range(n_pairs):
        a = geometry.sample_uniform_sphere(d, rng)
        b = geometry.sample_uniform_sphere(d, rng)
        expected = geometry.disagreement_mass(a, b)
        disagreements = count_disagreements(a, b, n_samples, rng)
        freq = disagreements / n_samples
        margin = 3.0 * math.sqrt(max(expected * (1.0 - expected), 1e-12) / n_samples)
        deviation = abs(freq - expected)
        results.append(
            CheckResult(
                name=f"error_angle[d={d},pair={i}]",
                passed=deviation <= margin,
                statistic=deviation,
                bound=margin,
                margin=margin,
                detail=f"freq={freq:.6f} expected={expected:.6f}",
            )
        )
    return results


def check_band_mass_bound(
    d_list: list[int],
    b_list: list[float],
) -> list[CheckResult]:
    """Exact band mass of [b/2, b] vs the lower bound sqrt(d) b / (8 pi).

    The bound is only claimed for b <= 1/(10 sqrt(d)); wider bands are
    reported as skipped with a precondition note.
    """
    results = []
    for d in d_list:
        b_max = 1.0 / (10.0 * math.sqrt(d))
        for b in b_list:
            name = f"band_mass[d={d},b={b:.6g}]"
            if b > b_max:
                results.append(
                    CheckResult(
                        name=name,
                        passed=True,
                        statistic=math.nan,
                        bound=math.nan,
                        margin=0.0,
                        detail=f"skipped: b > 1/(10 sqrt(d)) = {b_max:.6g}",
                        skipped=True,
                    )
                )
                continue
            mass = geometry.band_mass(d, b / 2.0, b)
            bound = math.sqrt(d) * b / (8.0 * math.pi)
            results.append(
                CheckResult(
                    name=name,
                    passed=mass >= bound,
                    statistic=mass,
                    bound=bound,
                    margin=0.0,
                )
            )
    return results


def check_conditional_moments(
    d: int,
    theta_list: list[float],
    n: int,
    rng: np.random.Generator,
) -> list[CheckResult]:
    """Slice-conditional moment estimates vs their closed-form upper bounds.

    At margin xi = theta / (8 sqrt(d)) the three bounds are
    E[u.x] <= xi, E[(u.x)^2] <= 5 theta^2 / d, and
    E[(u.x) 1{u.x<0}] <= xi - theta / (36 sqrt(d)), each allowed 3 standard
    errors of slack.
    """
    results = []
    e1 = np.zeros(d)
    e1[0] = 1.0
    for theta in theta_list:
        w = np.zeros(d)
        w[0] = math.cos(theta)
        w[1] = math.sin(theta)
        xi = theta / (8.0 * math.sqrt(d))
        moments = geometry.conditional_moment_oracle(e1, w, xi, n, rng)
        cases = (
            ("mean", moments.mean, xi, moments.se_mean),
            ("second_moment", moments.second_moment, 5.0 * theta**2 / d, moments.se_second),
            (
                "negative_part",
                moments.negative_part_mean,
                xi - theta / (36.0 * math.sqrt(d)),
                moments.se_negative,
            ),
        )
        for label, stat, bound, se in cases:
            results.append(
                CheckResult(
                    name=f"cond_moment_{label}[d={d},theta={theta:.4g}]",
                    passed=stat <= bound + 3.0 * se,
                    statistic=stat,
                    bound=bound,
                    margin=3.0 * se,
                )
            )
    return results


def _progress_chunks(
    model: NoiseModel, d: int, theta: float, b: float, n_steps: int, rng: np.random.Generator
):
    """Yield the increments of :func:`simulate_progress_steps` in chunks of
    ``geometry.chunk_rows(d - 1)`` steps. Each chunk draws its angles, its
    margins, its Gaussians (into one reused 1 MiB buffer), then its label coins."""
    tau = adversarial_threshold(d, model.nu) if model.kind == "adversarial" else None
    rows = geometry.chunk_rows(d - 1)
    buf = np.empty((min(rows, n_steps), d - 1))
    for start in range(0, n_steps, rows):
        count = min(rows, n_steps - start)
        theta_t = rng.uniform(theta / 4.0, 5.0 * theta / 3.0, size=count)
        xi = geometry.sample_margins(d, b / 2.0, b, rng, n=count)
        g = rng.standard_normal(out=buf[:count])
        t = g[:, 0] / np.sqrt(np.einsum("ij,ij->i", g, g))
        u_dot_x = xi * np.cos(theta_t) + np.sqrt(1.0 - xi * xi) * np.sin(theta_t) * t
        ys = labels_from_dots(model, u_dot_x, rng, tau)
        yield np.where(ys * xi < 0.0, -2.0 * xi * u_dot_x, 0.0)


def simulate_progress_steps(
    model: NoiseModel,
    d: int,
    theta: float,
    b: float,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-step progress-measure increments from independent random states.

    Each step plants an iterate at angle theta_t ~ U[theta/4, 5 theta/3] from
    the target, draws a point of the band [b/2, b] around the iterate via the
    margin/orthogonal-sphere decomposition (u . x = xi cos(theta_t) +
    sqrt(1 - xi^2) sin(theta_t) t, with t the orthogonal-sphere marginal),
    labels it by the noise law, and returns the exact change of cos(angle)
    the reflection update would produce: -2 * 1{y (w.x) < 0} (w.x)(u.x).
    This concatenates the chunks of :func:`_progress_chunks`.
    """
    return np.concatenate(list(_progress_chunks(model, d, theta, b, n_steps, rng)))


def check_progress_measure(
    model: NoiseModel,
    d: int,
    theta: float,
    n_steps: int,
    rng: np.random.Generator,
    b: float | None = None,
    delta: float = 0.1,
    scale_m: float = DEFAULT_SCALE_M,
    scale_b: float = DEFAULT_SCALE_B,
) -> list[CheckResult]:
    """Expected per-step progress is positive; each step obeys the coarse bound.

    ``b`` defaults to the schedule's band width for angle bound theta, so the
    coarse-bound threshold 16 c zeta theta^2 / (3 sqrt(d)) is evaluated at the
    schedule's actual c = b sqrt(d) / (zeta theta), i.e. the threshold equals
    16 b theta / 3.

    The steps are those of :func:`simulate_progress_steps`, reduced chunk by
    chunk to a running sum, sum of squares and max |increment|.
    """
    if not (0.0 < theta <= 27.0 * math.pi / 50.0):
        raise ValueError(f"theta must lie in (0, 27 pi / 50], got {theta}")
    if b is None:
        _, b = mod_perceptron_params(
            d, theta, delta, model.zeta, scale_m=scale_m, scale_b=scale_b
        )
    if b > theta:
        raise ValueError("coarse bound requires b <= theta")
    total = sq_total = worst = 0.0
    for deltas in _progress_chunks(model, d, theta, b, n_steps, rng):
        total += float(deltas.sum())
        sq_total += float(np.square(deltas).sum())
        worst = max(worst, float(np.max(np.abs(deltas))))
    mean = total / n_steps
    se = math.sqrt(max(sq_total / n_steps - mean * mean, 0.0) / n_steps)
    tag = f"{model.kind},d={d},theta={theta:.4g}"
    coarse = 16.0 * b * theta / 3.0
    return [
        CheckResult(
            name=f"progress_positive[{tag}]",
            passed=mean - 3.0 * se > 0.0,
            statistic=mean,
            bound=0.0,
            margin=3.0 * se,
            detail=f"b={b:.6g}",
        ),
        CheckResult(
            name=f"progress_coarse_bound[{tag}]",
            passed=worst <= coarse,
            statistic=worst,
            bound=coarse,
            margin=0.0,
            detail=f"b={b:.6g}",
        ),
    ]


def run_suite(seed: int = 0, n_samples: int = 1_000_000) -> list[CheckResult]:
    """Run the full verification suite deterministically from a master seed."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    children = np.random.SeedSequence(seed).spawn(3)
    rng_pairs = np.random.default_rng(children[0])
    rng_moments = np.random.default_rng(children[1])
    rng_progress = np.random.default_rng(children[2])

    results: list[CheckResult] = []
    results += check_error_angle_relation(10, 20, n_samples, rng_pairs)
    results += check_band_mass_bound(
        [3, 10, 50, 100], [0.005, 0.01, 0.0316, 0.05, 0.2]
    )
    results += check_conditional_moments(
        20, [math.pi / 8.0, math.pi / 4.0], n_samples, rng_moments
    )
    theta = math.pi / 4.0
    for model in (
        NoiseModel.realizable(),
        NoiseModel.bounded(0.3),
        NoiseModel.adversarial(theta / 200.0),
    ):
        results += check_progress_measure(
            model, 10, theta, n_samples, rng_progress
        )
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
