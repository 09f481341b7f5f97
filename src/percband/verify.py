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
import threading
from dataclasses import dataclass

import numpy as np

from . import geometry
from .learner import mod_perceptron_params
from .oracles import NoiseModel, flip_coins, flip_radius


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

    The two signs read only the direction of x's projection onto span(a, b),
    and that direction is uniform on the circle. So is the direction of a
    point (p, q) uniform on the unit disk (Marsaglia 1972). With
    (c, s) = ``geometry.cos_sin(a, b)``, (p, c p + s q) stands for
    (a . x, b . x) up to a positive factor, so each point costs two uniforms
    by rejection from the square, in any dimension. Each chunk is
    ``rng.uniform(-1, 1, (2, geometry.CHUNK_POINTS))`` bit for bit, made in
    place in one reused buffer, with p in row 0 and q in row 1; the columns
    inside the disk are kept in order until n are kept, and the last chunk's
    surplus draws are discarded.

    The arithmetic goes into work arrays made once, so a chunk allocates
    nothing: a row of CHUNK_POINTS floats is 128 KiB, glibc's initial mmap
    threshold, and temporaries of that size per chunk made the check's speed
    depend on the state of the heap.
    """
    cos, sin = geometry.cos_sin(a, b)
    buf = np.empty((2, geometry.CHUNK_POINTS))
    p, q = buf
    work, work2 = np.empty_like(buf)
    inside, differ, sign = np.empty((3, geometry.CHUNK_POINTS), dtype=bool)
    count = 0
    while n > 0:
        rng.random(out=buf)
        buf *= 2.0
        buf -= 1.0
        np.multiply(p, p, out=work)
        np.multiply(q, q, out=work2)
        work += work2
        np.less_equal(work, 1.0, out=inside)
        kept = int(np.count_nonzero(inside))
        if kept > n:
            inside[np.flatnonzero(inside)[n] :] = False
            kept = n
        np.multiply(p, cos, out=work)
        np.multiply(q, sin, out=work2)
        work += work2
        np.greater_equal(work, 0.0, out=differ)
        np.greater_equal(p, 0.0, out=sign)
        differ ^= sign
        differ &= inside
        count += int(np.count_nonzero(differ))
        n -= kept
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
    geometry.check_integer(n_samples, "n_samples", 1)
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

    For unit vectors u and w at angle theta and x uniform on the slice
    w.x = xi of the sphere, u.x = xi cos(theta) + sqrt(1 - xi^2) sin(theta) t
    with t the first coordinate of a uniform point on the unit sphere of
    R^(d-1) (``geometry.sphere_coordinates``), drawn n times and reduced
    ``geometry.CHUNK_POINTS`` at a time. At margin xi = theta / (8 sqrt(d))
    the three bounds are E[u.x] <= xi, E[(u.x)^2] <= 5 theta^2 / d, and
    E[(u.x) 1{u.x<0}] <= xi - theta / (36 sqrt(d)), each allowed 3 standard
    errors of slack. They are claimed for theta in (0, 9 pi / 10].
    """
    geometry.check_integer(n, "n", 1)
    for theta in theta_list:
        if not (0.0 < theta <= 0.9 * math.pi):
            raise ValueError(f"theta must lie in (0, 9 pi / 10], got {theta}")
    results = []
    for theta in theta_list:
        xi = theta / (8.0 * math.sqrt(d))
        cos_t = math.cos(theta)
        scale = math.sqrt(1.0 - xi * xi) * math.sin(theta)
        sums = np.zeros(3)
        sq_sums = np.zeros(3)
        for start in range(0, n, geometry.CHUNK_POINTS):
            count = min(geometry.CHUNK_POINTS, n - start)
            t = geometry.sphere_coordinates(d - 1, 1, rng, count)[0]
            dots = xi * cos_t + scale * t
            neg = dots * (dots < 0.0)
            for i, vals in enumerate((dots, dots * dots, neg)):
                sums[i] += vals.sum()
                sq_sums[i] += np.square(vals).sum()
        means = sums / n
        ses = np.sqrt(np.maximum(sq_sums / n - means * means, 0.0) / n)
        cases = zip(
            ("mean", "second_moment", "negative_part"),
            means.tolist(),
            (xi, 5.0 * theta**2 / d, xi - theta / (36.0 * math.sqrt(d))),
            ses.tolist(),
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
    """Per-step progress-measure increments from independent random states,
    in chunks of ``geometry.CHUNK_POINTS`` steps.

    Each step plants an iterate at angle theta_t ~ U[theta/4, 5 theta/3] from
    the target, draws a point of the band [b/2, b] around the iterate via the
    margin/orthogonal-sphere decomposition (u . x = xi cos(theta_t) +
    sqrt(1 - xi^2) sin(theta_t) t, with t the orthogonal-sphere marginal),
    labels it by the noise law, and yields the exact change of cos(angle)
    the reflection update would produce: -2 * 1{y (w.x) < 0} (w.x)(u.x).
    The margin w.x = xi is positive, so the update fires iff the label is -1:
    iff (u.x >= 0) equals the flip, as in ``learner._run_chain``.
    Each chunk draws its angles, its margins, its orthogonal-sphere
    coordinates, then its label coins.
    """
    radius = flip_radius(model, d)
    for start in range(0, n_steps, geometry.CHUNK_POINTS):
        count = min(geometry.CHUNK_POINTS, n_steps - start)
        theta_t = rng.uniform(theta / 4.0, 5.0 * theta / 3.0, size=count)
        xi = geometry.sample_margins(d, b / 2.0, b, rng, n=count)
        t = geometry.sphere_coordinates(d - 1, 1, rng, count)[0]
        u_dot_x = xi * np.cos(theta_t) + np.sqrt(1.0 - xi * xi) * np.sin(theta_t) * t
        flips = flip_coins(model, rng, count) & (np.abs(u_dot_x) <= radius)
        yield np.where((u_dot_x >= 0.0) == flips, -2.0 * xi * u_dot_x, 0.0)


def check_progress_measure(
    model: NoiseModel,
    d: int,
    theta: float,
    n_steps: int,
    rng: np.random.Generator,
) -> list[CheckResult]:
    """Expected per-step progress is positive; each step obeys the coarse bound.

    The band width b is the default schedule's for angle bound theta at
    failure budget 0.1, so the coarse-bound threshold
    16 c zeta theta^2 / (3 sqrt(d)) is evaluated at the schedule's actual
    c = b sqrt(d) / (zeta theta), i.e. the threshold equals 16 b theta / 3.
    b <= theta / (2 sqrt(3) ln 10) < theta, as the coarse bound requires.

    The steps are those of :func:`_progress_chunks`, reduced chunk by
    chunk to a running sum, sum of squares and max |increment|.
    """
    if not (0.0 < theta <= 27.0 * math.pi / 50.0):
        raise ValueError(f"theta must lie in (0, 27 pi / 50], got {theta}")
    geometry.check_integer(n_steps, "n_steps", 1)
    _, b = mod_perceptron_params(d, theta, 0.1, model.zeta)
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
    """Run the full verification suite deterministically from a master seed.

    The checks draw from three generators spawned from the seed: one for the
    error/angle pairs, one for the conditional moments and one for the
    progress steps. The progress checks run on a helper thread while this
    thread runs the error/angle, band-mass and moment checks; numpy releases
    the GIL in its generator fills and large loops, so the two overlap. Each
    generator belongs to one thread, so every draw is the same as in one
    thread and the results come back in the same order.
    """
    geometry.check_integer(seed, "seed", 0)
    geometry.check_integer(n_samples, "n_samples", 1)
    children = np.random.SeedSequence(seed).spawn(3)
    rng_pairs = np.random.default_rng(children[0])
    rng_moments = np.random.default_rng(children[1])
    rng_progress = np.random.default_rng(children[2])

    # A daemon thread that keeps its result or its exception: the caller
    # re-raises the exception, and an interrupted caller exits without
    # waiting for the thread.
    outcome: list = []

    def progress() -> None:
        try:
            theta = math.pi / 4.0
            rest = []
            for model in (
                NoiseModel.realizable(),
                NoiseModel.bounded(0.3),
                NoiseModel.adversarial(theta / 200.0),
            ):
                rest += check_progress_measure(model, 10, theta, n_samples, rng_progress)
            outcome.append(rest)
        except BaseException as exc:
            outcome.append(exc)

    helper = threading.Thread(target=progress, daemon=True)
    helper.start()
    results = check_error_angle_relation(10, 20, n_samples, rng_pairs)
    results += check_band_mass_bound(
        [3, 10, 50, 100], [0.005, 0.01, 0.0316, 0.05, 0.2]
    )
    results += check_conditional_moments(
        20, [math.pi / 8.0, math.pi / 4.0], n_samples, rng_moments
    )
    helper.join()
    (rest,) = outcome
    if isinstance(rest, BaseException):
        raise rest
    return results + rest


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
