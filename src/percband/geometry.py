"""Unit-sphere geometry: sampling, angles, and spherical-band measures.

Vectors are plain 1-D float64 numpy arrays of length d >= 3 with unit
Euclidean norm. All derived quantities rest on two facts about the uniform
distribution on the sphere:

* the first coordinate has density (1 - z^2)^((d-3)/2) / B((d-1)/2, 1/2)
  on [-1, 1], and
* conditioned on its projection onto a fixed direction, a uniform point is
  that projection plus a uniformly distributed point of the orthogonal
  (d-2)-sphere, scaled to unit norm.

Samplers take an explicit ``numpy.random.Generator``; nothing in this module
holds mutable state, so concurrent use is safe as long as each thread owns
its generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MIN_DIMENSION = 3
UNIT_NORM_ATOL = 1e-9

# Switch from literal draw-and-discard sampling to the distributionally
# equivalent geometric shortcut once a band is thin enough that literal
# sampling would need more than this many draws per accepted point.
GEOMETRIC_SAMPLER_MIN_EXPECTED_DRAWS = 200.0

# A Gaussian whose part orthogonal to the band normal has a squared norm at
# or below this is redrawn: its direction is numerically meaningless.
MIN_ORTHOGONAL_SQ_NORM = 1e-24

_MAX_CHUNK = 1 << 16


class DimensionMismatch(ValueError):
    """Operands live in different (or unsupported) ambient dimensions."""


class DrawBudgetExceeded(RuntimeError):
    """Rejection sampling ran out of its draw budget before accepting.

    Attributes:
        draws_used: unlabeled draws consumed before giving up (equals the
            budget that was passed in).
    """

    def __init__(self, message: str, draws_used: int):
        super().__init__(message)
        self.draws_used = draws_used


def check_unit(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a unit-norm 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < MIN_DIMENSION:
        raise DimensionMismatch(
            f"{name} must have dimension >= {MIN_DIMENSION}, got {arr.shape[0]}"
        )
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise ValueError(f"{name} must have unit norm, got {norm!r}")
    return arr


def check_same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def normalize(v) -> np.ndarray:
    """Scale ``v`` to unit norm (rejects the zero vector)."""
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / norm


@dataclass(frozen=True)
class Band:
    """Spherical slab {x : lower <= normal . x <= upper} with 0 < lower < upper <= 1."""

    normal: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        check_unit(self.normal, "band normal")
        if not (0.0 < self.lower < self.upper <= 1.0):
            raise ValueError(
                f"band requires 0 < lower < upper <= 1, got [{self.lower}, {self.upper}]"
            )

    @property
    def dimension(self) -> int:
        return self.normal.shape[0]


def sample_uniform_sphere(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Draw uniformly from the unit sphere in R^d by normalizing Gaussians.

    Returns shape (d,) when ``n`` is None, else (n, d).
    """
    if d < MIN_DIMENSION:
        raise DimensionMismatch(f"dimension must be >= {MIN_DIMENSION}, got {d}")
    if n is None:
        v = rng.standard_normal(d)
        return v / np.linalg.norm(v)
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def angle(a, b) -> float:
    """Angle arccos(a . b) in [0, pi]; the dot product is clamped to [-1, 1]."""
    av = check_unit(a, "a")
    bv = check_unit(b, "b")
    check_same_dimension(av, bv)
    dot = float(np.dot(av, bv))
    return math.acos(min(1.0, max(-1.0, dot)))


def disagreement_mass(a, b) -> float:
    """Probability that the halfspaces of a and b disagree on a uniform point.

    Equals angle(a, b) / pi exactly; no sampling involved.
    """
    return angle(a, b) / math.pi


def marginal_density(d: int, z):
    """Density of one coordinate of a uniform point on the sphere in R^d."""
    if d < MIN_DIMENSION:
        raise DimensionMismatch(f"dimension must be >= {MIN_DIMENSION}, got {d}")
    z = np.asarray(z, dtype=np.float64)
    norm = math.exp(
        math.lgamma((d - 1) / 2.0) + math.lgamma(0.5) - math.lgamma(d / 2.0)
    )
    return np.where(np.abs(z) <= 1.0, (1.0 - np.minimum(z * z, 1.0)) ** ((d - 3) / 2.0), 0.0) / norm


def band_mass(d: int, lower: float, upper: float) -> float:
    """P[lower <= x1 <= upper] for x uniform on the sphere in R^d.

    Computed by adaptive quadrature of the one-coordinate marginal density;
    relative error is driven below 1e-8.
    """
    if d < MIN_DIMENSION:
        raise DimensionMismatch(f"dimension must be >= {MIN_DIMENSION}, got {d}")
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError(f"invalid interval [{lower}, {upper}]")
    from scipy import integrate  # deferred: scipy costs most of a cold import

    value, _ = integrate.quad(
        lambda z: marginal_density(d, z),
        lower,
        upper,
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    return float(value)


def sample_band_margin(
    d: int,
    lower: float,
    upper: float,
    rng: np.random.Generator,
    n: int | None = None,
) -> np.ndarray | float:
    """Sample the margin coordinate from the band-restricted marginal density.

    The density on [lower, upper] is proportional to (1 - z^2)^((d-3)/2),
    which is monotone decreasing there (0 <= lower), so rejection against
    the uniform envelope with ceiling at z = lower is exact.
    """
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError(f"invalid interval [{lower}, {upper}]")
    if n is None:
        return _band_margin(d, lower, upper, rng)
    count = int(n)
    expo = (d - 3) / 2.0
    ceiling = (1.0 - lower * lower) ** expo
    out = np.empty(count)
    filled = 0
    while filled < count:
        todo = count - filled
        cand = rng.uniform(lower, upper, size=todo)
        accept = rng.random(todo) * ceiling <= (1.0 - cand * cand) ** expo
        kept = cand[accept]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out


def _band_margin(d: int, lower: float, upper: float, rng: np.random.Generator) -> float:
    """One margin from the band-restricted marginal, drawing the same two
    doubles per round as a one-element ``sample_band_margin`` batch."""
    expo = (d - 3) / 2.0
    ceiling = (1.0 - lower * lower) ** expo
    while True:
        z = lower + (upper - lower) * rng.random()
        if rng.random() * ceiling <= (1.0 - z * z) ** expo:
            return z


def _orthogonal_unit(normal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector in the hyperplane orthogonal to ``normal``."""
    while True:
        g = rng.standard_normal(normal.shape[0])
        g -= g.dot(normal) * normal
        sq_norm = g.dot(g)
        if sq_norm > MIN_ORTHOGONAL_SQ_NORM:
            return g / math.sqrt(sq_norm)


def rejection_sample_band(
    band: Band,
    rng: np.random.Generator,
    draw_budget: int,
    method: str = "auto",
    mass: float | None = None,
) -> tuple[np.ndarray, int]:
    """Draw one point uniform on ``band``; also return the unlabeled draws used.

    ``draws_used`` counts every unlabeled draw including the accepted one.

    Two interchangeable implementations:

    * ``"literal"``: draw uniform sphere points and discard until one lands
      in the band (vectorized in chunks; the count is that of the sequential
      process, i.e. up to and including the first hit).
    * ``"geometric"``: draw the count from the exact Geometric(p) law with
      p = band_mass, then sample the accepted point directly from the band's
      conditional distribution (margin from the restricted marginal, the rest
      uniform on the orthogonal sphere). The joint law of (point, draws_used)
      is identical to the literal sampler's; only the cost differs.

    ``"auto"`` picks geometric once the expected draws per accepted point
    exceed GEOMETRIC_SAMPLER_MIN_EXPECTED_DRAWS.

    ``mass`` short-circuits the band-mass quadrature for callers that sample
    the same band geometry repeatedly.
    """
    if draw_budget < 1:
        raise ValueError("draw_budget must be >= 1")
    if mass is None:
        mass = band_mass(band.dimension, band.lower, band.upper)
    if mass <= 0.0:
        raise ValueError("band has zero mass")
    if method == "auto":
        method = "geometric" if 1.0 / mass > GEOMETRIC_SAMPLER_MIN_EXPECTED_DRAWS else "literal"
    samplers = {"geometric": _sample_band_geometric, "literal": _sample_band_literal}
    if method not in samplers:
        raise ValueError(f"unknown sampling method {method!r}")
    return samplers[method](band.normal, band.lower, band.upper, mass, rng, draw_budget)


def _sample_band_literal(
    normal: np.ndarray,
    lower: float,
    upper: float,
    mass: float,
    rng: np.random.Generator,
    draw_budget: int,
) -> tuple[np.ndarray, int]:
    d = normal.shape[0]
    chunk = int(min(max(16, math.ceil(4.0 / mass)), _MAX_CHUNK))
    used = 0
    while used < draw_budget:
        take = min(chunk, draw_budget - used)
        pts = sample_uniform_sphere(d, rng, n=take)
        dots = pts @ normal
        hits = np.flatnonzero((dots >= lower) & (dots <= upper))
        if hits.size:
            first = int(hits[0])
            return pts[first], used + first + 1
        used += take
    raise DrawBudgetExceeded(
        f"no point accepted within {draw_budget} draws", draws_used=draw_budget
    )


def _sample_band_geometric(
    normal: np.ndarray,
    lower: float,
    upper: float,
    mass: float,
    rng: np.random.Generator,
    draw_budget: int,
) -> tuple[np.ndarray, int]:
    draws = int(rng.geometric(mass))
    if draws > draw_budget:
        raise DrawBudgetExceeded(
            f"no point accepted within {draw_budget} draws", draws_used=draw_budget
        )
    xi = _band_margin(normal.shape[0], lower, upper, rng)
    perp = _orthogonal_unit(normal, rng)
    point = xi * normal + math.sqrt(max(0.0, 1.0 - xi * xi)) * perp
    return point / math.sqrt(point.dot(point)), draws


class BandTape(NamedTuple):
    """The randomness of n band samples around a normal not yet fixed.

    Point i is ``margins[i] * w + sqrt(1 - margins[i]^2) * v`` with v the
    unit part of ``gauss[i]`` orthogonal to the normal w, and it costs
    ``draws[i]`` unlabeled draws; this is the geometric sampler's law for
    whichever unit normal w the point is built around.
    """

    draws: np.ndarray  # (n,) int: Geometric(mass) draw counts
    margins: np.ndarray  # (n,): w . x from the band-restricted marginal
    gauss: np.ndarray  # (n, d): standard Gaussians for the orthogonal part
    sq_norms: np.ndarray  # (n,): gauss[i] . gauss[i]


def draw_band_tape(
    d: int, lower: float, upper: float, mass: float, rng: np.random.Generator, n: int
) -> BandTape:
    """Draw n band samples' randomness in bulk from ``rng``, in this order: the
    draw counts, the margins, the Gaussians."""
    draws = rng.geometric(mass, size=n)
    margins = sample_band_margin(d, lower, upper, rng, n=n)
    gauss = rng.standard_normal((n, d))
    return BandTape(draws, margins, gauss, np.einsum("ij,ij->i", gauss, gauss))


@dataclass(frozen=True)
class ConditionalMoments:
    """Monte Carlo estimates of E[u.x], E[(u.x)^2], E[(u.x) 1{u.x < 0}]."""

    mean: float
    second_moment: float
    negative_part_mean: float
    se_mean: float
    se_second: float
    se_negative: float
    n: int


def conditional_moment_oracle(
    u,
    w,
    xi: float,
    n: int,
    rng: np.random.Generator,
    chunk: int = 200_000,
) -> ConditionalMoments:
    """Moments of u . x with x uniform on the slice {x on sphere : w . x = xi}.

    Conditioned on its margin xi along w, a uniform sphere point is
    xi * w + sqrt(1 - xi^2) * x_perp with x_perp uniform on the unit sphere of
    w's orthogonal complement, so u . x = xi cos(theta) + sqrt(1 - xi^2)
    sin(theta) t with t the first-coordinate marginal of that sphere. The
    preconditions mirror the regime in which the closed-form bounds on these
    moments hold: theta in (0, 9 pi / 10] and 0 <= xi <= theta / (4 sqrt(d)).
    """
    uv = check_unit(u, "u")
    wv = check_unit(w, "w")
    check_same_dimension(uv, wv)
    d = uv.shape[0]
    theta = angle(uv, wv)
    if not (0.0 < theta <= 0.9 * math.pi):
        raise ValueError(f"angle between u and w must lie in (0, 9pi/10], got {theta}")
    if not (0.0 <= xi <= theta / (4.0 * math.sqrt(d))):
        raise ValueError(
            f"xi must lie in [0, theta/(4 sqrt(d))] = [0, {theta / (4 * math.sqrt(d))}], got {xi}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")

    cos_t = math.cos(theta)
    scale = math.sqrt(max(0.0, 1.0 - xi * xi))
    sums = np.zeros(3)
    sq_sums = np.zeros(3)
    done = 0
    while done < n:
        take = min(chunk, n - done)
        g = rng.standard_normal((take, d))
        g -= np.outer(g @ wv, wv)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        dots = xi * cos_t + scale * (g @ uv)
        neg = dots * (dots < 0.0)
        for i, vals in enumerate((dots, dots * dots, neg)):
            sums[i] += vals.sum()
            sq_sums[i] += np.square(vals).sum()
        done += take

    means = sums / n
    variances = np.maximum(sq_sums / n - means * means, 0.0)
    ses = np.sqrt(variances / n)
    return ConditionalMoments(
        mean=float(means[0]),
        second_moment=float(means[1]),
        negative_part_mean=float(means[2]),
        se_mean=float(ses[0]),
        se_second=float(ses[1]),
        se_negative=float(ses[2]),
        n=n,
    )
