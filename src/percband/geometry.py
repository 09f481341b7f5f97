"""Unit-sphere geometry: sampling, angles, and spherical-band measures.

A dimension is an integer d >= 3 (:func:`check_dimension`), and vectors are
plain 1-D float64 numpy arrays of length d with unit Euclidean norm. All
derived quantities rest on two facts about the uniform law on the sphere:

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

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MIN_DIMENSION = 3
UNIT_NORM_ATOL = 1e-9

# Bulk draws go in chunks of at most this many bytes of float64 rows: large
# enough to amortize numpy's per-call cost, small enough to stay in cache
# and to bound memory in any dimension.
CHUNK_BYTES = 1 << 20

# Points per chunk of the checks that draw a few scalars per point: with its
# temporaries a point takes about eight float64 words.
CHUNK_POINTS = CHUNK_BYTES // 64

# Terms per run of a band-mass series (a quarter of CHUNK_BYTES per array).
# A lower-mass series has about d/2 terms and an upper-tail one at most
# about 5 d, so up to d of about 6,500 every series fits one run.
SERIES_TERMS = CHUNK_BYTES // 32


class DimensionMismatch(ValueError):
    """Operands live in different (or unsupported) ambient dimensions."""


def check_integer(value, name: str, low: int, error: type = ValueError) -> None:
    """Refuse, naming it, a value that is not an integer >= low (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def check_dimension(d) -> None:
    """Refuse a dimension that is not an integer >= MIN_DIMENSION."""
    check_integer(d, "dimension d", MIN_DIMENSION, DimensionMismatch)


def check_real(value, name: str) -> None:
    """Refuse, naming it, a bool, a value that is not a real number or an
    integer beyond the float range; NaN and infinities pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} is beyond the float range, got {value!r}")


def check_unit(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v``, an array of integers or floats, as a unit-norm 1-D float64 array."""
    try:
        arr = np.asarray(v)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of real numbers, got {v!r}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < MIN_DIMENSION:
        raise DimensionMismatch(f"{name} must have dimension >= {MIN_DIMENSION}, got {arr.shape[0]}")
    # vdot overflows to inf without the RuntimeWarning of dot, @ and norm.
    norm = math.sqrt(np.vdot(arr, arr))
    if not abs(norm - 1.0) <= UNIT_NORM_ATOL:
        raise ValueError(f"{name} must have unit norm, got {norm!r}")
    return arr


def check_same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


@dataclass(frozen=True)
class Band:
    """Spherical slab {x : lower <= normal . x <= upper} with 0 < lower < upper <= 1."""

    normal: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "normal", check_unit(self.normal, "band normal"))
        if not (0.0 < self.lower < self.upper <= 1.0):
            raise ValueError(
                f"band requires 0 < lower < upper <= 1, got [{self.lower}, {self.upper}]"
            )

    @property
    def dimension(self) -> int:
        return self.normal.shape[0]


def chunk_rows(d: int) -> int:
    """Rows of d float64 coordinates that fit in ``CHUNK_BYTES`` (at least one)."""
    return max(1, CHUNK_BYTES // (8 * d))


def sample_uniform_sphere(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Draw uniformly from the unit sphere in R^d by normalizing Gaussians.

    Returns shape (d,) when ``n`` is None, else (n, d).
    """
    check_dimension(d)
    if n is None:
        v = rng.standard_normal(d)
        return v / np.linalg.norm(v)
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def angle(a, b) -> float:
    """Angle in [0, pi] between the unit vectors a and b, as atan2 of
    :func:`cos_sin`. It keeps its relative precision at small angles, where
    acos(a . b) reads 0 below about 1.5e-8 and is 0.04% low at 3e-7."""
    av = check_unit(a, "a")
    bv = check_unit(b, "b")
    check_same_dimension(av, bv)
    cos, sin = cos_sin(av, bv)
    return math.atan2(sin, cos)


def cos_sin(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Cosine and sine of the angle between the unit vectors a and b: a . b
    and the norm of b's part orthogonal to a. Unlike acos(a . b), which reads
    0 below about 1.5e-8, the sine keeps its relative precision at small
    angles."""
    cos = float(a @ b)
    perp = b - cos * a
    return cos, math.sqrt(perp @ perp)


def disagreement_mass(a, b) -> float:
    """Probability that the halfspaces of a and b disagree on a uniform point.

    Equals angle(a, b) / pi exactly; no sampling involved.
    """
    return angle(a, b) / math.pi


def band_mass(d: int, lower: float, upper: float) -> float:
    """P[lower <= x1 <= upper] for x uniform on the sphere in R^d, in closed form.

    Memoized: the CLI's preflight and every run of a configuration ask for
    the same bands, one per epoch. Every argument is checked before the
    cache is read, so 10.0, equal to 10 as a key, is refused and not served
    the d = 10 mass.

    With q = 1 - z^2, k = (d - 3) // 2 and e = 1 if d is even, else 0:
    P[0 <= x1 <= z] = e asin(z)/pi + t_0 + ... + t_k, P[x1 >= z] = t_{k+1} + ...,
    t_0 = z sqrt(q)/pi if e else z/2, t_i = t_{i-1} q (2i - 1 + e)/(2i + e)
    (Abramowitz & Stegun 26.7.3-4). Every term is positive.
    """
    check_dimension(d)
    check_real(lower, "lower")
    check_real(upper, "upper")
    return _band_mass(d, lower, upper)


@functools.lru_cache(maxsize=256)
def _band_mass(d: int, lower: float, upper: float) -> float:
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError(f"band_mass needs 0 <= lower < upper <= 1, got [{lower}, {upper}]")
    k = (d - 3) // 2
    below = _series_sum(d, lower, 0, k) if lower > 0.0 else 0.0
    if 0.5 - below >= 2.0**-10:  # else a difference of masses near 1/2 would cancel
        return _series_sum(d, upper, 0, k) - below
    # Upper masses: each term is below q times the one before, so the terms
    # past t_n add under 2^-53 of P[x1 >= lower] once q^(n-k) <= 2^-53 lower^2.
    n = k + math.ceil(math.log(2.0**53 / lower**2) / -math.log1p(-lower * lower))
    return _series_sum(d, lower, k + 1, n) - _series_sum(d, upper, k + 1, n)


def _series_sum(d: int, z: float, start: int, stop: int) -> float:
    """t_start + ... + t_stop at z, plus e asin(z)/pi if start is 0. q^i is
    exp(i log1p(-z^2)), as q^i of a rounded q would be off by i ulps. The
    terms are summed ``SERIES_TERMS`` at a time, so memory stays bounded in
    any dimension. Each run's factors t_i / (t_0 q^i) carry on the running
    product of the run before, so they have the same bits as in one run."""
    if z >= 1.0:
        return 0.5 if start == 0 else 0.0
    even = d % 2 == 0
    log_q = math.log1p(-z * z)
    total, carry = 0.0, 1.0
    for first in range(0, stop + 1, SERIES_TERMS):
        end = min(first + SERIES_TERMS, stop + 1)
        m = 2.0 * np.arange(max(first, 1), end) + even
        factors = np.cumprod(np.concatenate(([carry], (m - 1.0) / m)))[first > 0 :]
        carry = float(factors[-1])
        lo = max(first, start)
        if lo < end:
            powers = np.exp(np.arange(lo, end) * log_q)
            total += float(powers.dot(factors[lo - first :]))
    t0 = z * math.sqrt((1.0 - z) * (1.0 + z)) / math.pi if even else 0.5 * z
    head = math.asin(z) / math.pi if even and start == 0 else 0.0
    return head + t0 * total


def sample_margins(
    d: int, lower: float, upper: float, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Sample n margin coordinates from the band-restricted marginal density.

    The density on [lower, upper] is proportional to (1 - z^2)^((d-3)/2),
    which is monotone decreasing there (0 <= lower), so rejection against
    the uniform envelope with ceiling at z = lower is exact. The acceptance
    ratio is taken as one power of (1 - z^2) / (1 - lower^2): in high d the
    ceiling alone underflows to 0 far from the equator, and every candidate
    would pass.

    A candidate is accepted with probability the band's mean density over
    its ceiling. The schedule's bands [b/2, b] have b below about
    1/sqrt(d), where the density is nearly flat and almost every candidate
    passes. Where it falls steeply the loop is slow:
    ``sample_margins(10000, 0.5, 0.6, rng, 100000)`` accepts about 0.15% of
    its candidates and takes a few seconds.
    """
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError(f"invalid interval [{lower}, {upper}]")
    count = int(n)
    expo = (d - 3) / 2.0
    q_lower = 1.0 - lower * lower
    out = np.empty(count)
    filled = 0
    while filled < count:
        todo = count - filled
        cand = rng.uniform(lower, upper, size=todo)
        accept = rng.random(todo) <= ((1.0 - cand * cand) / q_lower) ** expo
        kept = cand[accept]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out


def rejection_sample_band(band: Band, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Draw one point uniform on ``band``; also return the unlabeled draws used.

    The literal process: draw uniform sphere points and discard them until
    one lands in the band. The draws go in chunks; ``draws_used`` is the
    count of the sequential process, up to and including the first hit. The
    learner takes the same law of (point, draws) from :func:`draw_band_tape`,
    and the tests compare the two.
    """
    d = band.dimension
    mass = band_mass(d, band.lower, band.upper)
    if mass <= 0.0:
        raise ValueError("band has zero mass")
    chunk = min(max(16, math.ceil(4.0 / mass)), chunk_rows(d))
    used = 0
    while True:
        pts = sample_uniform_sphere(d, rng, n=chunk)
        dots = pts @ band.normal
        hits = np.flatnonzero((dots >= band.lower) & (dots <= band.upper))
        if hits.size:
            first = int(hits[0])
            return pts[first], used + first + 1
        used += chunk


class BandTape(NamedTuple):
    """The randomness of n band samples around a normal not yet fixed.

    Point i is ``margins[i] * w + sqrt(1 - margins[i]^2) * v`` with v uniform
    on the unit sphere of w's orthogonal complement, and it costs
    ``draws[i]`` unlabeled draws. ``tau1[i]`` and ``tau2[i]`` are v's
    coordinates along two orthonormal directions of that complement, chosen
    by whoever builds the point; v's other coordinates are never drawn.
    Around any unit normal w, (point, draws) has the law of
    :func:`rejection_sample_band` on the band.
    """

    draws: np.ndarray  # (n,) int: Geometric(mass) draw counts
    margins: np.ndarray  # (n,): w . x from the band-restricted marginal
    tau1: np.ndarray  # (n,): first coordinate of v
    tau2: np.ndarray  # (n,): second coordinate of v


def sphere_coordinates(k: int, m: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """The first m coordinates of n uniform points on the unit sphere of R^k,
    as an (m, n) array. A uniform point is a standard Gaussian k-vector over
    its norm, so they are m Gaussians over the root of their squares plus a
    chi-square with k - m degrees of freedom, drawn in that order; no point
    costs more than m + 1 scalars in any dimension."""
    g = rng.standard_normal((m, n))
    rest = 2.0 * rng.standard_gamma((k - m) / 2.0, size=n)  # chi2_(k-m); 0 when k = m
    return g / np.sqrt((g * g).sum(axis=0) + rest)


def draw_band_tape(
    d: int, lower: float, upper: float, mass: float, rng: np.random.Generator, n: int
) -> BandTape:
    """Draw n band samples' randomness in bulk from ``rng``, in this order: the
    draw counts, the margins, then v's first two coordinates on the unit
    sphere of R^(d-1) (:func:`sphere_coordinates`)."""
    draws = rng.geometric(mass, size=n)
    margins = sample_margins(d, lower, upper, rng, n=n)
    tau = sphere_coordinates(d - 1, 2, rng, n)
    return BandTape(draws, margins, tau[0], tau[1])
