"""Query-counted labeling oracles for a hidden halfspace under label noise.

Every label is a (possibly corrupted) version of sign(u . x) for the hidden
unit vector u, with sign(0) := +1. Three corruption regimes are supported:

* ``realizable`` - labels are exact;
* ``bounded`` - Massart noise: each label flips independently with
  probability eta < 1/2;
* ``adversarial`` - a fixed, deterministic corruption: labels are inverted
  exactly on the slab |u . x| <= tau, with tau chosen so the corrupted mass
  equals nu. Total disagreement with sign(u . x) is then exactly nu.

Every regime is one law: a label flips iff its coin from :func:`flip_coins`
is set and |u . x| is at most :func:`flip_radius`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry


@dataclass(frozen=True)
class NoiseModel:
    """Label-corruption configuration: a kind and its one level ``param``,
    eta for bounded noise, nu for adversarial noise and 0 for realizable."""

    kind: str
    param: float = 0.0

    def __post_init__(self):
        name = {"realizable": "param", "bounded": "eta", "adversarial": "nu"}.get(self.kind)
        if name is None:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        p = self.param
        geometry.check_real(p, name)
        if self.kind == "realizable" and p != 0.0:
            raise ValueError(f"param must be 0 for realizable noise, got {p}")
        if self.kind == "bounded" and not (0.0 <= p < 0.5):
            raise ValueError(f"eta must lie in [0, 1/2), got {p}")
        if self.kind == "adversarial" and not (0.0 <= p <= 1.0):
            raise ValueError(f"nu must lie in [0, 1], got {p}")
        # A level of -0 is the model of level 0, and is written as 0.
        object.__setattr__(self, "param", p + 0.0)

    @classmethod
    def realizable(cls) -> "NoiseModel":
        return cls("realizable")

    @classmethod
    def bounded(cls, eta: float) -> "NoiseModel":
        return cls("bounded", eta)

    @classmethod
    def adversarial(cls, nu: float) -> "NoiseModel":
        return cls("adversarial", nu)

    @property
    def zeta(self) -> float:
        """Noise factor 1 - 2 eta for bounded noise, 1 otherwise."""
        if self.kind == "bounded":
            return 1.0 - 2.0 * self.param
        return 1.0


def adversarial_threshold(d: int, nu: float) -> float:
    """Slab half-width tau with P[|x1| <= tau] = nu for x uniform on the sphere.

    Bisection on :func:`geometry.band_mass`: 45 halvings of [0, 1] leave tau
    within 2^-46 (about 1.4e-14) of the root. Memoized, as the oracle of
    every trial of a configuration asks for the same tau.
    """
    return _adversarial_threshold(d, nu)


@functools.lru_cache(maxsize=64)
def _adversarial_threshold(d: int, nu: float) -> float:
    if not (0.0 <= nu <= 1.0):
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    if nu in (0.0, 1.0):
        return nu
    lo, hi = 0.0, 1.0
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if 2.0 * geometry.band_mass(d, 0.0, mid) < nu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def flip_coins(model: NoiseModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-label corruption coins for the next n labels.

    Under bounded noise each label gets a Bernoulli(eta) coin, one
    uniform from ``rng`` per label (the only draws the label law makes);
    otherwise the coin is constant and nothing is drawn. A coin flips its
    label iff |u . x| is at most :func:`flip_radius`.
    """
    if model.kind == "bounded":
        return rng.random(n) < model.param
    return np.full(n, model.kind == "adversarial" and model.param > 0.0)


def flip_radius(model: NoiseModel, d: int) -> float:
    """The largest |u . x| in R^d at which a coin from :func:`flip_coins`
    flips a label: the adversarial slab's half-width, or inf."""
    if model.kind == "adversarial":
        return adversarial_threshold(d, model.param)
    return math.inf


class LabelingOracle:
    """Labeling oracle for a hidden target halfspace, counting every query.

    An oracle instance belongs to a single run: the query counter and the
    generator state mutate, so do not share one across concurrent runs.
    """

    def __init__(self, target, model: NoiseModel, rng: np.random.Generator):
        self.target = geometry.check_unit(target, "target")
        self.model = model
        self.rng = rng
        self._queries = 0
        self._radius = flip_radius(model, self.target.shape[0])

    @property
    def queries(self) -> int:
        """Exact number of labels charged so far."""
        return self._queries

    def query(self, x) -> int:
        """Return a label in {-1, +1} for ``x``; increments the counter by 1."""
        xv = geometry.check_unit(x, "query point")
        geometry.check_same_dimension(xv, self.target)
        self._queries += 1
        return int(self._labels(self.target.dot(xv)))

    def query_batch(self, points: np.ndarray) -> np.ndarray:
        """Labels for an (n, d) array of unit points; increments the counter by n."""
        pts = np.asarray(points, dtype=np.float64)
        d = self.target.shape[0]
        if pts.ndim != 2 or pts.shape[1] != d:
            raise geometry.DimensionMismatch(f"expected shape (n, {d}), got {pts.shape}")
        self._queries += pts.shape[0]
        return self._labels(pts @ self.target)

    def _labels(self, dots) -> np.ndarray:
        """Labels of points whose margins u . x are ``dots``, drawing their coins."""
        coins = flip_coins(self.model, self.rng, dots.size).reshape(dots.shape)
        clean = np.where(dots >= 0.0, 1, -1).astype(np.int8)
        return np.where(coins & (np.abs(dots) <= self._radius), -clean, clean)

    def flip_tape(self, n: int) -> tuple[np.ndarray, float]:
        """Corruption coins for the next n labels and the radius they act within.

        Label i of a point x is the clean sign(u . x), flipped iff coins[i]
        and |u . x| <= radius. Draws from the oracle's generator exactly what
        n calls of :meth:`query` draw; charges nothing.
        """
        return flip_coins(self.model, self.rng, n), self._radius

    def charge_queries(self, n: int) -> None:
        """Account for ``n`` labeled examples consumed without materializing them.

        Used by the passive sampler: pairs rejected for falling outside the
        current band still cost a label each, but their labels influence
        nothing downstream, so only the counter moves.
        """
        if n < 0:
            raise ValueError("cannot charge a negative number of queries")
        self._queries += n
