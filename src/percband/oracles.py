"""Query-counted labeling oracles for a hidden halfspace under label noise.

Every label is a (possibly corrupted) version of sign(u . x) for the hidden
unit vector u, with sign(0) := +1. Three corruption regimes are supported:

* ``realizable`` - labels are exact;
* ``bounded`` / ``bounded_margin`` - each label flips independently with
  probability at most eta < 1/2 (constant rate, or rate eta only inside the
  margin strip |u . x| <= margin, which concentrates the noise where a
  margin-querying learner looks);
* ``adversarial`` - a fixed, deterministic corruption: labels are inverted
  exactly on the slab |u . x| <= tau, with tau chosen so the corrupted mass
  equals nu. Total disagreement with sign(u . x) is then exactly nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry


@dataclass(frozen=True)
class NoiseModel:
    """Label-corruption configuration; use the class-method constructors."""

    kind: str
    eta: float = 0.0
    nu: float = 0.0
    margin: float = 1.0

    _KINDS = ("realizable", "bounded", "bounded_margin", "adversarial")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (0.0 <= self.eta < 0.5):
            raise ValueError(f"eta must lie in [0, 1/2), got {self.eta}")
        if not (0.0 <= self.nu <= 1.0):
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")
        if not (0.0 < self.margin <= 1.0):
            raise ValueError(f"margin must lie in (0, 1], got {self.margin}")

    @classmethod
    def realizable(cls) -> "NoiseModel":
        return cls(kind="realizable")

    @classmethod
    def bounded(cls, eta: float) -> "NoiseModel":
        return cls(kind="bounded", eta=eta)

    @classmethod
    def bounded_margin(cls, eta: float, margin: float) -> "NoiseModel":
        return cls(kind="bounded_margin", eta=eta, margin=margin)

    @classmethod
    def adversarial(cls, nu: float) -> "NoiseModel":
        return cls(kind="adversarial", nu=nu)

    @property
    def zeta(self) -> float:
        """Noise factor 1 - 2 eta for bounded models, 1 otherwise."""
        if self.kind in ("bounded", "bounded_margin"):
            return 1.0 - 2.0 * self.eta
        return 1.0

    @property
    def param(self) -> float:
        """The scalar noise level (eta, nu, or 0) for reporting."""
        if self.kind in ("bounded", "bounded_margin"):
            return self.eta
        if self.kind == "adversarial":
            return self.nu
        return 0.0


def adversarial_threshold(d: int, nu: float) -> float:
    """Slab half-width tau with P[|x1| <= tau] = nu for x uniform on the sphere.

    Inverted from the band-mass quadrature by root finding to 1e-12.
    """
    if not (0.0 <= nu <= 1.0):
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    if nu == 0.0:
        return 0.0
    if nu == 1.0:
        return 1.0
    from scipy import optimize  # deferred: scipy costs most of a cold import

    return float(
        optimize.brentq(
            lambda t: (2.0 * geometry.band_mass(d, 0.0, t) if t > 0.0 else 0.0) - nu,
            0.0,
            1.0,
            xtol=1e-12,
        )
    )


def _flip_coins(model: NoiseModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-label corruption coins for the next n labels.

    Under the bounded kinds each label gets a Bernoulli(eta) coin, one
    uniform from ``rng`` per label (the only draws the label law makes);
    otherwise the coin is constant and nothing is drawn. A coin flips its
    label iff |u . x| is at most :func:`_flip_radius`.
    """
    if model.kind in ("bounded", "bounded_margin"):
        return rng.random(n) < model.eta
    return np.full(n, model.kind == "adversarial" and model.nu > 0.0)


def _flip_radius(model: NoiseModel, tau: float | None) -> float:
    """The largest |u . x| at which a coin from :func:`_flip_coins` flips a label."""
    if model.kind == "bounded_margin":
        return model.margin
    if model.kind == "adversarial":
        if tau is None:
            raise ValueError("adversarial labels need the slab threshold tau")
        return tau
    return math.inf


def labels_from_dots(
    model: NoiseModel,
    dots: np.ndarray,
    rng: np.random.Generator,
    tau: float | None = None,
) -> np.ndarray:
    """Vectorized label law: labels for points whose margins u . x are ``dots``.

    ``LabelingOracle`` labels points with the same law and the same
    generator draws. ``tau`` is required for the adversarial model (see
    :func:`adversarial_threshold`).
    """
    dots = np.asarray(dots, dtype=np.float64)
    radius = _flip_radius(model, tau)
    clean = np.where(dots >= 0.0, 1, -1).astype(np.int8)
    flip = _flip_coins(model, rng, dots.size).reshape(dots.shape) & (np.abs(dots) <= radius)
    return np.where(flip, -clean, clean)


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
        self._tau = (
            adversarial_threshold(self.target.shape[0], model.nu)
            if model.kind == "adversarial"
            else None
        )

    @property
    def dimension(self) -> int:
        return self.target.shape[0]

    @property
    def queries(self) -> int:
        """Exact number of labels charged so far."""
        return self._queries

    @property
    def slab_threshold(self) -> float | None:
        """Adversarial corruption half-width tau, if applicable."""
        return self._tau

    def query(self, x) -> int:
        """Return a label in {-1, +1} for ``x``; increments the counter by 1."""
        xv = geometry.check_unit(x, "query point")
        geometry.check_same_dimension(xv, self.target)
        self._queries += 1
        return int(labels_from_dots(self.model, self.target.dot(xv), self.rng, self._tau))

    def query_batch(self, points: np.ndarray) -> np.ndarray:
        """Labels for an (n, d) array of unit points; increments the counter by n."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise geometry.DimensionMismatch(
                f"expected shape (n, {self.dimension}), got {pts.shape}"
            )
        self._queries += pts.shape[0]
        return labels_from_dots(self.model, pts @ self.target, self.rng, self._tau)

    def flip_tape(self, n: int) -> tuple[np.ndarray, float]:
        """Corruption coins for the next n labels and the radius they act within.

        Label i of a point x is the clean sign(u . x), flipped iff coins[i]
        and |u . x| <= radius. Draws from the oracle's generator exactly what
        :func:`labels_from_dots` draws for n labels; charges nothing.
        """
        return _flip_coins(self.model, self.rng, n), _flip_radius(self.model, self._tau)

    def charge_queries(self, n: int) -> None:
        """Account for ``n`` labeled examples consumed without materializing them.

        Used by the passive sampler: pairs rejected for falling outside the
        current band still cost a label each, but their labels influence
        nothing downstream, so only the counter moves.
        """
        if n < 0:
            raise ValueError("cannot charge a negative number of queries")
        self._queries += n
