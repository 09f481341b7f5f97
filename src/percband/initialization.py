"""Acute initialization: produce a start vector within pi/4 of the target.

The epoch learner assumes its start vector is at an acute angle to the
target. That assumption is removed by running the learner twice against the
same oracle, from the first basis vector and from its negation (one of the
two is always acute), then picking the better of the two outputs by an
empirical error test on labeled examples drawn from their disagreement
region. The procedure's inputs are the oracle, a confidence delta and a
random generator; the dimension and noise model are the oracle's. Under bounded noise
the branch target accuracy is (1 - 2 eta) / 16 and the test uses
ceil(8 / (1 - 2 eta)^2 * ln(6 / delta)) examples; in the adversarial and
realizable cases the factor (1 - 2 eta) is simply 1.

The test examples are drawn by an exact reduction of the loop that draws
uniform sphere points and discards those on which the two outputs agree.
Only a point's projection onto span(v_pos, v_neg) decides disagreement, and
a uniform point is a normalized Gaussian whose in-plane angle, in-plane
radius (chi_2) and orthogonal part (N(0, I_{d-2})) are independent.
Conditioning on disagreement therefore leaves the radius and the orthogonal
part alone and makes the angle uniform on the two disagreement wedges, and
the loop's misses before its n-th hit are NegativeBinomial(n, theta / pi),
independent of the hits. So n test points cost O(n d) work at any angle
theta between the outputs, not the loop's n pi / theta sphere draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .learner import (
    DEFAULT_SCALE_B,
    DEFAULT_SCALE_M,
    RunReport,
    Schedule,
    active_perceptron,
    check_probability,
    make_schedule,
)
from .oracles import LabelingOracle, NoiseModel

DEGENERATE_ANGLE = 1e-12


@dataclass(eq=False)
class InitResult:
    """Chosen start vector plus full accounting of what it cost."""

    vector: np.ndarray
    positive_run: RunReport
    negative_run: RunReport
    test_size: int
    err_positive: float
    err_negative: float
    test_draws: int

    @property
    def total_labels(self) -> int:
        """Both branch runs' labels plus one label per test example."""
        return self.positive_run.total_labels + self.negative_run.total_labels + self.test_size

    @property
    def total_unlabeled(self) -> int:
        """Both branch runs' draws plus the disagreement test's."""
        return self.positive_run.total_unlabeled + self.negative_run.total_unlabeled + self.test_draws


def hypothesis_test_size(model: NoiseModel, delta: float) -> int:
    """Number of labeled disagreement-region examples for the branch test."""
    zeta = model.zeta
    return math.ceil(8.0 / (zeta * zeta) * math.log(6.0 / delta))


def branch_schedule(
    d: int,
    model: NoiseModel,
    delta: float,
    scale_m: float = DEFAULT_SCALE_M,
    scale_b: float = DEFAULT_SCALE_B,
) -> Schedule:
    """The epoch schedule each of the two branch runs follows: target error
    (1 - 2 eta) / 16 at failure budget delta / 3."""
    check_probability(delta, "delta")
    return make_schedule(d, model.zeta / 16.0, delta / 3.0, model, scale_m=scale_m, scale_b=scale_b)


def acute_initialize(
    oracle: LabelingOracle,
    delta: float,
    rng: np.random.Generator,
    schedule: Schedule | None = None,
) -> InitResult:
    """Return a vector within pi/4 of the oracle's target with prob >= 1 - delta.

    The dimension and the noise model are the oracle's. The branch runs
    follow ``schedule``, by default :func:`branch_schedule` of the oracle's
    dimension and noise model and delta. The returned vector is always one
    of the two branch outputs. If the two branches land on (anti)parallel
    vectors the disagreement region is empty up to measure zero and the
    positive branch is returned outright.
    """
    check_probability(delta, "delta")
    d, model = oracle.target.shape[0], oracle.model
    if schedule is None:
        schedule = branch_schedule(d, model, delta)
    e1 = np.zeros(d)
    e1[0] = 1.0

    run_pos = active_perceptron(oracle, e1, schedule, rng)
    run_neg = active_perceptron(oracle, -e1, schedule, rng)
    v_pos, v_neg = run_pos.final, run_neg.final

    # The sine of the separation, sin(min(theta, pi - theta)), keeps its
    # relative precision at small angles, so DEGENERATE_ANGLE is the
    # threshold in effect.
    _, sin_separation = geometry.cos_sin(v_pos, v_neg)
    if sin_separation < DEGENERATE_ANGLE:
        return InitResult(v_pos, run_pos, run_neg, 0, 0.0, 0.0, 0)

    n_test = hypothesis_test_size(model, delta)
    points, test_draws = _sample_disagreement_region(v_pos, v_neg, n_test, rng)
    ys = oracle.query_batch(points)
    pred_pos = np.where(points @ v_pos >= 0.0, 1, -1)
    pred_neg = np.where(points @ v_neg >= 0.0, 1, -1)
    err_pos = float(np.mean(pred_pos != ys))
    err_neg = float(np.mean(pred_neg != ys))
    chosen = v_pos if err_pos <= err_neg else v_neg
    return InitResult(chosen, run_pos, run_neg, n_test, err_pos, err_neg, test_draws)


def _sample_disagreement_region(
    v_pos: np.ndarray,
    v_neg: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Draw n uniform sphere points on which the halfspaces of the unit
    vectors v_pos and v_neg disagree, and the number of uniform draws the
    discarding loop would have spent on them (see the module docstring).

    In the orthonormal basis (v_pos, u2) of their span, v_neg is
    (cos theta, sin theta), and the disagreement wedges are the in-plane
    directions s (-sin(theta U), cos(theta U)) for U in [0, 1) and s = +-1.
    Each point is a Gaussian d-vector whose in-plane part is replaced by its
    own norm times such a direction, normalized. theta, read as in
    ``geometry.angle``, must not be 0.
    """
    d = v_pos.shape[0]
    cos_theta, sin_theta = geometry.cos_sin(v_pos, v_neg)
    theta = math.atan2(sin_theta, cos_theta)
    perp = v_neg - cos_theta * v_pos
    # At small theta the subtraction cancels and leaves perp a part along
    # v_pos near 1e-16 / theta of its length, enough to put points on the
    # wrong side of a wedge of width theta; a second pass removes it.
    perp -= (perp @ v_pos) * v_pos
    basis = np.stack([v_pos, perp / math.sqrt(perp @ perp)])
    used = n + int(rng.negative_binomial(n, theta / math.pi))

    out = rng.standard_normal((n, d))
    plane = out @ basis.T
    radius = np.hypot(plane[:, 0], plane[:, 1])
    radius *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
    phi = theta * rng.random(n)
    wedge = np.column_stack([-np.sin(phi) * radius, np.cos(phi) * radius])
    out += (wedge - plane) @ basis
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out, used
