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
    make_schedule,
)
from .oracles import LabelingOracle, NoiseModel

DEGENERATE_ANGLE = 1e-12

_TEST_CHUNK = 8192


@dataclass(eq=False)
class InitResult:
    """Chosen start vector plus full accounting of what it cost."""

    vector: np.ndarray
    positive_run: RunReport
    negative_run: RunReport
    test_size: int
    err_positive: float
    err_negative: float
    total_labels: int
    total_unlabeled: int


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
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return make_schedule(d, model.zeta / 16.0, delta / 3.0, model, scale_m=scale_m, scale_b=scale_b)


def acute_initialize(
    oracle: LabelingOracle,
    delta: float,
    rng: np.random.Generator,
    scale_m: float = DEFAULT_SCALE_M,
    scale_b: float = DEFAULT_SCALE_B,
) -> InitResult:
    """Return a vector within pi/4 of the oracle's target with prob >= 1 - delta.

    The dimension and the noise model are the oracle's. The returned vector
    is always one of the two branch outputs. If the two branches land on
    (anti)parallel vectors the disagreement region is empty up to measure
    zero and the positive branch is returned outright.
    """
    d, model = oracle.dimension, oracle.model
    schedule = branch_schedule(d, model, delta, scale_m, scale_b)
    e1 = np.zeros(d)
    e1[0] = 1.0

    run_pos = active_perceptron(oracle, e1, schedule, rng)
    run_neg = active_perceptron(oracle, -e1, schedule, rng)
    v_pos, v_neg = run_pos.final, run_neg.final
    labels = run_pos.total_labels + run_neg.total_labels
    draws = run_pos.total_unlabeled + run_neg.total_unlabeled

    separation = geometry.angle(v_pos, v_neg)
    if min(separation, math.pi - separation) < DEGENERATE_ANGLE:
        return InitResult(
            vector=v_pos,
            positive_run=run_pos,
            negative_run=run_neg,
            test_size=0,
            err_positive=0.0,
            err_negative=0.0,
            total_labels=labels,
            total_unlabeled=draws,
        )

    n_test = hypothesis_test_size(model, delta)
    points, test_draws = _sample_disagreement_region(v_pos, v_neg, n_test, rng)
    draws += test_draws
    ys = oracle.query_batch(points)
    labels += n_test
    pred_pos = np.where(points @ v_pos >= 0.0, 1, -1)
    pred_neg = np.where(points @ v_neg >= 0.0, 1, -1)
    err_pos = float(np.mean(pred_pos != ys))
    err_neg = float(np.mean(pred_neg != ys))
    chosen = v_pos if err_pos <= err_neg else v_neg
    return InitResult(
        vector=chosen,
        positive_run=run_pos,
        negative_run=run_neg,
        test_size=n_test,
        err_positive=err_pos,
        err_negative=err_neg,
        total_labels=labels,
        total_unlabeled=draws,
    )


def _sample_disagreement_region(
    v_pos: np.ndarray,
    v_neg: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Rejection-sample n sphere points where the two hypotheses disagree."""
    d = v_pos.shape[0]
    out = np.empty((n, d))
    filled = 0
    used = 0
    take = min(_TEST_CHUNK, geometry.chunk_rows(d))
    while filled < n:
        pts = geometry.sample_uniform_sphere(d, rng, n=take)
        hits = np.flatnonzero((pts @ v_pos >= 0.0) != (pts @ v_neg >= 0.0))[: n - filled]
        out[filled : filled + hits.size] = pts[hits]
        filled += hits.size
        # Count only draws up to and including the n-th accepted point.
        used += take if filled < n else int(hits[-1]) + 1
    return out, used
