"""Passive-learning conversion: identical epoch structure, labeled draws only.

The passive learner cannot query; it draws full labeled pairs (x, y) from the
data distribution and discards pairs whose instance falls outside the current
band. Every drawn pair costs one label, so the passive labeled-example count
follows exactly the law of the active learner's unlabeled-draw count (the
band acceptance events are the same), while the accepted pairs have the same
conditional distribution as in the active mode. The loop is the active
learner's own (``mod_perceptron`` with ``charge_rejected``).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .geometry import Band
from .learner import RunReport, Schedule, active_perceptron, mod_perceptron
from .oracles import LabelingOracle


class LabeledExampleSource:
    """Labeled-pair stream: uniform sphere instances labeled by an oracle.

    Rejected pairs are charged against the oracle's label counter but their
    labels are never consumed, so they are not materialized; the accepted
    pair's label is a real oracle query. Draw counts therefore follow the
    same law as literal pair-by-pair sampling.
    """

    def __init__(self, oracle: LabelingOracle):
        self.oracle = oracle

    @property
    def dimension(self) -> int:
        return self.oracle.dimension

    def draw_in_band(
        self,
        band: Band,
        rng: np.random.Generator,
        draw_budget: int,
        mass: float | None = None,
    ) -> tuple[np.ndarray, int, int]:
        """Draw labeled pairs until one lands in the band.

        Returns (x, y, pairs_drawn) where pairs_drawn includes the accepted
        pair and every rejected one.
        """
        x, pairs = geometry.rejection_sample_band(band, rng, draw_budget, mass=mass)
        self.oracle.charge_queries(pairs - 1)
        y = self.oracle.query(x)
        return x, y, pairs


def passive_mod_perceptron(
    source: LabeledExampleSource,
    w0,
    m: int,
    b: float,
    rng: np.random.Generator,
    draw_budget: int | None = None,
) -> tuple[np.ndarray, int]:
    """One halving stage on drawn pairs; returns (w, labeled pairs drawn)."""
    w, drawn, _ = mod_perceptron(
        source.oracle, w0, m, b, rng, draw_budget, charge_rejected=True
    )
    return w, drawn


def passive_perceptron(
    source: LabeledExampleSource,
    v0,
    epsilon: float,
    delta: float,
    schedule: Schedule,
    rng: np.random.Generator,
    target=None,
) -> RunReport:
    """Epoch loop over passive halving stages.

    In the returned report both total_labels and total_unlabeled equal the
    number of labeled pairs drawn: every draw consumes one label and one
    instance from the distribution.
    """
    return active_perceptron(
        source.oracle, v0, epsilon, delta, schedule, rng, target=target,
        charge_rejected=True,
    )
