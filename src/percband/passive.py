"""Passive-learning conversion: identical epoch structure, labeled draws only.

The passive learner cannot query; it draws full labeled pairs (x, y) from the
data distribution and discards pairs whose instance falls outside the current
band. Every drawn pair costs one label, so the passive labeled-example count
follows exactly the law of the active learner's unlabeled-draw count (the
band acceptance events are the same), while the accepted pairs have the same
conditional distribution as in the active mode. The loop is the active
learner's own (``mod_perceptron`` or ``active_perceptron`` with
``charge_rejected=True``); :class:`LabeledExampleSource` is its literal,
pair-by-pair reference.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .geometry import Band
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
    ) -> tuple[np.ndarray, int, int]:
        """Draw labeled pairs until one lands in the band.

        Returns (x, y, pairs_drawn) where pairs_drawn includes the accepted
        pair and every rejected one. A :class:`geometry.DrawBudgetExceeded`
        is raised after the whole budget is charged as labels, since every
        drawn pair costs one.
        """
        try:
            x, pairs = geometry.rejection_sample_band(band, rng, draw_budget)
        except geometry.DrawBudgetExceeded as exc:
            self.oracle.charge_queries(exc.draws_used)
            raise
        self.oracle.charge_queries(pairs - 1)
        y = self.oracle.query(x)
        return x, y, pairs
