"""Passive-learning conversion: identical epoch structure, labeled draws only.

The passive learner cannot query; it draws full labeled pairs (x, y) from the
data distribution and discards pairs whose instance falls outside the current
band. Every drawn pair costs one label, so the passive labeled-example count
follows exactly the law of the active learner's unlabeled-draw count (the
band acceptance events are the same), while the accepted pairs have the same
conditional distribution as in the active mode. The loop is the active
learner's own (``active_perceptron`` with ``charge_rejected=True``);
:class:`LabeledExampleSource` is its literal, pair-by-pair reference.
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

    def draw_in_band(self, band: Band, rng: np.random.Generator) -> tuple[np.ndarray, int, int]:
        """Draw labeled pairs until one lands in the band.

        Returns (x, y, pairs_drawn) where pairs_drawn includes the accepted
        pair and every rejected one.
        """
        x, pairs = geometry.rejection_sample_band(band, rng)
        self.oracle.charge_queries(pairs - 1)
        y = self.oracle.query(x)
        return x, y, pairs
