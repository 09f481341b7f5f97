"""Literal references the tests compare the engine against.

``learner.active_perceptron`` runs a whole schedule as one chain on two
scalars; :func:`modified_perceptron_step` is the update that chain reduces,
on whole vectors, one step at a time.
"""

import math

import numpy as np

from percband import geometry


def modified_perceptron_step(w, x, y: int) -> np.ndarray:
    """One update: reflect w across x's hyperplane iff y (w . x) < 0 strictly.

    Returns w itself when the update does not fire; otherwise the reflected
    vector renormalized to unit length (the reflection preserves the norm
    analytically, renormalization just stops 1e-16-per-step float drift).
    """
    wv = geometry.check_unit(w, "w")
    xv = geometry.check_unit(x, "x")
    geometry.check_same_dimension(wv, xv)
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    margin = float(wv.dot(xv))
    if y * margin >= 0.0:
        return wv
    updated = wv - 2.0 * margin * xv
    return updated / math.sqrt(updated.dot(updated))
