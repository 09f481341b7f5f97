import math
import tracemalloc

import numpy as np
import pytest

from percband import geometry


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def planted_pair(d: int, theta: float, seed: int = 0):
    """A unit vector u and a second unit vector at exactly angle theta from it."""
    gen = np.random.default_rng(seed)
    u = gen.standard_normal(d)
    u /= np.linalg.norm(u)
    q = gen.standard_normal(d)
    q -= (q @ u) * u
    q /= np.linalg.norm(q)
    w = np.cos(theta) * u + np.sin(theta) * q
    return u, w / np.linalg.norm(w)


def traced_peak_bytes(fn):
    """Call fn() and return (its result, the peak bytes numpy and Python
    allocated meanwhile)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tape_point(w, xi, g, gg, rng):
    """The point of one ``geometry.BandTape`` row (margin xi, Gaussian g with
    g . g = gg) around the unit normal w, built as ``learner._run_tape``
    builds it: xi w plus sqrt(1 - xi^2) times the unit part of g orthogonal
    to w, with g redrawn from rng while that part is degenerate."""
    gw = float(g.dot(w))
    while gg - gw * gw <= geometry.MIN_ORTHOGONAL_SQ_NORM:
        g = rng.standard_normal(w.shape[0])
        gg, gw = float(g.dot(g)), float(g.dot(w))
    scale = math.sqrt(1.0 - xi * xi) / math.sqrt(gg - gw * gw)
    return (xi - scale * gw) * w + scale * g


def tape_points(tape, w, rng):
    """Every row of ``tape`` as a point around the fixed unit normal w."""
    return np.array([tape_point(w, xi, g, gg, rng)
                     for xi, g, gg in zip(tape.margins, tape.gauss, tape.sq_norms)])
