import math
import tracemalloc

import numpy as np
import pytest


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


def unit_orthogonal(gen, d, *directions):
    """A unit vector uniform on the sphere orthogonal to the orthonormal
    ``directions``, drawn from gen (each projection is applied twice)."""
    r = gen.standard_normal(d)
    for _ in range(2):
        for f in directions:
            r -= r.dot(f) * f
    return r / np.linalg.norm(r)


def lift(w, xi, tau1, tau2, u1, u2, gen):
    """The point of one ``geometry.BandTape`` row in R^d: xi w + sqrt(1 - xi^2) v,
    where v has coordinates (tau1, tau2) along the orthonormal directions
    u1, u2 orthogonal to the unit normal w, and its remaining part, of norm
    sqrt(1 - tau1^2 - tau2^2), points in a direction orthogonal to all three
    drawn uniformly from gen. In R^3 there is no remaining part."""
    v = tau1 * u1 + tau2 * u2
    if w.shape[0] > 3:
        rho = math.sqrt(max(0.0, 1.0 - tau1 * tau1 - tau2 * tau2))
        v = v + rho * unit_orthogonal(gen, w.shape[0], w, u1, u2)
    return xi * w + math.sqrt(1.0 - xi * xi) * v


def tape_points(tape, w, gen):
    """Every row of ``tape`` as a point around the fixed unit normal w, along
    one pair of directions orthogonal to w drawn from gen."""
    d = w.shape[0]
    u1 = unit_orthogonal(gen, d, w)
    u2 = unit_orthogonal(gen, d, w, u1)
    return np.array([lift(w, xi, t1, t2, u1, u2, gen)
                     for xi, t1, t2 in zip(tape.margins, tape.tau1, tape.tau2)])
