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
