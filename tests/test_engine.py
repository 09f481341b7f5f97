"""The taped epoch engine against the public, validated primitives.

``learner.mod_perceptron`` checks its inputs once per epoch, draws the
epoch's randomness in bulk (a ``geometry.BandTape`` from the sampler's
generator, the label coins from the oracle's) and runs the per-label loop as
a pure function of (w0, tape). These tests replay the same tape step by step
through ``modified_perceptron_step`` and ``LabelingOracle.query``, compare
the engine's law with a loop over the literal draw-and-discard sampler, and
pin the trial CSVs of the taped stream.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from percband import geometry, learner
from percband.bench import ExperimentConfig, run_sweep
from percband.geometry import Band, band_mass, rejection_sample_band, sample_uniform_sphere
from percband.learner import (
    BudgetExhausted,
    default_draw_budget,
    mod_perceptron,
    modified_perceptron_step,
)
from percband.oracles import LabelingOracle, NoiseModel, labels_from_dots

from conftest import planted_pair, tape_point

D = 10
MODELS = (
    NoiseModel.realizable(),
    NoiseModel.bounded(0.2),
    NoiseModel.bounded_margin(0.2, 0.1),
    NoiseModel.adversarial(0.05),
)
# A wide and a thin band, named for the sampler that suits each: at d=10 the
# band [b/2, b] needs 1/p ~ 54 draws per point for b=0.03, cheap for the
# literal draw-and-discard loop, and ~330 for b=0.005, where only the
# geometric law (a Geometric(p) count, then the point) is cheap. The engine
# samples both from the tape.
WIDTHS = {"literal": 0.03, "geometric": 0.005}
# Rows per tape chunk in the replay test, so that an 80-step epoch spans
# three chunks.
REPLAY_ROWS = 32


def reference_epoch(oracle, w0, m, b, rng, charge_rejected):
    """One epoch replayed from its tape through the public, validated primitives."""
    d = oracle.dimension
    p = band_mass(d, b / 2.0, b)
    budget = default_draw_budget(m, p)
    rows = max(1, learner.TAPE_BYTES // (8 * d))
    w, draws, done = w0, 0, 0
    while done < m:
        tape = geometry.draw_band_tape(d, b / 2.0, b, p, rng, min(rows, m - done))
        for used, xi, g, gg in zip(*tape):
            draws += int(used)
            assert draws <= budget
            x = tape_point(w, xi, g, gg, rng)
            assert b / 2.0 - 1e-12 <= float(x.dot(w)) <= b + 1e-12
            if charge_rejected:
                oracle.charge_queries(int(used) - 1)
            w = modified_perceptron_step(w, x, oracle.query(x))
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
            done += 1
    return w, draws if charge_rejected else m, draws


def fresh(model, seed):
    u, w0 = planted_pair(D, 1.0, seed=seed)
    oracle = LabelingOracle(u, model, np.random.default_rng(seed + 1))
    return oracle, w0, np.random.default_rng(seed + 2)


def assert_replays(oracle, rng, ref_oracle, ref_rng, got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert oracle.queries == ref_oracle.queries == got[1]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert oracle.rng.bit_generator.state == ref_oracle.rng.bit_generator.state


@pytest.mark.parametrize("charge_rejected", [False, True], ids=["active", "passive"])
@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_engine_matches_reference_loop(monkeypatch, model, width, charge_rejected):
    monkeypatch.setattr(learner, "TAPE_BYTES", 8 * D * REPLAY_ROWS)
    b = WIDTHS[width]
    ref_oracle, w0, ref_rng = fresh(model, 3)
    oracle, _, rng = fresh(model, 3)
    want = reference_epoch(ref_oracle, w0, 80, b, ref_rng, charge_rejected)
    got = mod_perceptron(oracle, w0, 80, b, rng, charge_rejected=charge_rejected)
    assert_replays(oracle, rng, ref_oracle, ref_rng, got, want)


class ZeroFirstTape:
    """A generator whose first batch of Gaussians is all zero, so that no row
    has a direction orthogonal to the iterate (without a redraw, building
    the point would divide by zero)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self._first = True

    def standard_normal(self, size):
        g = self._rng.standard_normal(size)
        if isinstance(size, tuple) and self._first:
            self._first = False
            return np.zeros_like(g)
        return g

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_degenerate_gaussians_are_redrawn():
    model = NoiseModel.bounded(0.2)
    ref_oracle, w0, _ = fresh(model, 9)
    oracle, _, _ = fresh(model, 9)
    ref_rng, rng = ZeroFirstTape(10), ZeroFirstTape(10)
    want = reference_epoch(ref_oracle, w0, 20, 0.03, ref_rng, False)
    got = mod_perceptron(oracle, w0, 20, 0.03, rng)
    assert_replays(oracle, rng, ref_oracle, ref_rng, got, want)


def literal_epoch(oracle, w0, m, b, rng):
    """One epoch on the literal draw-and-discard sampler; returns (w, draws)."""
    p = band_mass(D, b / 2.0, b)
    w, draws = w0, 0
    for _ in range(m):
        x, used = rejection_sample_band(Band(normal=w, lower=b / 2.0, upper=b), rng, 10**9, mass=p)
        draws += used
        w = modified_perceptron_step(w, x, oracle.query(x))
    return w, draws


@pytest.mark.parametrize("model", MODELS[:2], ids=lambda m: m.kind)
def test_engine_law_matches_literal_sampler(model):
    m, b = 40, WIDTHS["literal"]
    taped, literal = [], []
    for seed in range(200):
        u, w0 = planted_pair(D, 1.0, seed=seed)
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 1]))
        w, _, draws = mod_perceptron(oracle, w0, m, b, np.random.default_rng([seed, 2]))
        taped.append((draws, geometry.angle(w, u)))
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 3]))
        w, draws = literal_epoch(oracle, w0, m, b, np.random.default_rng([seed, 4]))
        literal.append((draws, geometry.angle(w, u)))
    taped, literal = np.array(taped), np.array(literal)
    assert stats.ks_2samp(taped[:, 0], literal[:, 0]).pvalue > 0.01
    assert stats.ks_2samp(taped[:, 1], literal[:, 1]).pvalue > 0.01


@pytest.mark.parametrize("charge_rejected", [False, True], ids=["active", "passive"])
def test_budget_exhaustion_reports_spend(charge_rejected):
    oracle, w0, rng = fresh(NoiseModel.bounded(0.2), 6)
    p = band_mass(D, 0.015, 0.03)
    budget = int(40 / p)  # about 40 of the 80 steps' expected draws
    with pytest.raises(BudgetExhausted) as caught:
        mod_perceptron(oracle, w0, 80, 0.03, rng, draw_budget=budget,
                       charge_rejected=charge_rejected)
    exc = caught.value
    assert exc.draws_used == budget
    assert exc.labels_used == oracle.queries
    assert exc.labels_used == budget if charge_rejected else 0 < exc.labels_used < 80
    assert abs(np.linalg.norm(exc.iterate) - 1.0) <= 1e-9


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_scalar_labels_match_labels_from_dots(model):
    oracle, _, rng = fresh(model, 5)
    ref_rng = np.random.default_rng(6)
    points = sample_uniform_sphere(D, rng, n=300)
    got = [oracle.query(x) for x in points]
    want = [int(labels_from_dots(model, np.asarray([x @ oracle.target]), ref_rng,
                                 oracle.slab_threshold)[0]) for x in points]
    assert got == want
    assert oracle.rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_validation_is_per_epoch_not_per_label(monkeypatch, width):
    oracle, w0, rng = fresh(NoiseModel.bounded(0.2), 4)
    calls = []
    check_unit = geometry.check_unit
    monkeypatch.setattr(geometry, "check_unit", lambda *a, **k: calls.append(1) or check_unit(*a, **k))
    counts = []
    for m in (10, 300):
        calls.clear()
        mod_perceptron(oracle, w0, m, WIDTHS[width], rng)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


# sha256 of the concatenated CSVs of the twelve sweeps below. Any change to
# the random stream of a trial changes it; a change made on purpose must say
# so and record the new digest. Re-pinned when the epochs became taped: the
# sampler's generator is now read a chunk at a time (draw counts, margins,
# Gaussians) and the oracle's a chunk of label coins at a time, so every
# trial's stream, and with it every row, changed once.
GOLDEN_SWEEP_SHA256 = "05e6b7e4f883676946651f8cd464943e8adad374909adc064aaebc6d201dd3fb"


def test_golden_sweep_digest(tmp_path):
    digest = hashlib.sha256()
    for mode in ("active", "passive", "init"):
        for model in MODELS[:3] + (NoiseModel.adversarial(0.005),):
            out = tmp_path / f"{mode}-{model.kind}.csv"
            config = ExperimentConfig(mode=mode, d=D, noise=model, epsilon=0.2, trials=2,
                                      master_seed=7, output_path=str(out))
            run_sweep(config, "epsilon", [0.2])
            digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_SWEEP_SHA256


@given(
    d=st.integers(3, 12),
    model=st.sampled_from(MODELS),
    b=st.floats(0.004, 0.5),
    charge_rejected=st.booleans(),
    epochs=st.lists(st.integers(0, 25), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_accounting_and_unit_iterates(d, model, b, charge_rejected, epochs, seed):
    gen = np.random.default_rng(seed)
    oracle = LabelingOracle(sample_uniform_sphere(d, gen), model, np.random.default_rng(seed + 1))
    w = sample_uniform_sphere(d, gen)
    # The iterate changes only where an update fires, through learner._reflect,
    # so recording every reflection sees every step's iterate.
    steps = []
    reflect = learner._reflect
    learner._reflect = lambda *args: steps.append((args[0], reflect(*args))) or steps[-1][1]
    try:
        for m in epochs:
            before = oracle.queries
            fired = len(steps)
            w_in = w
            w, labels, draws = mod_perceptron(oracle, w, m, b, gen, charge_rejected=charge_rejected)
            assert labels == oracle.queries - before
            assert draws >= labels >= m
            assert labels == (draws if charge_rejected else m)
            for w_before, w_after in steps[fired:]:
                assert w_before is w_in
                assert math.isclose(np.linalg.norm(w_after), 1.0, abs_tol=1e-9)
                w_in = w_after
            assert w is w_in
    finally:
        learner._reflect = reflect
    assert len(steps) <= sum(epochs)
