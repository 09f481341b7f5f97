"""The two-coordinate epoch engine against the public, validated primitives.

``learner.mod_perceptron`` checks its inputs once per epoch, draws the
epoch's randomness in bulk (a ``geometry.BandTape`` from the sampler's
generator, the label coins from the oracle's) and runs the per-label loop as
a chain on (t . w, e . w), with t the target and e the unit part of the
start vector orthogonal to t. These tests lift each tape row to a point in
R^d, with the rest of its direction drawn from a separate generator, replay
the epoch step by step through ``modified_perceptron_step`` and
``LabelingOracle.query``, compare the engine's law with a loop over the
literal draw-and-discard sampler, and pin the trial CSVs of the stream.
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

from conftest import lift, planted_pair, traced_peak_bytes, unit_orthogonal

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
# Steps per tape chunk in the replay test, so that an 80-step epoch spans
# three chunks.
REPLAY_STEPS = 32
# Agreement required between the engine's (t . w, e . w) and the replay's.
REPLAY_ATOL = 1e-9


def chain_frame(w, t, e, gen):
    """The directions u1, u2 orthogonal to w along which the engine reads a
    tape row's (tau1, tau2): u1 = (t - a w) / pa and u2 = (c e - b z) / pa,
    with (a, b) = (t . w, e . w), pa = sqrt(1 - a^2) and c z the part of w
    orthogonal to t and e. Where that part vanishes, z is drawn from gen;
    where pa does, u1 = e and u2 = z."""
    a, b = float(t @ w), float(e @ w)
    rest = w - a * t - b * e
    c = float(np.linalg.norm(rest))
    z = rest / c if c > 1e-12 else unit_orthogonal(gen, w.shape[0], t, e)
    pa = math.sqrt(max(0.0, 1.0 - a * a))
    if pa < 1e-9:
        return e, z
    return (t - a * w) / pa, (c * e - b * z) / pa


def reference_epoch(oracle, w0, e, m, b, rng, charge_rejected, lift_rng):
    """One epoch replayed from its tape through the public, validated
    primitives, each row lifted to R^d with the help of lift_rng; returns
    ((t . w, e . w), labels, draws)."""
    d, t = oracle.dimension, oracle.target
    p = band_mass(d, b / 2.0, b)
    budget = default_draw_budget(m, p)
    w, draws, done = w0, 0, 0
    while done < m:
        tape = geometry.draw_band_tape(d, b / 2.0, b, p, rng, min(learner.TAPE_STEPS, m - done))
        for used, xi, tau1, tau2 in zip(*tape):
            draws += int(used)
            assert draws <= budget
            x = lift(w, xi, tau1, tau2, *chain_frame(w, t, e, lift_rng), lift_rng)
            assert b / 2.0 - 1e-12 <= float(x.dot(w)) <= b + 1e-12
            if charge_rejected:
                oracle.charge_queries(int(used) - 1)
            w = modified_perceptron_step(w, x, oracle.query(x))
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
            done += 1
    rng.standard_normal(d)  # the engine's draw of the rest of w's direction
    return (float(t @ w), float(e @ w)), draws if charge_rejected else m, draws


def fresh(model, seed, d=D):
    u, w0 = planted_pair(d, 1.0, seed=seed)
    oracle = LabelingOracle(u, model, np.random.default_rng(seed + 1))
    return oracle, w0, np.random.default_rng(seed + 2)


def replay(model, seed, w0, m, b, charge_rejected, d=D):
    """Run one epoch on the engine and on the reference from the same seeds,
    and check that they agree."""
    ref_oracle, _, ref_rng = fresh(model, seed, d)
    oracle, _, rng = fresh(model, seed, d)
    t = oracle.target
    e, _ = learner._start_chain(t, w0)
    # e is any unit direction orthogonal to t whose plane with t holds w0.
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-12 and abs(float(e @ t)) <= 1e-12
    assert np.linalg.norm(w0 - (t @ w0) * t - (e @ w0) * e) <= 1e-12
    want = reference_epoch(ref_oracle, w0, e, m, b, ref_rng, charge_rejected,
                           np.random.default_rng(seed + 3))
    w, labels, draws = mod_perceptron(oracle, w0, m, b, rng, charge_rejected=charge_rejected)
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert (float(t @ w), float(e @ w)) == pytest.approx(want[0], abs=REPLAY_ATOL, rel=0.0)
    assert (labels, draws) == want[1:]
    assert oracle.queries == ref_oracle.queries == labels
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert oracle.rng.bit_generator.state == ref_oracle.rng.bit_generator.state
    return w


@pytest.mark.parametrize("charge_rejected", [False, True], ids=["active", "passive"])
@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_engine_matches_reference_loop(monkeypatch, model, width, charge_rejected):
    monkeypatch.setattr(learner, "TAPE_STEPS", REPLAY_STEPS)
    _, w0, _ = fresh(model, 3)
    replay(model, 3, w0, 80, WIDTHS[width], charge_rejected)


DEGENERATE_STARTS = {
    "target": lambda t, gen: t,
    "minus_target": lambda t, gen: -t,
    "orthogonal": lambda t, gen: unit_orthogonal(gen, t.shape[0], t),
    "d3": lambda t, gen: unit_orthogonal(gen, 3),
}


@pytest.mark.parametrize("start", sorted(DEGENERATE_STARTS))
@pytest.mark.parametrize("model", MODELS[:2], ids=lambda m: m.kind)
def test_degenerate_starts(model, start):
    # Starts on the target (no direction e to read off w0), opposite it, at
    # a right angle to it, and in the smallest dimension, where a point's
    # direction orthogonal to w has no part beyond (tau1, tau2).
    d = 3 if start == "d3" else D
    target = fresh(model, 9, d)[0].target
    w0 = DEGENERATE_STARTS[start](target, np.random.default_rng(10))
    w = replay(model, 9, w0, 200, 0.03, False, d)
    oracle, _, rng = fresh(model, 9, d)
    for _ in range(3):
        before = oracle.queries
        w, labels, draws = mod_perceptron(oracle, w, 200, 0.03, rng, charge_rejected=True)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert labels == draws == oracle.queries - before


def literal_epoch(oracle, w0, m, b, rng):
    """One epoch on the literal draw-and-discard sampler; returns (w, draws)."""
    p = band_mass(oracle.dimension, b / 2.0, b)
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


# Band widths for the whole-vector law test, by dimension: about 13 and 9
# draws per point, cheap for the literal loop.
LAW_WIDTHS = {3: 0.3, 40: 0.1}


@pytest.mark.parametrize("d", sorted(LAW_WIDTHS))
def test_engine_law_of_the_whole_vector(d):
    # The law of the epoch's end given (target, w0), so both stay fixed. The
    # angle to the target reads only t . w; w . w0 reads e . w as well, and
    # w . q, for a fixed q with a part orthogonal to t and w0, reads the rest
    # of w, whose direction the engine draws at the end of the epoch.
    model, m, b = NoiseModel.bounded(0.2), 40, LAW_WIDTHS[d]
    u, w0 = planted_pair(d, 1.0, seed=0)
    q = sample_uniform_sphere(d, np.random.default_rng(5))
    chain, literal = [], []
    for seed in range(200):
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 1]))
        w, _, _ = mod_perceptron(oracle, w0, m, b, np.random.default_rng([seed, 2]))
        chain.append((geometry.angle(w, u), w @ w0, w @ q))
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 3]))
        w, _ = literal_epoch(oracle, w0, m, b, np.random.default_rng([seed, 4]))
        literal.append((geometry.angle(w, u), w @ w0, w @ q))
    chain, literal = np.array(chain), np.array(literal)
    for column in range(3):
        assert stats.ks_2samp(chain[:, column], literal[:, column]).pvalue > 0.01


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


# A generous bound on the bytes one step of a tape chunk holds: its arrays
# and the Python lists the chain reads.
STEP_BYTES = 256


@pytest.mark.parametrize("m", [10, 10_000])
def test_epoch_memory_is_linear_in_d_plus_one_chunk(m):
    # At d = 100,000 a d-wide tape column would be 800 kB per step; the epoch
    # holds a few d-vectors (w0, t, e, the band-mass series, the residual
    # direction, w) and one chunk of at most TAPE_STEPS steps.
    d = 100_000
    oracle, w0, rng = fresh(NoiseModel.bounded(0.2), 12, d)
    (w, labels, _), peak = traced_peak_bytes(
        lambda: mod_perceptron(oracle, w0, m, 1.0 / (10.0 * math.sqrt(d)), rng))
    assert labels == m and abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert peak < 8 * (8 * d) + STEP_BYTES * learner.TAPE_STEPS


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
# so and record the new digest. Re-pinned when epochs became two-coordinate
# chains: a tape row now holds two Gaussians and a chi-square draw in place
# of d Gaussians, and each epoch ends with one Gaussian d-vector for the rest
# of the iterate, so every trial's stream, and with it every row, changed
# once.
GOLDEN_SWEEP_SHA256 = "acf18957866e39f1d19bbd1ef374f6e1870efc74ba1bdb08d45ceb351be7de06"


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
    # The chain's iterates exist as vectors only at the ends of epochs (and
    # an epoch of m = 0 steps returns its start untouched).
    for m in epochs:
        before = oracle.queries
        w_in = w
        w, labels, draws = mod_perceptron(oracle, w, m, b, gen, charge_rejected=charge_rejected)
        assert labels == oracle.queries - before
        assert draws >= labels >= m
        assert labels == (draws if charge_rejected else m)
        assert w.shape == (d,) and math.isclose(np.linalg.norm(w), 1.0, abs_tol=1e-9)
        assert (w is w_in) == (m == 0)
