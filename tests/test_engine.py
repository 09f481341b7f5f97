"""The two-coordinate run engine against the public, validated primitives.

``learner.active_perceptron`` checks its inputs once per run, draws each
epoch's randomness in bulk (a ``geometry.BandTape`` from the sampler's
generator, the label coins from the oracle's) and runs the whole schedule's
per-label loop as one chain on (t . w, e . w), with t the target and e the
unit part of the start vector orthogonal to t. These tests lift each tape
row to a point in R^d, with the rest of its direction drawn from a separate
generator, replay the run step by step through ``modified_perceptron_step``
and ``LabelingOracle.query``, compare the engine's law with a loop over the
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
from percband.bench import ExperimentConfig, run_trials, write_csv
from percband.geometry import Band, band_mass, rejection_sample_band, sample_uniform_sphere
from percband.learner import Schedule, active_perceptron
from percband.oracles import LabelingOracle, NoiseModel, flip_coins, flip_radius, negative_labels

from conftest import lift, one_epoch, planted_pair, traced_peak_bytes, unit_orthogonal
from reference import modified_perceptron_step

D = 10
MODELS = (
    NoiseModel.realizable(),
    NoiseModel.bounded(0.2),
    NoiseModel.adversarial(0.05),
)
# A wide and a thin band, named for the sampler that suits each: at d=10 the
# band [b/2, b] needs 1/p ~ 54 draws per point for b=0.03, cheap for the
# literal draw-and-discard loop, and ~330 for b=0.005, where only the
# geometric law (a Geometric(p) count, then the point) is cheap. The engine
# samples both from the tape.
WIDTHS = {"literal": 0.03, "geometric": 0.005}
# Steps per tape chunk in the replay tests, so that an 80-step epoch spans
# three chunks.
REPLAY_STEPS = 32
# The band widths of the cross-epoch replay: the two of WIDTHS with a middle
# one between them.
REPLAY_WIDTHS = (0.03, 0.02, 0.005)
# Agreement required between the engine's (t . w, e . w) and the replay's,
# and between their angles to the target at each epoch's end.
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


def reference_run(oracle, w0, e, schedule, rng, charge_rejected, lift_rng):
    """A run replayed from its tapes through the public, validated
    primitives, each row lifted to R^d with the help of lift_rng, with one e
    for the whole run; returns ((t . w, e . w), labels, draws, angles), the
    last three per epoch."""
    d, t = oracle.target.shape[0], oracle.target
    w, labels, draws, angles = w0, [], [], []
    for m, b in zip(schedule.m, schedule.b):
        p = band_mass(d, b / 2.0, b)
        budget = math.ceil(100 * m / p)
        epoch_draws, done = 0, 0
        while done < m:
            tape = geometry.draw_band_tape(d, b / 2.0, b, p, rng, min(learner.TAPE_STEPS, m - done))
            for used, xi, tau1, tau2 in zip(*tape):
                epoch_draws += int(used)
                assert epoch_draws <= budget
                x = lift(w, xi, tau1, tau2, *chain_frame(w, t, e, lift_rng), lift_rng)
                assert b / 2.0 - 1e-12 <= float(x.dot(w)) <= b + 1e-12
                if charge_rejected:
                    oracle.charge_queries(int(used) - 1)
                w = modified_perceptron_step(w, x, oracle.query(x))
                assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
                done += 1
        labels.append(epoch_draws if charge_rejected else m)
        draws.append(epoch_draws)
        angles.append(geometry.angle(w, t))
    rng.standard_normal(d)  # the engine's one draw of the rest of w's direction
    return (float(t @ w), float(e @ w)), labels, draws, angles


def fresh(model, seed, d=D):
    u, w0 = planted_pair(d, 1.0, seed=seed)
    oracle = LabelingOracle(u, model, np.random.default_rng(seed + 1))
    return oracle, w0, np.random.default_rng(seed + 2)


def replay(model, seed, w0, schedule, charge_rejected, d=D):
    """Run a schedule on the engine and on the reference from the same
    seeds, and check that they agree."""
    ref_oracle, _, ref_rng = fresh(model, seed, d)
    oracle, _, rng = fresh(model, seed, d)
    t = oracle.target
    e, _ = learner._start_chain(t, w0)
    # e is any unit direction orthogonal to t whose plane with t holds w0.
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-12 and abs(float(e @ t)) <= 1e-12
    assert np.linalg.norm(w0 - (t @ w0) * t - (e @ w0) * e) <= 1e-12
    want = reference_run(ref_oracle, w0, e, schedule, ref_rng, charge_rejected,
                         np.random.default_rng(seed + 3))
    report = active_perceptron(oracle, w0, schedule, rng, charge_rejected=charge_rejected)
    w = report.final
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert (float(t @ w), float(e @ w)) == pytest.approx(want[0], abs=REPLAY_ATOL, rel=0.0)
    assert [tr.labels for tr in report.traces] == want[1]
    assert [tr.unlabeled_draws for tr in report.traces] == want[2]
    # Every epoch end is read off the chain state.
    assert [tr.theta_after for tr in report.traces] == pytest.approx(want[3], abs=REPLAY_ATOL, rel=0.0)
    assert oracle.queries == ref_oracle.queries == report.total_labels
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert oracle.rng.bit_generator.state == ref_oracle.rng.bit_generator.state
    return w


@pytest.mark.parametrize("charge_rejected", [False, True], ids=["active", "passive"])
@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_engine_matches_reference_loop(monkeypatch, model, width, charge_rejected):
    monkeypatch.setattr(learner, "TAPE_STEPS", REPLAY_STEPS)
    _, w0, _ = fresh(model, 3)
    replay(model, 3, w0, Schedule(D, 0.5, (80,), (WIDTHS[width],)), charge_rejected)


@pytest.mark.parametrize("charge_rejected", [False, True], ids=["active", "passive"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_run_matches_reference_loop_across_epochs(monkeypatch, model, charge_rejected):
    # Epochs end without leaving the chain: e stays the start's, and the
    # rest of w's direction is drawn once, at the end of the run.
    monkeypatch.setattr(learner, "TAPE_STEPS", REPLAY_STEPS)
    _, w0, _ = fresh(model, 3)
    replay(model, 3, w0, Schedule(D, 0.125, (80,) * 3, REPLAY_WIDTHS), charge_rejected)


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
    w = replay(model, 9, w0, Schedule(d, 0.5, (200,), (0.03,)), False, d)
    oracle, _, rng = fresh(model, 9, d)
    for _ in range(3):
        before = oracle.queries
        w, labels, draws = one_epoch(oracle, w, 200, 0.03, rng, charge_rejected=True)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert labels == draws == oracle.queries - before


def literal_epoch(oracle, w0, m, b, rng):
    """One epoch on the literal draw-and-discard sampler; returns (w, draws)."""
    w, draws = w0, 0
    for _ in range(m):
        x, used = rejection_sample_band(Band(normal=w, lower=b / 2.0, upper=b), rng)
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
        w, _, draws = one_epoch(oracle, w0, m, b, np.random.default_rng([seed, 2]))
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
        w, _, _ = one_epoch(oracle, w0, m, b, np.random.default_rng([seed, 2]))
        chain.append((geometry.angle(w, u), w @ w0, w @ q))
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 3]))
        w, _ = literal_epoch(oracle, w0, m, b, np.random.default_rng([seed, 4]))
        literal.append((geometry.angle(w, u), w @ w0, w @ q))
    chain, literal = np.array(chain), np.array(literal)
    for column in range(3):
        assert stats.ks_2samp(chain[:, column], literal[:, column]).pvalue > 0.01


# Band widths per epoch for the multi-epoch law test, by dimension: cheap for
# the literal loop, as in LAW_WIDTHS.
LAW_SCHEDULES = {3: (0.3, 0.15, 0.08), 40: (0.1, 0.05)}


@pytest.mark.parametrize("d", sorted(LAW_SCHEDULES))
def test_engine_law_across_epochs(d):
    # A run is one chain, so the epochs after the first start from a state,
    # not from a vector. Against epochs chained on the literal loop, each
    # from the vector the last one ended on: the law of the run's end (as in
    # the whole-vector test), of the angle after epoch 1, read off the chain,
    # and of the total draws.
    model, m, widths = NoiseModel.bounded(0.2), 30, LAW_SCHEDULES[d]
    schedule = Schedule(d, 0.1, (m,) * len(widths), widths)
    u, w0 = planted_pair(d, 1.0, seed=0)
    q = sample_uniform_sphere(d, np.random.default_rng(5))
    chain, literal = [], []
    for seed in range(200):
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 1]))
        report = active_perceptron(oracle, w0, schedule, np.random.default_rng([seed, 2]))
        w = report.final
        chain.append((geometry.angle(w, u), w @ w0, w @ q, report.traces[0].theta_after,
                      report.total_unlabeled))
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 3]))
        rng = np.random.default_rng([seed, 4])
        w, angles, total = w0, [], 0
        for b in widths:
            w, draws = literal_epoch(oracle, w, m, b, rng)
            angles.append(geometry.angle(w, u))
            total += draws
        literal.append((angles[-1], w @ w0, w @ q, angles[0], total))
    chain, literal = np.array(chain), np.array(literal)
    for column in range(5):
        assert stats.ks_2samp(chain[:, column], literal[:, column]).pvalue > 0.01


def lifted_literal_epoch(oracle, w, m, b, gen):
    """One epoch of the d-vector reflection loop on points xi w + s v: xi from
    the band's margin law, and v uniform on the unit sphere orthogonal to w,
    with coordinates (tau1, tau2) along two directions drawn from gen and the
    rest lifted. Returns the final vector."""
    d = w.shape[0]
    margins = geometry.sample_margins(d, b / 2.0, b, gen, m)
    tau1, tau2 = geometry.sphere_coordinates(d - 1, 2, gen, m)
    for xi, t1, t2 in zip(margins, tau1, tau2):
        u1 = unit_orthogonal(gen, d, w)
        x = lift(w, xi, t1, t2, u1, unit_orthogonal(gen, d, w, u1), gen)
        w = modified_perceptron_step(w, x, oracle.query(x))
    return w


def test_engine_law_at_small_angles():
    # From 2e-8, near the angle 1.5e-8 below which a = cos(theta) rounds to
    # 1, one realizable epoch with the halving stage's own m and b cuts the
    # angle about fourfold. The chain carries sin(theta), so it must follow
    # the d-vector loop there; one that recomputed sin(theta) from a would
    # make no progress.
    theta0, model = 2e-8, NoiseModel.realizable()
    m, b = learner.mod_perceptron_params(D, 2.0 * theta0, 0.01, 1.0)
    chain, literal = [], []
    for seed in range(100):
        u, w0 = planted_pair(D, theta0, seed=seed)
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 1]))
        w, _, _ = one_epoch(oracle, w0, m, b, np.random.default_rng([seed, 2]))
        chain.append(geometry.angle(w, u))
        oracle = LabelingOracle(u, model, np.random.default_rng([seed, 3]))
        w = lifted_literal_epoch(oracle, w0, m, b, np.random.default_rng([seed, 4]))
        literal.append(geometry.angle(w, u))
    assert stats.ks_2samp(chain, literal).pvalue > 0.01


def test_band_of_tiny_mass_costs_one_step_per_label():
    # At d = 10 the band [b/2, b] with b = 1e-8 has mass about 6e-9, so an
    # epoch of m steps draws about m/p ~ 3e12 points. Each step draws its
    # count as one Geometric(p) number: the epoch costs m steps, and the
    # total is a sum of m such numbers, within 5 standard deviations of m/p.
    m, b = 20_000, 1e-8
    oracle, w0, rng = fresh(NoiseModel.bounded(0.2), 13)
    p = band_mass(D, b / 2.0, b)
    assert 1e-9 < p < 1e-8
    w, labels, draws = one_epoch(oracle, w0, m, b, rng)
    assert labels == oracle.queries == m
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert abs(draws - m / p) <= 5.0 * math.sqrt(m * (1.0 - p)) / p


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
        lambda: one_epoch(oracle, w0, m, 1.0 / (10.0 * math.sqrt(d)), rng))
    assert labels == m and abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert peak < 8 * (8 * d) + STEP_BYTES * learner.TAPE_STEPS


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_scalar_labels_match_flip_coins_and_radius(model):
    # One query is one coin, flipping sign(u . x) iff |u . x| <= the radius.
    oracle, _, rng = fresh(model, 5)
    ref_rng = np.random.default_rng(6)
    points = sample_uniform_sphere(D, rng, n=300)
    got = [oracle.query(x) for x in points]
    radius = flip_radius(model, D)
    want = []
    for x in points:
        dot = x @ oracle.target
        flip = flip_coins(model, ref_rng, 1)[0] and abs(dot) <= radius
        want.append(-1 if (dot >= 0.0) == flip else 1)
    assert got == want
    assert oracle.rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_validation_is_per_epoch_not_per_label(monkeypatch, width):
    # Inputs are checked once per run: the count depends neither on the
    # labels an epoch spends nor on the number of epochs.
    oracle, w0, rng = fresh(NoiseModel.bounded(0.2), 4)
    calls = []
    check_unit = geometry.check_unit
    monkeypatch.setattr(geometry, "check_unit", lambda *a, **k: calls.append(1) or check_unit(*a, **k))
    counts = []
    for m, epochs in ((10, 1), (300, 1), (10, 5)):
        calls.clear()
        active_perceptron(oracle, w0, Schedule(D, 0.5, (m,) * epochs, (WIDTHS[width],) * epochs), rng)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] <= 5


# sha256 of the concatenated CSVs of the twelve sweeps below. Any change to
# the random stream of a trial changes it; a change made on purpose must say
# so and record the new digest. Re-pinned when epochs became two-coordinate
# chains: a tape row now holds two Gaussians and a chi-square draw in place
# of d Gaussians, and each epoch ends with one Gaussian d-vector for the rest
# of the iterate, so every trial's stream, and with it every row, changed
# once. Re-pinned again when init's disagreement test began drawing its
# points by the exact reduction (one Gaussian d-vector per point, an in-plane
# angle and sign, and one negative binomial draw count) in place of the
# draw-and-discard loop: the init rows changed once, the active and passive
# rows did not. Re-pinned when geometry.angle became atan2 of
# geometry.cos_sin in place of a clamped acos of the dot product: only the
# last printed digits of some final_angle values moved (acos loses relative
# precision at small angles); labels, draws and successes did not change.
# Re-pinned when a run became one chain across its epochs: the sampler's
# generator no longer draws a Gaussian d-vector at each inner epoch
# boundary, only one at the end of the run, so every row of these
# multi-epoch trials changed once (a one-epoch trial's stream is unchanged).
# Re-pinned when the chain began to carry sin(theta) and every angle of a run
# was read off the chain state: only the last digits of final_angle moved
# (by under 1e-11 relative); labels, draws and successes did not change.
# Re-pinned when the bounded_margin noise kind was removed: its three files
# left the hash; the nine files still hashed are byte-identical.
GOLDEN_SWEEP_SHA256 = "77188af895c428e2750f68665f167aad5b2bff7ce5d02d3f4ddbad211aa01b1c"


def test_golden_sweep_digest(tmp_path):
    digest = hashlib.sha256()
    for mode in ("active", "passive", "init"):
        for model in MODELS[:2] + (NoiseModel.adversarial(0.005),):
            out = tmp_path / f"{mode}-{model.kind}.csv"
            config = ExperimentConfig(mode=mode, d=D, noise=model, epsilon=0.2, trials=2,
                                      master_seed=7)
            write_csv(str(out), run_trials([config]))
            digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_SWEEP_SHA256


@given(
    d=st.integers(3, 12),
    model=st.sampled_from(MODELS),
    b=st.floats(0.004, 0.5),
    charge_rejected=st.booleans(),
    epochs=st.lists(st.integers(1, 25), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_accounting_and_unit_iterates(d, model, b, charge_rejected, epochs, seed):
    gen = np.random.default_rng(seed)
    oracle = LabelingOracle(sample_uniform_sphere(d, gen), model, np.random.default_rng(seed + 1))
    v0 = sample_uniform_sphere(d, gen)
    # The chain's iterate is a vector only at the run's two ends.
    schedule = Schedule(d, 0.5, tuple(epochs), (b,) * len(epochs))
    report = active_perceptron(oracle, v0, schedule, gen, charge_rejected=charge_rejected)
    assert report.total_labels == oracle.queries
    for m, trace in zip(epochs, report.traces):
        assert trace.unlabeled_draws >= trace.labels >= m
        assert trace.labels == (trace.unlabeled_draws if charge_rejected else m)
    w = report.final
    assert w.shape == (d,) and math.isclose(np.linalg.norm(w), 1.0, abs_tol=1e-9)
    # The last angle is read off the chain, and the vector is built from it.
    assert math.isclose(report.traces[-1].theta_after, geometry.angle(w, oracle.target), rel_tol=1e-12)


def reference_run_chain(chain, tape, coins, radius, clamped=None):
    """``learner._run_chain`` written with ``max`` clamps: the lean loop must
    return the same bits. pa = |(b, c)| at the start, and a fire that moves
    a by step sets pa^2 = pa^2 + step (2 a - step) and c^2 = pa^2 - b^2. Each
    fire appends to ``clamped``, if given, whether pa^2 - b^2 fell below 0."""
    a, b, c = chain
    pa = math.hypot(b, c)
    margins = tape.margins
    s = np.sqrt((1.0 - margins) * (1.0 + margins))
    rows = zip(margins.tolist(), (s * tape.tau1).tolist(), (s * tape.tau2).tolist(),
               coins.tolist())
    for xi, st1, st2, coin in rows:
        tx = xi * a + pa * st1
        if (tx >= 0.0) == (coin and abs(tx) <= radius):
            ex = xi * b + ((c * st2 - a * b * st1) / pa if pa > 0.0 else st1)
            step = 2.0 * xi * tx
            q = max(0.0, pa * pa + step * (2.0 * a - step))
            a -= step
            b -= 2.0 * xi * ex
            pa = math.sqrt(q)
            c = math.sqrt(max(0.0, q - b * b))
            if clamped is not None:
                clamped.append(q - b * b < 0.0)
    return a, b, c


def bits(state):
    """A chain state as exact bits: -0.0 and 0.0 differ, and NaNs match."""
    return tuple(float(x).hex() for x in state)


def on_circle(a):
    """(a, b, 0) with b the float just above sqrt(1 - a^2), so that q - b^2
    rounds below 0."""
    return a, math.nextafter(math.sqrt((1.0 - a) * (1.0 + a)), math.inf), 0.0


CHAIN_STARTS = {
    "one": lambda a: (1.0, 0.0, 0.0),
    "minus_one": lambda a: (-1.0, 0.0, 0.0),
    "zero": lambda a: (0.0, 1.0, 0.0),
    "minus_zero": lambda a: (-0.0, -1.0, -0.0),
    "nan": lambda a: (math.nan, 0.0, 0.5),
    "random": lambda a: (a, math.sqrt((1.0 - a) * (1.0 + a)), 0.0),
    "off_circle": lambda a: (a, 0.5 * math.sqrt((1.0 - a) * (1.0 + a)), 0.5),
    "below_circle": on_circle,
}


def chain_inputs(model, d, width, n, seed, planar):
    """A tape of n band samples and the label coins of an oracle under model.
    A planar tape has (tau1, tau2) = (+-1, 0), so each point lies in the plane
    of t and w: from c = 0 the iterates stay in span(t, e), and 1 - a^2 - b^2
    after a fire is rounding noise, often below 0."""
    gen = np.random.default_rng(seed)
    oracle = LabelingOracle(sample_uniform_sphere(d, gen), model, gen)
    tape = geometry.draw_band_tape(d, width / 2.0, width, band_mass(d, width / 2.0, width), gen, n)
    if planar:
        tape = tape._replace(tau1=np.where(tape.tau1 < 0.0, -1.0, 1.0), tau2=np.zeros(n))
    return (tape, *oracle.flip_tape(n))


@given(
    model=st.sampled_from(MODELS),
    start=st.sampled_from(sorted(CHAIN_STARTS)),
    a=st.floats(-1.0, 1.0),
    d=st.integers(3, 12),
    width=st.floats(0.004, 0.5),
    n=st.integers(1, 300),
    planar=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_chain_matches_reference_bits(model, start, a, d, width, n, planar, seed):
    chain = CHAIN_STARTS[start](a)
    inputs = chain_inputs(model, d, width, n, seed, planar)
    assert bits(learner._run_chain(chain, *inputs)) == bits(reference_run_chain(chain, *inputs))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_chain_clamps_states_that_round_off_the_circle(model):
    # Row by row along a planar tape: every fire that leaves pa^2 - b^2
    # below 0 must read c = 0 as the reference does, and such fires must
    # occur.
    tape, coins, radius = chain_inputs(model, D, 0.03, 400, 17, planar=True)
    state, clamped = on_circle(0.6), []
    for k in range(tape.margins.size):
        row = geometry.BandTape(*(column[k:k + 1] for column in tape))
        new = learner._run_chain(state, row, coins[k:k + 1], radius)
        assert bits(new) == bits(reference_run_chain(state, row, coins[k:k + 1], radius, clamped))
        state = new
    assert any(clamped)


def visited(chain, tape, coins, radius):
    """The margins of the rows of a chunk that the chain visits from ``chain``."""
    a, b, c = chain
    return [row[0] for row in learner._chunk_rows(a, math.hypot(b, c), tape, coins, radius)]


def rows(tape, coins, lo, hi):
    """Rows lo to hi - 1 of a chunk as a chunk of their own."""
    return geometry.BandTape(*(column[lo:hi] for column in tape)), coins[lo:hi]


@given(
    start=st.sampled_from(sorted(CHAIN_STARTS)),
    a=st.floats(-1.0, 1.0),
    d=st.integers(3, 12),
    width=st.floats(0.004, 0.5),
    n=st.integers(1, 200),
    planar=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rows_a_realizable_chunk_skips_cannot_fire(start, a, d, width, n, planar, seed):
    # From an acute start with pa * pa a normal float, a chunk with no coin
    # set visits exactly the rows that fire from its start; from any other
    # start, every row. Replayed row by row through the reference (the
    # chunk's first k rows, for each k), a row it skips leaves the state's
    # bits unchanged wherever in the chunk it comes. Every fifth row has
    # tau1 = 0, so that at a = 0 its t . x is 0 at the start: such a row
    # does not fire, and is skipped.
    chain = CHAIN_STARTS[start](a)
    tape, coins, radius = chain_inputs(NoiseModel.realizable(), d, width, n, seed, planar)
    tape = tape._replace(tau1=np.where(np.arange(n) % 5 == 0, 0.0, tape.tau1))
    margins, kept = tape.margins.tolist(), visited(chain, tape, coins, radius)
    states = [bits(reference_run_chain(chain, *rows(tape, coins, 0, k), radius)) for k in range(n + 1)]
    fire = [bits(reference_run_chain(chain, *rows(tape, coins, k, k + 1), radius)) != states[0]
            for k in range(n)]
    pa = math.hypot(chain[1], chain[2])
    if chain[0] >= 0.0 and 2.0**-500 <= pa <= 2.0**500:
        assert kept == [xi for xi, fires in zip(margins, fire) if fires]
    else:
        assert kept == margins
    for k, xi in enumerate(margins):
        if xi not in kept:
            assert states[k + 1] == states[k]
    assert bits(learner._run_chain(chain, tape, coins, radius)) == states[n]


# Chunks that visit every row: a label may flip (bounded and adversarial
# coins), or the start is obtuse, on the target (pa = 0), has pa below
# 2^-500 (pa * pa is subnormal) or holds a NaN.
UNSKIPPED = {
    "bounded": (NoiseModel.bounded(0.2), (0.6, 0.8, 0.0)),
    "adversarial": (NoiseModel.adversarial(0.05), (0.6, 0.8, 0.0)),
    "obtuse": (NoiseModel.realizable(), (-0.6, 0.8, 0.0)),
    "on_target": (NoiseModel.realizable(), (1.0, 0.0, 0.0)),
    "tiny_pa": (NoiseModel.realizable(), (0.0, 1e-160, 0.0)),
    "nan_a": (NoiseModel.realizable(), (math.nan, 0.0, 0.5)),
    "nan_b": (NoiseModel.realizable(), (0.6, math.nan, 0.0)),
}


@pytest.mark.parametrize("case", sorted(UNSKIPPED))
def test_chunks_that_visit_every_row(case):
    model, chain = UNSKIPPED[case]
    tape, coins, radius = chain_inputs(model, D, 0.03, 300, 23, planar=False)
    assert visited(chain, tape, coins, radius) == tape.margins.tolist()
    assert bits(learner._run_chain(chain, tape, coins, radius)) == bits(reference_run_chain(chain, tape, coins, radius))


# Acute and obtuse starts, on and off the plane of t and e. At a = +-0 the
# first four rows, with tau1 = +-0, have t . x = +0.0 or -0.0.
EDGE_STARTS = [(0.0, 1.0, 0.0), (-0.0, -1.0, 0.0), (0.6, 0.8, 0.0), (-0.6, 0.8, 0.0), (0.6, -0.48, 0.64)]


def test_chain_fires_iff_the_label_law_reads_minus_one():
    # One-row chains at radius |t . x| and at the float just below it, with
    # the coin set and unset: the state moves iff negative_labels reads -1
    # at the row's t . x. Rows with e . x near 0 are left out, so that a
    # fire always moves b.
    gen = np.random.default_rng(31)
    tape = geometry.draw_band_tape(D, 0.015, 0.03, band_mass(D, 0.015, 0.03), gen, 40)
    tape = tape._replace(tau1=np.concatenate([[0.0, -0.0, 0.0, -0.0], tape.tau1[4:]]))
    s = np.sqrt((1.0 - tape.margins) * (1.0 + tape.margins))
    checked = 0
    for chain in EDGE_STARTS:
        a, b, c = chain
        pa = math.hypot(b, c)
        for k, (xi, st1, st2) in enumerate(zip(tape.margins.tolist(), (s * tape.tau1).tolist(),
                                                (s * tape.tau2).tolist())):
            tx, ex = xi * a + pa * st1, xi * b + (c * st2 - a * b * st1) / pa
            if abs(ex) < 1e-6:
                continue
            row = geometry.BandTape(*(column[k:k + 1] for column in tape))
            for coin in (False, True):
                for radius in (abs(tx), math.nextafter(abs(tx), -math.inf)):
                    coins = np.array([coin])
                    moved = learner._run_chain(chain, row, coins, radius) != chain
                    assert moved == negative_labels(np.array([tx]), coins, radius)[0], (chain, k, coin, radius)
                    checked += 1
    assert checked >= 4 * 150
