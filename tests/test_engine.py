"""The epoch engine against the public, validated primitives it is built on.

``learner.mod_perceptron`` checks its inputs once per epoch and then runs
on the unchecked cores of the band sampler, the oracle and the update. These
tests pin that the engine consumes the random streams exactly as a loop over
the public API does, that its validation does not scale with the epoch
length, and that the trial CSVs stay those of the recorded stream.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percband import geometry, learner
from percband.bench import ExperimentConfig, run_sweep
from percband.geometry import Band, band_mass, rejection_sample_band, sample_uniform_sphere
from percband.learner import default_draw_budget, mod_perceptron, modified_perceptron_step
from percband.oracles import LabelingOracle, NoiseModel, labels_from_dots

from conftest import planted_pair

D = 10
MODELS = (
    NoiseModel.realizable(),
    NoiseModel.bounded(0.2),
    NoiseModel.bounded_margin(0.2, 0.1),
    NoiseModel.adversarial(0.05),
)
# At d=10 the band [b/2, b] needs 1/p ~ 54 draws per point for b=0.03 (the
# literal sampler) and ~330 for b=0.005 (the geometric one).
WIDTHS = {"literal": 0.03, "geometric": 0.005}


def reference_epoch(oracle, w0, m, b, rng, charge_rejected):
    """One epoch written with the public, validated primitives only."""
    p = band_mass(oracle.dimension, b / 2.0, b)
    remaining = default_draw_budget(m, p)
    w, draws = w0, 0
    for _ in range(m):
        x, used = rejection_sample_band(Band(normal=w, lower=b / 2.0, upper=b), rng, remaining,
                                        mass=p)
        remaining -= used
        draws += used
        if charge_rejected:
            oracle.charge_queries(used - 1)
        w = modified_perceptron_step(w, x, oracle.query(x))
    return w, draws if charge_rejected else m, draws


def fresh(model, seed):
    u, w0 = planted_pair(D, 1.0, seed=seed)
    oracle = LabelingOracle(u, model, np.random.default_rng(seed + 1))
    return oracle, w0, np.random.default_rng(seed + 2)


@pytest.mark.parametrize("charge_rejected", [False, True], ids=["active", "passive"])
@pytest.mark.parametrize("sampler", sorted(WIDTHS))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_engine_matches_reference_loop(model, sampler, charge_rejected):
    b = WIDTHS[sampler]
    assert geometry.band_sampler(band_mass(D, b / 2.0, b)).__name__ == f"_sample_band_{sampler}"
    ref_oracle, w0, ref_rng = fresh(model, 3)
    oracle, _, rng = fresh(model, 3)
    want = reference_epoch(ref_oracle, w0, 80, b, ref_rng, charge_rejected)
    got = mod_perceptron(oracle, w0, 80, b, rng, charge_rejected=charge_rejected)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert oracle.queries == ref_oracle.queries == got[1]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert oracle.rng.bit_generator.state == ref_oracle.rng.bit_generator.state


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


def test_scalar_margin_matches_one_element_batch():
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(200):
        assert geometry.sample_band_margin(D, 0.01, 0.02, a) == \
            geometry.sample_band_margin(D, 0.01, 0.02, b, n=1)[0]
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("sampler", sorted(WIDTHS))
def test_validation_is_per_epoch_not_per_label(monkeypatch, sampler):
    oracle, w0, rng = fresh(NoiseModel.bounded(0.2), 4)
    calls = []
    check_unit = geometry.check_unit
    monkeypatch.setattr(geometry, "check_unit", lambda *a, **k: calls.append(1) or check_unit(*a, **k))
    counts = []
    for m in (10, 300):
        calls.clear()
        mod_perceptron(oracle, w0, m, WIDTHS[sampler], rng)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


# sha256 of the concatenated CSVs of the twelve sweeps below, as first
# recorded. Any change to the random stream of a trial changes it; a change
# made on purpose must say so and record the new digest.
GOLDEN_SWEEP_SHA256 = "564506ad5f65750c81eadd09535cac694979894644a897641dcfa3b64eefc871"


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
    iterates = []
    reflect = learner._reflect
    learner._reflect = lambda *args: iterates.append(reflect(*args)) or iterates[-1]
    try:
        for m in epochs:
            before = oracle.queries
            w, labels, draws = mod_perceptron(oracle, w, m, b, gen, charge_rejected=charge_rejected)
            assert labels == oracle.queries - before
            assert draws >= labels >= m
            assert labels == (draws if charge_rejected else m)
    finally:
        learner._reflect = reflect
    assert len(iterates) == sum(epochs)
    assert all(math.isclose(np.linalg.norm(v), 1.0, abs_tol=1e-9) for v in iterates)
