"""Acceptance gates: every release criterion at its stated tolerance.

Each test prints one [criterion N] PASS/FAIL line (visible with pytest -s;
pytest -v shows the same information through test names). Monte Carlo gates
are seeded, so outcomes are reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

from percband import geometry
from percband.bench import ExperimentConfig, run_single, run_sweep
from percband.geometry import Band, rejection_sample_band, sample_uniform_sphere
from percband.initialization import InitConfig, acute_initialize
from percband.learner import modified_perceptron_step
from percband.oracles import LabelingOracle, NoiseModel
from percband.verify import all_passed, run_suite

pytestmark = pytest.mark.acceptance


def gate(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_mode(mode, noise, d=10, eps=0.05, trials=20, seed=1, **kw):
    cfg = ExperimentConfig(
        mode=mode, d=d, noise=noise, epsilon=eps, delta=0.1,
        trials=trials, master_seed=seed, **kw,
    )
    return run_single(cfg)


@pytest.fixture(scope="module")
def epsilon_sweep():
    cfg = ExperimentConfig(
        mode="active", d=10, noise=NoiseModel.realizable(), epsilon=0.05,
        delta=0.1, trials=10, master_seed=7,
    )
    return run_sweep(cfg, "epsilon", [0.2, 0.1, 0.05, 0.025])


def test_criterion_01_norm_and_progress_identity():
    start = time.perf_counter()
    per_d = 333_334
    worst_norm = 0.0
    worst_resid = 0.0
    for d in (3, 10, 100):
        gen = np.random.default_rng(d)
        u = sample_uniform_sphere(d, gen)
        w = sample_uniform_sphere(d, gen)
        block = 50_000
        done = 0
        while done < per_d:
            take = min(block, per_d - done)
            xs = sample_uniform_sphere(d, gen, n=take)
            ys = gen.choice((-1, 1), size=take)
            for i in range(take):
                x = xs[i]
                y = int(ys[i])
                wx = float(w @ x)
                ux = float(u @ x)
                cos_before = float(u @ w)
                w = modified_perceptron_step(w, x, y)
                fired = y * wx < 0.0
                resid = abs(
                    (float(u @ w) - cos_before) + (2.0 * wx * ux if fired else 0.0)
                )
                worst_resid = max(worst_resid, resid)
                worst_norm = max(worst_norm, abs(float(np.linalg.norm(w)) - 1.0))
            done += take
    elapsed = time.perf_counter() - start
    ok = worst_norm <= 1e-9 and worst_resid <= 1e-9 and elapsed < 30.0
    gate(1, ok, f"1e6 steps: max norm err {worst_norm:.2e}, max identity resid {worst_resid:.2e}, {elapsed:.1f}s (< 30s)")


def test_criterion_02_end_to_end_realizable():
    start = time.perf_counter()
    rows = run_mode("active", NoiseModel.realizable())
    elapsed = time.perf_counter() - start
    succ = sum(r.succeeded for r in rows)
    ok = succ >= 18 and elapsed < 60.0
    gate(2, ok, f"realizable d=10 eps=0.05: {succ}/20 successes, {elapsed:.1f}s (< 60s)")


def test_criterion_03_end_to_end_bounded():
    start = time.perf_counter()
    succ_02 = sum(r.succeeded for r in run_mode("active", NoiseModel.bounded(0.2)))
    succ_03 = sum(r.succeeded for r in run_mode("active", NoiseModel.bounded(0.3)))
    elapsed = time.perf_counter() - start
    ok = succ_02 >= 18 and succ_03 >= 16 and elapsed < 180.0
    gate(3, ok, f"bounded eta=0.2: {succ_02}/20 (>=18), eta=0.3: {succ_03}/20 (>=16), {elapsed:.1f}s (< 3min)")


def test_criterion_04_end_to_end_adversarial():
    start = time.perf_counter()
    rows = run_mode("active", NoiseModel.adversarial(0.05 / 10.0))
    elapsed = time.perf_counter() - start
    succ = sum(r.succeeded for r in rows)
    ok = succ >= 18 and elapsed < 120.0
    gate(4, ok, f"adversarial nu=eps/10: {succ}/20 successes, {elapsed:.1f}s (< 2min)")


def test_criterion_05_label_scaling_in_epsilon(epsilon_sweep):
    _, summaries = epsilon_sweep
    x = np.log(1.0 / np.array([s.value for s in summaries]))
    y = np.array([s.median_labels for s in summaries])
    r2 = stats.linregress(x, y).rvalue ** 2
    gate(5, r2 >= 0.9, f"median labels vs ln(1/eps): R^2 = {r2:.4f} (>= 0.9); labels {y.tolist()}")


def test_criterion_06_label_scaling_in_dimension():
    cfg = ExperimentConfig(
        mode="active", d=10, noise=NoiseModel.realizable(), epsilon=0.1,
        delta=0.1, trials=10, master_seed=7,
    )
    _, summaries = run_sweep(cfg, "d", [5, 10, 20, 40])
    slope = stats.linregress(
        np.log([s.value for s in summaries]),
        np.log([s.median_labels for s in summaries]),
    ).slope
    gate(6, 0.7 <= slope <= 1.3, f"log-log slope of median labels vs d = {slope:.3f} (1.0 +- 0.3)")


def test_criterion_07_label_scaling_in_noise():
    cfg = ExperimentConfig(
        mode="active", d=10, noise=NoiseModel.realizable(), epsilon=0.05,
        delta=0.1, trials=10, master_seed=7,
    )
    _, summaries = run_sweep(cfg, "eta", [0.1, 0.3])
    ratio = summaries[1].median_labels / summaries[0].median_labels
    expected = ((1 - 0.2) / (1 - 0.6)) ** 2  # = 4
    ok = expected / 3.0 <= ratio <= expected * 3.0
    gate(7, ok, f"labels(eta=0.3)/labels(eta=0.1) = {ratio:.2f}, window [{expected/3:.2f}, {expected*3:.0f}]")


def test_criterion_08_unlabeled_scaling_in_epsilon(epsilon_sweep):
    _, summaries = epsilon_sweep
    slope = stats.linregress(
        np.log(1.0 / np.array([s.value for s in summaries])),
        np.log([s.median_unlabeled for s in summaries]),
    ).slope
    gate(8, 0.7 <= slope <= 1.3, f"log-log slope of median unlabeled draws vs 1/eps = {slope:.3f} (1.0 +- 0.3)")


def test_criterion_09_statistical_checks():
    start = time.perf_counter()
    results = run_suite(seed=0, n_samples=1_000_000)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    ok = all_passed(results) and elapsed < 300.0
    gate(9, ok, f"verification suite: {sum(r.passed for r in results)}/{len(results)} checks, {elapsed:.1f}s (< 5min); failures: {failed}")


def test_criterion_10_rejection_sampler_concentration():
    d = 10
    target_p = 0.01
    b = optimize.brentq(
        lambda t: geometry.band_mass(d, t / 2.0, t) - target_p, 1e-6, 0.5, xtol=1e-12
    )
    p = geometry.band_mass(d, b / 2.0, b)
    m = 1000
    threshold = 2.0 * m / p
    hits = 0
    for rep in range(100):
        gen = np.random.default_rng(1000 + rep)
        band = Band(normal=sample_uniform_sphere(d, gen), lower=b / 2.0, upper=b)
        total = sum(
            rejection_sample_band(band, gen, 10**8, mass=p)[1] for _ in range(m)
        )
        hits += total <= threshold
    gate(10, hits >= 99, f"total draws <= 2m/p in {hits}/100 repetitions (>= 99), p={p:.4f}")


def test_criterion_11_acute_initialization():
    start = time.perf_counter()
    outcomes = {}
    for name, model in (("realizable", NoiseModel.realizable()), ("bounded", NoiseModel.bounded(0.2))):
        good = 0
        for i in range(20):
            ss = np.random.SeedSequence((42, i))
            r_plant, r_oracle, r_samp = [np.random.default_rng(s) for s in ss.spawn(3)]
            d = 5
            if i % 2 == 0:
                # Adversarial planting: target near the negated start direction.
                e1 = np.zeros(d)
                e1[0] = 1.0
                u = geometry.normalize(-e1 + 0.05 * r_plant.standard_normal(d))
            else:
                u = sample_uniform_sphere(d, r_plant)
            oracle = LabelingOracle(u, model, r_oracle)
            res = acute_initialize(oracle, d, InitConfig(model=model, delta=0.1), r_samp)
            good += geometry.angle(res.vector, u) <= math.pi / 4
        outcomes[name] = good
    elapsed = time.perf_counter() - start
    ok = all(v >= 18 for v in outcomes.values())
    gate(11, ok, f"within pi/4: realizable {outcomes['realizable']}/20, eta=0.2 {outcomes['bounded']}/20 (>= 18 each), {elapsed:.1f}s")


def test_criterion_12_passive_equivalence():
    start = time.perf_counter()
    active = run_mode("active", NoiseModel.realizable(), trials=50, seed=21)
    passive = run_mode("passive", NoiseModel.realizable(), trials=50, seed=22)
    ks = stats.ks_2samp(
        [r.unlabeled_draws for r in active], [r.labels for r in passive]
    )
    succ = {"realizable": sum(r.succeeded for r in passive)}
    thresholds = {"realizable": 18}
    for name, noise, need in (
        ("bounded02", NoiseModel.bounded(0.2), 18),
        ("bounded03", NoiseModel.bounded(0.3), 16),
        ("adversarial", NoiseModel.adversarial(0.005), 18),
    ):
        rows = run_mode("passive", noise, trials=20, seed=23)
        succ[name] = sum(r.succeeded for r in rows)
        thresholds[name] = need
    elapsed = time.perf_counter() - start
    rate_ok = all(succ[k] >= thresholds[k] * (50 / 20 if k == "realizable" else 1) for k in succ)
    ok = ks.pvalue > 0.05 and rate_ok
    gate(12, ok, f"KS p={ks.pvalue:.3f} (> 0.05); passive successes {succ} vs thresholds, {elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    paths = [tmp_path / f"det{i}.csv" for i in range(2)]
    for path in paths:
        cfg = ExperimentConfig(
            mode="active", d=5, noise=NoiseModel.bounded(0.2), epsilon=0.1,
            delta=0.1, trials=4, master_seed=99, output_path=str(path),
        )
        run_sweep(cfg, "epsilon", [0.2, 0.1])
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    gate(13, identical, "re-run with same master seed produced byte-identical CSV output")
