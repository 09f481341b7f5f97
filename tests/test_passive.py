import numpy as np
from scipy import stats

from percband import geometry
from percband.geometry import Band, sample_uniform_sphere
from percband.learner import active_perceptron, make_schedule
from percband.oracles import LabelingOracle, NoiseModel
from percband.passive import LabeledExampleSource

from conftest import one_epoch


def make_source(d=5, seed=0, model=None):
    model = model or NoiseModel.realizable()
    gen = np.random.default_rng(seed)
    target = sample_uniform_sphere(d, gen)
    oracle = LabelingOracle(target, model, np.random.default_rng(seed + 1))
    return LabeledExampleSource(oracle), target


class TestLabeledExampleSource:
    def test_draw_counts_cover_rejections(self, rng):
        source, _ = make_source()
        band = Band(normal=sample_uniform_sphere(5, rng), lower=0.05, upper=0.15)
        x, y, pairs = source.draw_in_band(band, rng)
        assert pairs >= 1
        assert y in (-1, 1)
        assert band.lower <= float(x @ band.normal) <= band.upper
        assert source.oracle.queries == pairs

    def test_margin_distribution_matches_active_sampler(self, rng):
        # Accepted instances have the same conditional law as active-mode
        # band samples: compare the margin distributions.
        source, _ = make_source(seed=3)
        band = Band(normal=sample_uniform_sphere(5, rng), lower=0.05, upper=0.15)
        passive_margins = []
        for _ in range(2000):
            x, _, _ = source.draw_in_band(band, rng)
            passive_margins.append(float(x @ band.normal))
        active_margins = [
            float(geometry.rejection_sample_band(band, rng)[0] @ band.normal)
            for _ in range(2000)
        ]
        assert stats.ks_2samp(passive_margins, active_margins).pvalue > 0.01


class TestPassiveModPerceptron:
    def test_draws_at_least_m_and_counted(self, rng):
        source, _ = make_source(seed=5)
        w0 = sample_uniform_sphere(5, rng)
        m = 50
        w, drawn, _ = one_epoch(source.oracle, w0, m, 0.05, rng, charge_rejected=True)
        assert drawn >= m
        assert source.oracle.queries == drawn
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-9


def paired_runs(seed, d=10, eps=0.1, model=None):
    model = model or NoiseModel.realizable()
    gen = np.random.default_rng(seed)
    target = sample_uniform_sphere(d, gen)
    v0 = sample_uniform_sphere(d, gen)
    if float(v0 @ target) < 0:
        v0 = -v0
    sched = make_schedule(d, eps, 0.1, model)

    oracle_a = LabelingOracle(target, model, np.random.default_rng(seed + 1))
    active = active_perceptron(oracle_a, v0, sched, np.random.default_rng(seed + 2))
    oracle_p = LabelingOracle(target, model, np.random.default_rng(seed + 3))
    passive = active_perceptron(
        oracle_p, v0, sched, np.random.default_rng(seed + 4), charge_rejected=True
    )
    return active, passive


class TestPassivePerceptron:
    def test_single_epoch(self):
        active, passive = paired_runs(0, eps=0.5)
        assert len(passive.traces) == 1
        assert passive.total_labels == passive.total_unlabeled

    def test_draw_distributions_match(self):
        # Passive labeled-pair counts follow the active unlabeled-draw law.
        # paired_runs(s) seeds generators s..s+4, so a stride of 10 keeps
        # every run's generators apart from every other run's.
        seeds = range(0, 300, 10)
        pairs = [paired_runs(s) for s in seeds]
        active_draws = [a.total_unlabeled for a, _ in pairs]
        passive_draws = [p.total_labels for _, p in pairs]
        assert stats.ks_2samp(active_draws, passive_draws).pvalue > 0.05

    def test_accuracy_parity(self):
        # Same-seed passive runs succeed like their active counterparts.
        results = [paired_runs(s, d=5) for s in range(10)]
        active_ok = sum(a.succeeded for a, _ in results)
        passive_ok = sum(p.succeeded for _, p in results)
        assert active_ok >= 9
        assert passive_ok >= 9

    def test_epoch_label_counts_exceed_schedule(self):
        _, passive = paired_runs(2, eps=0.25)
        sched = make_schedule(10, 0.25, 0.1, NoiseModel.realizable())
        for trace, m in zip(passive.traces, sched.m):
            assert trace.labels >= m
            assert trace.unlabeled_draws == trace.labels

    def test_labeled_draws_scale_inverse_epsilon(self):
        # Bounded noise, d=10: labeled-draw cost grows like 1/eps.
        model = NoiseModel.bounded(0.2)
        eps_values = [0.2, 0.1, 0.05]
        medians = []
        for eps in eps_values:
            draws = []
            for seed in range(6):
                gen = np.random.default_rng(1000 + seed)
                target = sample_uniform_sphere(10, gen)
                v0 = sample_uniform_sphere(10, gen)
                if float(v0 @ target) < 0:
                    v0 = -v0
                sched = make_schedule(10, eps, 0.1, model)
                oracle = LabelingOracle(target, model, np.random.default_rng(2000 + seed))
                report = active_perceptron(
                    oracle, v0, sched, np.random.default_rng(3000 + seed), charge_rejected=True
                )
                draws.append(report.total_labels)
            medians.append(np.median(draws))
        slope = stats.linregress(np.log(eps_values), np.log(medians)).slope
        assert -1.3 <= slope <= -0.7
