import math

import numpy as np
import pytest
from scipy import special

from percband import geometry
from percband.geometry import DimensionMismatch, sample_uniform_sphere
from percband.oracles import LabelingOracle, NoiseModel, adversarial_threshold

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def make_oracle(model, d=10, seed=0, target=None):
    gen = np.random.default_rng(seed)
    if target is None:
        target = sample_uniform_sphere(d, gen)
    return LabelingOracle(target, model, gen)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.bounded(0.5)
        with pytest.raises(ValueError):
            NoiseModel.adversarial(1.5)
        with pytest.raises(ValueError):
            NoiseModel(kind="weird")

    @pytest.mark.parametrize("kind,param,level", [
        ("realizable", 0.3, "param"),
        ("bounded", 0.5, "eta"),
        ("bounded", -0.1, "eta"),
        ("bounded", math.nan, "eta"),
        ("adversarial", 1.5, "nu"),
        ("adversarial", math.nan, "nu"),
        ("adversarial", True, "nu"),
        ("bounded", "0.2", "eta"),
    ])
    def test_level_outside_its_kinds_range_is_refused(self, kind, param, level):
        # One level per kind, checked by name; a bool or a string is no level.
        with pytest.raises(ValueError, match=f"^{level} must"):
            NoiseModel(kind, param)

    def test_level_at_the_ends_of_its_range(self):
        assert NoiseModel("bounded", 0).zeta == 1.0
        assert NoiseModel("bounded", np.float64(0.49)).param == 0.49
        assert NoiseModel.adversarial(1.0).param == NoiseModel("adversarial", np.int64(1)).param
        assert NoiseModel.realizable() == NoiseModel("realizable", 0.0)

    def test_zeta(self):
        assert NoiseModel.realizable().zeta == 1.0
        assert NoiseModel.bounded(0.2).zeta == pytest.approx(0.6)
        assert NoiseModel.adversarial(0.05).zeta == 1.0


class TestRealizable:
    def test_sign_at_target(self):
        oracle = make_oracle(NoiseModel.realizable(), target=E1)
        assert oracle.query(E1) == 1
        assert oracle.query(-E1) == -1

    def test_sign_zero_is_positive(self):
        oracle = make_oracle(NoiseModel.realizable(), target=E1)
        assert oracle.query(E2) == 1

    def test_deterministic_repeats(self, rng):
        oracle = make_oracle(NoiseModel.realizable(), d=5, seed=3)
        x = sample_uniform_sphere(5, rng)
        assert len({oracle.query(x) for _ in range(20)}) == 1


class TestBounded:
    def test_flip_rate_at_fixed_point(self):
        eta = 0.3
        oracle = make_oracle(NoiseModel.bounded(eta), target=E1)
        n = 100_000
        pts = np.tile(E1, (n, 1))
        labels = oracle.query_batch(pts)
        rate = np.mean(labels == -1)
        assert abs(rate - eta) <= 3.0 * math.sqrt(eta * (1 - eta) / n)

    def test_per_point_rate_never_exceeds_eta(self):
        eta = 0.25
        d = 8
        oracle = make_oracle(NoiseModel.bounded(eta), d=d, seed=7)
        gen = np.random.default_rng(11)
        n = 10_000
        for _ in range(100):
            x = sample_uniform_sphere(d, gen)
            labels = oracle.query_batch(np.tile(x, (n, 1)))
            clean = 1 if float(x @ oracle.target) >= 0 else -1
            rate = np.mean(labels != clean)
            assert rate <= eta + 3.0 * math.sqrt(eta * (1 - eta) / n)


class TestAdversarial:
    def test_threshold_inverts_band_mass(self):
        for d, nu in [(10, 0.05), (3, 0.2), (50, 0.001)]:
            tau = adversarial_threshold(d, nu)
            assert 2.0 * geometry.band_mass(d, 0.0, tau) == pytest.approx(nu, abs=1e-10)
        assert adversarial_threshold(10, 0.0) == 0.0
        assert adversarial_threshold(10, 1.0) == 1.0

    @pytest.mark.parametrize("d", [3, 4, 10, 11, 1000])
    def test_threshold_to_1e12_and_monotone(self, d):
        nus = [1e-6, 0.005, 0.05, 0.3, 0.9, 0.999]
        for nu in nus:
            tau = adversarial_threshold(d, nu)
            exact = math.sqrt(special.betaincinv(0.5, (d - 1) / 2.0, nu))
            assert tau == pytest.approx(exact, abs=1e-12)
            assert 2.0 * geometry.band_mass(d, 0.0, tau) == pytest.approx(nu, abs=1e-12)
        taus = [adversarial_threshold(d, nu) for nu in np.linspace(0.001, 0.999, 40)]
        assert np.all(np.diff(taus) > 0.0)

    def test_total_disagreement_equals_nu(self, rng):
        d, nu = 10, 0.05
        oracle = make_oracle(NoiseModel.adversarial(nu), d=d, seed=1)
        n = 1_000_000
        pts = sample_uniform_sphere(d, rng, n=n)
        labels = oracle.query_batch(pts)
        clean = np.where(pts @ oracle.target >= 0, 1, -1)
        rate = np.mean(labels != clean)
        assert abs(rate - nu) <= 3.0 * math.sqrt(nu * (1 - nu) / n)

    def test_deterministic_label_function(self, rng):
        oracle = make_oracle(NoiseModel.adversarial(0.1), d=5, seed=4)
        x = sample_uniform_sphere(5, rng)
        assert len({oracle.query(x) for _ in range(20)}) == 1

    def test_zero_nu_is_noiseless(self, rng):
        oracle = make_oracle(NoiseModel.adversarial(0.0), d=5, seed=4)
        pts = sample_uniform_sphere(5, rng, n=1000)
        labels = oracle.query_batch(pts)
        assert np.array_equal(labels, np.where(pts @ oracle.target >= 0, 1, -1))


class TestQueryCounting:
    def test_fresh_oracle(self):
        assert make_oracle(NoiseModel.realizable()).queries == 0

    def test_counts_each_query(self, rng):
        oracle = make_oracle(NoiseModel.bounded(0.1), d=5, seed=9)
        for _ in range(7):
            oracle.query(sample_uniform_sphere(5, rng))
        assert oracle.queries == 7

    def test_batch_counts(self, rng):
        oracle = make_oracle(NoiseModel.realizable(), d=5, seed=9)
        oracle.query_batch(sample_uniform_sphere(5, rng, n=13))
        assert oracle.queries == 13

    def test_charge_queries(self):
        oracle = make_oracle(NoiseModel.realizable())
        oracle.charge_queries(5)
        assert oracle.queries == 5
        with pytest.raises(ValueError):
            oracle.charge_queries(-1)


class TestValidation:
    def test_non_unit_query_rejected(self):
        oracle = make_oracle(NoiseModel.realizable(), target=E1)
        with pytest.raises(ValueError):
            oracle.query([0.5, 0.0, 0.0])

    def test_dimension_mismatch(self):
        oracle = make_oracle(NoiseModel.realizable(), target=E1)
        with pytest.raises(DimensionMismatch):
            oracle.query([1.0, 0.0, 0.0, 0.0])
