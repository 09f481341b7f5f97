import math

import numpy as np
import pytest

from percband import geometry
from percband.initialization import (
    InitConfig,
    acute_initialize,
    hypothesis_test_size,
    _sample_disagreement_region,
)
from percband.oracles import LabelingOracle, NoiseModel

from conftest import planted_pair, traced_peak_bytes


def init_trial(model, d=5, seed=0, delta=0.1, target=None):
    ss = np.random.SeedSequence((7, seed))
    r_plant, r_oracle, r_samp = [np.random.default_rng(s) for s in ss.spawn(3)]
    if target is None:
        target = geometry.sample_uniform_sphere(d, r_plant)
    oracle = LabelingOracle(target, model, r_oracle)
    result = acute_initialize(oracle, d, InitConfig(model=model, delta=delta), r_samp)
    return result, target, oracle


class TestHypothesisTestSize:
    def test_realizable_formula(self):
        # ceil(8 ln 60) = 33 at eta=0, delta=0.1.
        assert hypothesis_test_size(NoiseModel.realizable(), 0.1) == 33

    def test_bounded_formula(self):
        expected = math.ceil(8.0 / 0.6**2 * math.log(6.0 / 0.1))
        assert hypothesis_test_size(NoiseModel.bounded(0.2), 0.1) == expected

    def test_adversarial_matches_realizable(self):
        assert hypothesis_test_size(NoiseModel.adversarial(0.01), 0.1) == 33


class TestAcuteInitialize:
    def test_returns_branch_output(self):
        result, _, _ = init_trial(NoiseModel.realizable(), seed=1)
        assert np.array_equal(result.vector, result.positive_run.final) or np.array_equal(
            result.vector, result.negative_run.final
        )

    def test_target_on_first_axis(self):
        d = 5
        e1 = np.zeros(d)
        e1[0] = 1.0
        result, _, _ = init_trial(NoiseModel.realizable(), d=d, seed=2, target=e1)
        assert geometry.angle(result.vector, e1) <= math.pi / 4
        assert result.err_positive <= result.err_negative

    def test_realizable_acuteness(self):
        hits = 0
        for seed in range(10):
            result, target, _ = init_trial(NoiseModel.realizable(), seed=seed)
            hits += geometry.angle(result.vector, target) <= math.pi / 4
        assert hits >= 9

    def test_adversarially_planted_target(self):
        # Target near the negation of the fixed start direction.
        d = 5
        gen = np.random.default_rng(3)
        e1 = np.zeros(d)
        e1[0] = 1.0
        target = geometry.normalize(-e1 + 0.05 * gen.standard_normal(d))
        result, _, _ = init_trial(NoiseModel.realizable(), d=d, seed=4, target=target)
        assert geometry.angle(result.vector, target) <= math.pi / 4

    def test_accounting(self):
        result, _, oracle = init_trial(NoiseModel.realizable(), seed=5)
        expected_labels = (
            result.positive_run.total_labels
            + result.negative_run.total_labels
            + result.test_size
        )
        assert result.total_labels == expected_labels
        assert oracle.queries == expected_labels
        assert result.test_size == 33

    def test_dimension_mismatch(self, rng):
        oracle = LabelingOracle(
            geometry.sample_uniform_sphere(5, rng), NoiseModel.realizable(), rng
        )
        with pytest.raises(geometry.DimensionMismatch):
            acute_initialize(oracle, 6, InitConfig(model=NoiseModel.realizable(), delta=0.1), rng)


class TestDisagreementRegionSampling:
    def test_points_disagree(self, rng):
        v1 = geometry.sample_uniform_sphere(6, rng)
        v2 = geometry.sample_uniform_sphere(6, rng)
        pts, used = _sample_disagreement_region(v1, v2, 200, rng)
        assert pts.shape == (200, 6)
        assert used >= 200
        signs1 = pts @ v1 >= 0
        signs2 = pts @ v2 >= 0
        assert np.all(signs1 != signs2)

    def test_draw_count_tracks_mass(self, rng):
        # Disagreement mass ~ angle/pi; draws per accepted point ~ pi/angle.
        u, w = np.zeros(5), np.zeros(5)
        u[0] = 1.0
        w[0], w[1] = math.cos(0.2), math.sin(0.2)
        n = 500
        _, used = _sample_disagreement_region(u, w, n, rng)
        expected = n / geometry.disagreement_mass(u, w)
        assert 0.5 * expected <= used <= 2.0 * expected

    def test_memory_is_bounded_in_high_dimension(self, rng):
        # d=2000: a chunk of 8192 rows would be 125 MiB; chunks are capped at
        # CHUNK_BYTES of sphere points.
        v_pos, v_neg = planted_pair(2000, math.pi / 2, seed=2)
        (pts, used), peak = traced_peak_bytes(
            lambda: _sample_disagreement_region(v_pos, v_neg, 50, rng)
        )
        assert pts.shape == (50, 2000) and used >= 50
        assert np.all((pts @ v_pos >= 0.0) != (pts @ v_neg >= 0.0))
        assert peak < 8 * geometry.CHUNK_BYTES
