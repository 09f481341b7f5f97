import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from percband import geometry, initialization
from percband.initialization import (
    acute_initialize,
    hypothesis_test_size,
    _sample_disagreement_region,
)
from percband.oracles import LabelingOracle, NoiseModel

from conftest import planted_pair, traced_peak_bytes, unit


# The draw-and-discard loop that _sample_disagreement_region reduces, kept
# verbatim as the reference for its law.
_TEST_CHUNK = 8192


def literal_disagreement_region(v_pos, v_neg, n, rng):
    """Rejection-sample n sphere points where the two hypotheses disagree."""
    d = v_pos.shape[0]
    out = np.empty((n, d))
    filled = 0
    used = 0
    take = min(_TEST_CHUNK, geometry.chunk_rows(d))
    while filled < n:
        pts = geometry.sample_uniform_sphere(d, rng, n=take)
        hits = np.flatnonzero((pts @ v_pos >= 0.0) != (pts @ v_neg >= 0.0))[: n - filled]
        out[filled : filled + hits.size] = pts[hits]
        filled += hits.size
        # Count only draws up to and including the n-th accepted point.
        used += take if filled < n else int(hits[-1]) + 1
    return out, used


def in_wedges(pts, v_pos, v_neg, theta, tol=1e-12):
    """Whether each point's in-plane angle phi, in the orthonormal basis
    (v_pos, u2) of span(v_pos, v_neg), lies in [pi/2, pi/2 + theta] or in the
    opposite wedge, within tol radians."""
    u2 = v_neg - (v_neg @ v_pos) * v_pos
    u2 -= (u2 @ v_pos) * v_pos
    u2 /= np.linalg.norm(u2)
    phi = np.arctan2(pts @ u2, pts @ v_pos)
    offset = np.mod(phi - math.pi / 2, math.pi)
    offset = np.where(offset > math.pi - tol, offset - math.pi, offset)
    return (offset >= -tol) & (offset <= theta + tol)


def init_trial(model, d=5, seed=0, delta=0.1, target=None):
    ss = np.random.SeedSequence((7, seed))
    r_plant, r_oracle, r_samp = [np.random.default_rng(s) for s in ss.spawn(3)]
    if target is None:
        target = geometry.sample_uniform_sphere(d, r_plant)
    oracle = LabelingOracle(target, model, r_oracle)
    result = acute_initialize(oracle, delta, r_samp)
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
        target = unit(-e1 + 0.05 * gen.standard_normal(d))
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

    def test_schedule_of_another_dimension_is_refused_before_any_draw(self, rng):
        oracle = LabelingOracle(geometry.sample_uniform_sphere(8, rng), NoiseModel.realizable(),
                                np.random.default_rng(1))
        sampler = np.random.default_rng(2)
        states = (oracle.rng.bit_generator.state, sampler.bit_generator.state)
        schedule = initialization.branch_schedule(5, oracle.model, 0.1)
        with pytest.raises(geometry.DimensionMismatch, match="schedule is for d = 5, the run is in d = 8"):
            acute_initialize(oracle, 0.1, sampler, schedule=schedule)
        assert oracle.queries == 0
        assert (oracle.rng.bit_generator.state, sampler.bit_generator.state) == states

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_delta_outside_unit_interval_refused(self, rng, delta):
        oracle = LabelingOracle(
            geometry.sample_uniform_sphere(5, rng), NoiseModel.realizable(), rng
        )
        with pytest.raises(ValueError, match="delta"):
            acute_initialize(oracle, delta, rng)
        assert oracle.queries == 0

    @pytest.mark.parametrize("delta", [1.5, 7.0, 0.0])
    def test_delta_refused_with_a_schedule(self, rng, delta):
        oracle = LabelingOracle(
            geometry.sample_uniform_sphere(5, rng), NoiseModel.realizable(), rng
        )
        schedule = initialization.branch_schedule(5, oracle.model, 0.1)
        with pytest.raises(ValueError, match="delta"):
            acute_initialize(oracle, delta, rng, schedule=schedule)
        assert oracle.queries == 0

    def test_branch_runs_record_angles_and_success(self):
        model = NoiseModel.bounded(0.2)
        result, target, _ = init_trial(model, seed=6)
        for run in (result.positive_run, result.negative_run):
            assert all(math.isfinite(t.theta_before) and math.isfinite(t.theta_after)
                       for t in run.traces)
            assert type(run.succeeded) is bool
            assert run.succeeded == (geometry.angle(run.final, target) <= math.pi * model.zeta / 16)

    @pytest.mark.parametrize("theta, tested", [(1e-9, True), (0.0, False), (math.pi, False)])
    def test_degenerate_only_when_branches_are_parallel(self, monkeypatch, theta, tested):
        # At theta = 1e-9, acos(v_pos . v_neg) would read 0; the sine read
        # from v_neg's orthogonal part sees the pair as separated and runs
        # the test. (Anti)parallel outputs skip it.
        v_pos, v_neg = planted_pair(10, 1e-9)
        if not tested:
            v_neg = v_pos if theta == 0.0 else -v_pos
        finals = iter([v_pos, v_neg])
        monkeypatch.setattr(
            initialization,
            "active_perceptron",
            lambda *args: SimpleNamespace(final=next(finals), total_labels=0, total_unlabeled=0),
        )
        rng = np.random.default_rng(0)
        oracle = LabelingOracle(v_pos, NoiseModel.realizable(), rng)
        result = acute_initialize(oracle, 0.1, rng)
        assert (result.test_size > 0) == tested
        assert oracle.queries == result.test_size


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
        # d=2000: the 50 points are 0.8 MB, and the sampler holds a few
        # arrays of that size, far below 8 CHUNK_BYTES.
        v_pos, v_neg = planted_pair(2000, math.pi / 2, seed=2)
        (pts, used), peak = traced_peak_bytes(
            lambda: _sample_disagreement_region(v_pos, v_neg, 50, rng)
        )
        assert pts.shape == (50, 2000) and used >= 50
        assert np.all((pts @ v_pos >= 0.0) != (pts @ v_neg >= 0.0))
        assert peak < 8 * geometry.CHUNK_BYTES

    @pytest.mark.parametrize("theta", [1e-9, 1e-7])
    def test_nearly_parallel_pair_is_cheap(self, theta):
        # The discarding loop would draw about n pi / theta points, over
        # 1e11 at theta = 1e-9; the reduction costs O(n d) at any angle, and
        # theta is read from v_neg's part orthogonal to v_pos, where acos of
        # the dot product would read 0.
        d, n = 10, 33
        v_pos, v_neg = planted_pair(d, theta, seed=3)
        start = time.perf_counter()
        pts, used = _sample_disagreement_region(v_pos, v_neg, n, np.random.default_rng(4))
        assert time.perf_counter() - start < 1.0
        p = theta / math.pi
        mean, sd = n / p, math.sqrt(n * (1.0 - p)) / p
        assert abs(used - mean) <= 6.0 * sd
        assert np.all((pts @ v_pos >= 0.0) != (pts @ v_neg >= 0.0))

    @pytest.mark.parametrize("d, theta", [(3, 0.3), (10, 0.05), (40, 1.2)])
    def test_law_matches_literal_loop(self, d, theta):
        # x . v_pos reads the in-plane angle and radius, x . q for a fixed q
        # with a part orthogonal to the span reads the rest of the point.
        v_pos, v_neg = planted_pair(d, theta, seed=d)
        q = geometry.sample_uniform_sphere(d, np.random.default_rng(5))
        reduced, literal = ([], [], []), ([], [], [])
        for seed in range(1500):
            for sampler, cols, stream in ((_sample_disagreement_region, reduced, 1),
                                          (literal_disagreement_region, literal, 2)):
                pts, used = sampler(v_pos, v_neg, 20, np.random.default_rng([seed, stream]))
                cols[0].append(pts @ v_pos)
                cols[1].append(pts @ q)
                cols[2].append([used])
        for a, b in zip(reduced, literal):
            assert stats.ks_2samp(np.concatenate(a), np.concatenate(b)).pvalue > 0.01

    @given(
        d=st.integers(3, 300),
        theta=st.floats(1e-9, math.pi - 1e-9),
        n=st.integers(1, 200),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_output_invariants(self, d, theta, n, seed):
        v_pos, v_neg = planted_pair(d, theta, seed=seed)
        pts, used = _sample_disagreement_region(v_pos, v_neg, n, np.random.default_rng(seed))
        assert pts.shape == (n, d)
        assert np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-9)
        assert used >= n
        assert np.all(in_wedges(pts, v_pos, v_neg, theta))
