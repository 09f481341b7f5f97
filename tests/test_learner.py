import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percband import geometry
from percband.geometry import DimensionMismatch, sample_uniform_sphere
from percband.learner import (
    MIN_BAND_MASS,
    THEORY_SCALE_B,
    THEORY_SCALE_M,
    Schedule,
    active_perceptron,
    make_schedule,
    mod_perceptron_params,
)
from percband.oracles import LabelingOracle, NoiseModel

from conftest import one_epoch, unit
from reference import modified_perceptron_step


class TestModifiedPerceptronStep:
    def test_zero_margin_is_agreement(self):
        # y (w . x) = 0 must not fire the update: the indicator is strict.
        w = np.array([1.0, 0.0, 0.0])
        x = np.array([0.0, 1.0, 0.0])
        out = modified_perceptron_step(w, x, -1)
        assert np.array_equal(out, w)

    def test_full_reflection(self):
        w = np.array([1.0, 0.0, 0.0])
        out = modified_perceptron_step(w, w, -1)
        assert np.allclose(out, -w)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_agreement_leaves_w(self, rng):
        w = sample_uniform_sphere(5, rng)
        x = sample_uniform_sphere(5, rng)
        y = 1 if float(w @ x) >= 0 else -1
        assert np.array_equal(modified_perceptron_step(w, x, y), w)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_progress_identity_and_norm(self, seed):
        gen = np.random.default_rng(seed)
        w = sample_uniform_sphere(5, gen)
        x = sample_uniform_sphere(5, gen)
        u = sample_uniform_sphere(5, gen)
        y = -1 if float(w @ x) > 0 else 1  # force a flip
        out = modified_perceptron_step(w, x, y)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
        delta = float(u @ out) - float(u @ w)
        assert abs(delta + 2.0 * float(w @ x) * float(u @ x)) <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_clean_flip_strictly_improves(self, seed):
        # With the true label y = sign(u . x), a fired update has
        # (w . x)(u . x) < 0, so cos(angle to u) strictly increases.
        gen = np.random.default_rng(seed)
        u = sample_uniform_sphere(4, gen)
        w = sample_uniform_sphere(4, gen)
        x = sample_uniform_sphere(4, gen)
        y = 1 if float(u @ x) >= 0 else -1
        fired = y * float(w @ x) < 0
        out = modified_perceptron_step(w, x, y)
        if fired:
            assert float(w @ x) * float(u @ x) < 0
            assert float(u @ out) > float(u @ w)
        else:
            assert np.array_equal(out, w)

    def test_invalid_label(self, rng):
        w = sample_uniform_sphere(3, rng)
        with pytest.raises(ValueError):
            modified_perceptron_step(w, w, 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            modified_perceptron_step(sample_uniform_sphere(3, rng), sample_uniform_sphere(4, rng), 1)


class TestSchedule:
    def test_epsilon_half_gives_one_epoch(self):
        sched = make_schedule(10, 0.5, 0.1, NoiseModel.realizable())
        assert sched.epochs == 1

    def test_epoch_counts(self):
        for eps, k0 in [(0.25, 2), (0.1, 4), (0.05, 5), (0.025, 6)]:
            assert make_schedule(10, eps, 0.1, NoiseModel.realizable()).epochs == k0

    def test_theory_constants_are_impractical(self):
        # With the proof constants the first epoch alone needs ~3.6e14 labels.
        sched = make_schedule(
            10, 0.5, 0.1, NoiseModel.realizable(),
            scale_m=THEORY_SCALE_M, scale_b=THEORY_SCALE_B,
        )
        base = THEORY_SCALE_M * 10.0
        expected = math.ceil(base * (math.log(base) + math.log(2 / 0.1)))
        assert sched.m[0] == expected
        assert sched.m[0] > 1e14

    def test_band_width_ratio(self):
        # b_k / b_{k+1} = 2 ln(m_{k+1}^2 (k+1)(k+2) / delta) / ln(m_k^2 k(k+1) / delta)
        d, delta = 10, 0.1
        sched = make_schedule(d, 0.05, delta, NoiseModel.bounded(0.2), scale_m=4, scale_b=0.25)
        for k in range(1, sched.epochs):
            lhs = sched.b[k - 1] / sched.b[k]
            num = math.log(sched.m[k] ** 2 * (k + 1) * (k + 2) / delta)
            den = math.log(sched.m[k - 1] ** 2 * k * (k + 1) / delta)
            assert lhs == pytest.approx(2.0 * num / den, rel=1e-12)

    def test_band_width_cap(self):
        d = 10
        sched = make_schedule(d, 0.5, 0.1, NoiseModel.realizable(), scale_b=50.0)
        assert sched.b[0] == pytest.approx(1.0 / (10.0 * math.sqrt(d)))

    def test_zeta_enters_schedule(self):
        clean = make_schedule(10, 0.1, 0.1, NoiseModel.realizable())
        noisy = make_schedule(10, 0.1, 0.1, NoiseModel.bounded(0.3))
        assert all(mn > mc for mn, mc in zip(noisy.m, clean.m))
        assert all(bn < bc for bn, bc in zip(noisy.b, clean.b))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_schedule(10, 1.5, 0.1, NoiseModel.realizable())
        with pytest.raises(ValueError):
            make_schedule(10, 0.1, 0.0, NoiseModel.realizable())
        with pytest.raises(ValueError):
            mod_perceptron_params(10, math.pi / 2, 0.1, 1.0, scale_m=-1.0)
        with pytest.raises(ValueError):
            Schedule(d=10, epsilon=0.1, m=(5,), b=(0.1, 0.2))
        with pytest.raises(ValueError):
            Schedule(d=10, epsilon=0.1, m=(0,), b=(0.1,))

    @pytest.mark.parametrize("m,b", [([5], [0.1]), (5, 0.1), (None, (0.1,)), ((5,), "0.1")])
    def test_arrays_that_are_not_tuples_refused(self, m, b):
        # Lists would leave the frozen schedule unhashable, and a number
        # would fail in len() with a bare TypeError.
        with pytest.raises(ValueError, match="m and b must be tuples"):
            Schedule(d=10, epsilon=0.3, m=m, b=b)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "3", None])
    def test_non_integer_iteration_count_refused(self, m):
        # Refused when the schedule is built, not inside range() in the run.
        with pytest.raises(ValueError, match="every m_k must be an integer"):
            Schedule(d=10, epsilon=0.3, m=(5, m), b=(0.1, 0.05))

    def test_numpy_integer_iteration_count_accepted(self):
        assert Schedule(d=10, epsilon=0.3, m=(np.int64(5),), b=(0.1,)).epochs == 1

    @pytest.mark.parametrize("d", [2, 10.5, True, None])
    def test_bad_dimension_refused(self, d):
        with pytest.raises(DimensionMismatch, match="dimension d must be"):
            Schedule(d=d, epsilon=0.3, m=(5,), b=(0.1,))

    @pytest.mark.parametrize("b", [True, "0.1", None])
    def test_non_number_band_width_refused(self, b):
        with pytest.raises(ValueError, match="every b_k must be a real number"):
            Schedule(d=10, epsilon=0.3, m=(5, 5), b=(0.1, b))

    @pytest.mark.parametrize("epsilon", ["0.1", True, None])
    def test_non_number_epsilon_refused(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be a real number"):
            Schedule(d=10, epsilon=epsilon, m=(5,), b=(0.1,))

    def test_band_masses_are_in_the_schedules_dimension(self):
        sched = make_schedule(100, 0.05, 0.1, NoiseModel.realizable())
        assert sched.d == 100
        assert sched.band_masses() == tuple(geometry.band_mass(100, b / 2.0, b) for b in sched.b)

    def test_make_schedule_refuses_a_non_model(self):
        with pytest.raises(ValueError, match="^model must be a NoiseModel"):
            make_schedule(10, 0.1, 0.1, "bounded:0.2")

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_epsilon_outside_unit_interval_refused(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            Schedule(d=10, epsilon=epsilon, m=(5,), b=(0.1,))

    def test_epsilon_floor(self):
        # The band-mass floor is the only limit on epsilon: at d = 10 the
        # default constants clear it at 1e-9 and not at 1e-10.
        assert make_schedule(10, 1e-7, 0.1, NoiseModel.realizable()).epochs == 24
        make_schedule(10, 1e-9, 0.1, NoiseModel.realizable()).band_masses()
        with pytest.raises(ValueError, match="below the floor"):
            make_schedule(10, 1e-10, 0.1, NoiseModel.realizable()).band_masses()
        # An epsilon too small for the angles pi / 2^k to stay normal floats
        # is refused by the schedule it would build, not by an overflow.
        with pytest.raises(ValueError, match="b_k"):
            make_schedule(10, 5e-324, 0.1, NoiseModel.realizable())

    def test_records_epsilon(self):
        assert make_schedule(10, 0.05, 0.1, NoiseModel.realizable()).epsilon == 0.05

    @pytest.mark.parametrize("model", [NoiseModel.realizable(), NoiseModel.bounded(0.49)],
                             ids=lambda m: m.kind)
    def test_default_constants_clear_the_band_mass_floor(self, model):
        for d in (3, 10, 100, 1000, 10000):
            for epsilon in (1e-3, 1e-7):
                sched = make_schedule(d, epsilon, 0.1, model)
                assert min(geometry.band_mass(d, b / 2.0, b) for b in sched.b) >= MIN_BAND_MASS

    def test_band_below_the_mass_floor_is_refused(self):
        # The proof's band constant at d = 100 reaches masses near 2e-16,
        # where a chunk of geometric draw counts would overflow int64.
        # Building the schedule computes no band mass; the check does.
        sched = make_schedule(100, 1e-7, 0.1, NoiseModel.realizable(), scale_b=THEORY_SCALE_B)
        with pytest.raises(ValueError, match="below the floor"):
            sched.band_masses()
        make_schedule(100, 1e-7, 0.1, NoiseModel.realizable()).band_masses()

    def test_degenerate_iteration_counts_are_refused(self):
        with pytest.raises(ValueError, match="scale_m = 1e-300"):
            mod_perceptron_params(10, math.pi / 2, 0.1, 1.0, scale_m=1e-300)
        with pytest.raises(ValueError, match="overflows"):
            mod_perceptron_params(10, math.pi / 2, 1e-320, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            mod_perceptron_params(10**400, math.pi / 2, 0.1, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            mod_perceptron_params(int(1e300), math.pi / 2, 0.1, 1.0)

    @pytest.mark.parametrize("d", [10.5, 10.0, True, "10"])
    def test_non_integer_dimension_is_refused(self, d):
        # A stage, such as (254, 0.0115) at 10.5, has no meaning off the integers.
        with pytest.raises(DimensionMismatch, match="dimension d must be an integer"):
            mod_perceptron_params(d, 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("zeta", [5e-324, 1e-310, 1e-160])
    def test_tiny_noise_factor_is_refused(self, zeta):
        # zeta^2 rounded to 0 raised a bare ZeroDivisionError.
        with pytest.raises(ValueError, match="m overflows: .*1 / zeta"):
            mod_perceptron_params(10, 1.0, 0.1, zeta)

    @pytest.mark.parametrize("theta,zeta,name", [
        ("1", 1.0, "theta"), (None, 1.0, "theta"), (1.0, True, "zeta"), (1.0, "1", "zeta"),
    ])
    def test_angle_and_noise_factor_must_be_real_numbers(self, theta, zeta, name):
        # A string raised a bare TypeError, and zeta = True ran as 1.
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            mod_perceptron_params(10, theta, 0.1, zeta)

    @pytest.mark.parametrize("d", [0, -3, 2])
    def test_dimension_below_three_is_refused(self, d):
        # It used to fail on log(base) with "math domain error", or at d = 2
        # return a stage the band masses cannot serve.
        with pytest.raises(DimensionMismatch):
            mod_perceptron_params(d, math.pi / 2, 0.1, 1.0)
        with pytest.raises(DimensionMismatch):
            make_schedule(d, 0.1, 0.1, NoiseModel.realizable())


def run_stage(model, seed, theta0=math.pi / 4, d=5, delta=0.1):
    gen = np.random.default_rng(seed)
    u = geometry.sample_uniform_sphere(d, gen)
    q = gen.standard_normal(d)
    q -= (q @ u) * u
    q /= np.linalg.norm(q)
    w0 = unit(math.cos(theta0) * u + math.sin(theta0) * q)
    m, b = mod_perceptron_params(d, theta0, delta, model.zeta)
    oracle = LabelingOracle(u, model, np.random.default_rng(seed + 10_000))
    w, labels, draws = one_epoch(oracle, w0, m, b, np.random.default_rng(seed + 20_000))
    assert labels == m
    assert oracle.queries == m
    return geometry.angle(w, u)


class TestModPerceptron:
    def test_band_below_the_mass_floor_is_refused(self, rng):
        # Its draw counts would wrap in int64 instead of being returned.
        oracle = LabelingOracle(sample_uniform_sphere(5, rng), NoiseModel.realizable(), rng)
        w0 = sample_uniform_sphere(5, rng)
        with pytest.raises(ValueError, match="below the floor"):
            one_epoch(oracle, w0, 1, 1e-300, rng)
        assert oracle.queries == 0

    def test_thin_late_band_is_refused_before_any_draw(self, rng):
        # Every band is checked before the first epoch runs: the refusal
        # charges no label and moves neither generator.
        oracle = LabelingOracle(sample_uniform_sphere(5, rng), NoiseModel.bounded(0.2),
                                np.random.default_rng(1))
        w0, sampler = sample_uniform_sphere(5, rng), np.random.default_rng(2)
        states = (oracle.rng.bit_generator.state, sampler.bit_generator.state)
        with pytest.raises(ValueError, match="below the floor"):
            active_perceptron(oracle, w0, Schedule(5, 0.5, (50, 50), (0.1, 1e-300)), sampler)
        assert oracle.queries == 0
        assert (oracle.rng.bit_generator.state, sampler.bit_generator.state) == states

    def test_schedule_of_another_dimension_is_refused_before_any_draw(self, rng):
        # A d = 10 schedule on a d = 100 oracle would charge the d = 10
        # label count and fail without an error.
        oracle = LabelingOracle(sample_uniform_sphere(100, rng), NoiseModel.bounded(0.2),
                                np.random.default_rng(1))
        w0, sampler = sample_uniform_sphere(100, rng), np.random.default_rng(2)
        states = (oracle.rng.bit_generator.state, sampler.bit_generator.state)
        schedule = make_schedule(10, 0.1, 0.1, oracle.model)
        with pytest.raises(DimensionMismatch, match="schedule is for d = 10, the run is in d = 100"):
            active_perceptron(oracle, w0, schedule, sampler)
        assert oracle.queries == 0
        assert (oracle.rng.bit_generator.state, sampler.bit_generator.state) == states

    def test_schedule_that_is_not_a_schedule_is_refused_before_any_draw(self, rng):
        # It raised an AttributeError from schedule.d.
        oracle = LabelingOracle(sample_uniform_sphere(5, rng), NoiseModel.realizable(), np.random.default_rng(1))
        sampler = np.random.default_rng(2)
        state = sampler.bit_generator.state
        with pytest.raises(ValueError, match="^schedule must be a Schedule"):
            active_perceptron(oracle, sample_uniform_sphere(5, rng), "sched", sampler)
        assert oracle.queries == 0
        assert sampler.bit_generator.state == state

    def test_median_halving_realizable(self):
        angles = [run_stage(NoiseModel.realizable(), s) for s in range(50)]
        assert np.median(angles) <= math.pi / 8

    def test_median_halving_bounded(self):
        angles = [run_stage(NoiseModel.bounded(0.2), s) for s in range(50)]
        assert np.median(angles) <= math.pi / 8


def build_run(seed, d=10, eps=0.05, model=None, delta=0.1):
    model = model or NoiseModel.realizable()
    gen = np.random.default_rng(seed)
    u = geometry.sample_uniform_sphere(d, gen)
    v0 = geometry.sample_uniform_sphere(d, gen)
    if float(v0 @ u) < 0:
        v0 = -v0
    oracle = LabelingOracle(u, model, np.random.default_rng(seed + 1))
    sched = make_schedule(d, eps, delta, model)
    report = active_perceptron(oracle, v0, sched, np.random.default_rng(seed + 2))
    return report, oracle, sched, u


class TestActivePerceptron:
    def test_single_epoch_reduction(self):
        report, oracle, sched, _ = build_run(0, eps=0.5)
        assert sched.epochs == 1
        assert len(report.traces) == 1
        assert report.total_labels == sched.m[0]

    def test_label_accounting(self):
        report, oracle, sched, _ = build_run(1)
        assert report.total_labels == sum(sched.m)
        assert oracle.queries == report.total_labels
        assert report.total_labels == sum(t.labels for t in report.traces)
        assert report.total_unlabeled == sum(t.unlabeled_draws for t in report.traces)

    def test_final_is_unit(self):
        report, *_ = build_run(2)
        assert abs(np.linalg.norm(report.final) - 1.0) <= 1e-9

    def test_deterministic_reports(self):
        r1, *_ = build_run(3)
        r2, *_ = build_run(3)
        assert np.array_equal(r1.final, r2.final)
        assert r1.traces == r2.traces
        assert r1.succeeded == r2.succeeded

    def test_angle_trace_monotonicity_in_expectation(self):
        # Not a strict invariant, but the realizable epochs should shrink the
        # angle overall from start to finish.
        report, *_ = build_run(4)
        assert report.traces[-1].theta_after < report.traces[0].theta_before

    @given(
        d=st.integers(3, 12),
        model=st.sampled_from((
            NoiseModel.realizable(),
            NoiseModel.bounded(0.2),
            NoiseModel.adversarial(0.05),
        )),
        passive=st.booleans(),
        epsilon=st.floats(0.2, 0.5),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_run_record_is_consistent(self, d, model, passive, epsilon, seed):
        gen = np.random.default_rng(seed)
        u = sample_uniform_sphere(d, gen)
        v0 = sample_uniform_sphere(d, gen)
        oracle = LabelingOracle(u, model, np.random.default_rng(seed + 1))
        queries = oracle.queries
        report = active_perceptron(
            oracle, v0, make_schedule(d, epsilon, 0.1, model),
            np.random.default_rng(seed + 2), charge_rejected=passive,
        )
        assert report.total_labels == oracle.queries - queries
        assert report.total_unlabeled >= report.total_labels
        if passive:
            assert report.total_unlabeled == report.total_labels
        assert abs(np.linalg.norm(report.final) - 1.0) <= 1e-12
        # Every angle is read off the chain, which holds the vectors' angles
        # up to rounding.
        assert math.isclose(report.traces[0].theta_before, geometry.angle(v0, u), rel_tol=1e-12)
        for before, after in zip(report.traces, report.traces[1:]):
            assert after.theta_before == before.theta_after
        final_angle = report.traces[-1].theta_after
        assert math.isclose(final_angle, geometry.angle(report.final, u), rel_tol=1e-12)
        assert report.succeeded == (final_angle <= math.pi * epsilon)

    def test_nan_start_is_refused(self):
        # Before any draw: the run would report NaN angles and failure.
        oracle = LabelingOracle(unit([1.0, 0.0, 0.0]), NoiseModel.realizable(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="v0 must have unit norm"):
            active_perceptron(oracle, np.full(3, math.nan), Schedule(3, 0.5, (5,), (0.1,)),
                              np.random.default_rng(1))
        assert oracle.queries == 0

    def test_succeeded_flag(self):
        report, _, _, u = build_run(5)
        expected = geometry.angle(report.final, u) <= math.pi * 0.05
        assert type(report.succeeded) is bool
        assert report.succeeded == expected
