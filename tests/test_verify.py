import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from percband import bench, geometry, verify
from percband.learner import mod_perceptron_params
from percband.oracles import NoiseModel
from percband.verify import (
    all_passed,
    check_band_mass_bound,
    check_conditional_moments,
    check_error_angle_relation,
    check_progress_measure,
    count_disagreements,
    run_suite,
)

from conftest import planted_pair, traced_peak_bytes


def progress_steps(model, d, theta, b, n_steps, rng):
    """The progress check's increments, concatenated over its chunks."""
    return np.concatenate(list(verify._progress_chunks(model, d, theta, b, n_steps, rng)))


def literal_count_disagreements(a, b, n, rng):
    """The counter that count_disagreements reduces, kept as the reference
    for its law: n uniform sphere points drawn as whole d-wide rows."""
    pts = geometry.sample_uniform_sphere(a.shape[0], rng, n=n)
    return int(np.count_nonzero((pts @ a >= 0.0) != (pts @ b >= 0.0)))


# sha256 of the verify CSV of run_suite(seed=0, n_samples=20_000). The
# stream has changed three times, each time on purpose and with the law of
# every statistic kept:
# - when every check came to draw and reduce 1 MiB of Gaussians at a time
#   (the progress check's draws were reordered chunk by chunk);
# - when every check came to draw only the coordinates its statistic reads
#   instead of whole d-wide Gaussian rows: two normals per point for the
#   disagreement count, one sphere coordinate (a normal and a chi-square) per
#   point for the moment and progress checks. The tests of count_disagreements,
#   check_conditional_moments and sphere_coordinates compare each reduction
#   with the literal d-wide draw;
# - when the disagreement count came to draw each point as two uniforms on
#   the unit disk by rejection from the square instead of two normals: the
#   direction of a disk point is uniform, as is that of a sphere point's
#   projection onto span(a, b), and the count's law is Binomial(n, angle/pi)
#   as before. Only the error_angle rows changed, and the KS test against
#   literal d-wide points holds the law.
# Beyond that, how the checks draw may change only if every count, estimate
# and generator state stays the same, and with them these bytes.
VERIFY_20K_SHA256 = "5bbb9909084edb19b07a38f708cb4124ec91dc7c4ba451951558635e5bf68c2b"


# Two chunks of the sampled checks and part of a third.
SPAN = 2 * geometry.CHUNK_POINTS + 1000


class TestErrorAngleCheck:
    def test_random_pairs_pass(self, rng):
        results = check_error_angle_relation(10, 5, 200_000, rng)
        assert len(results) == 5
        assert all(r.passed for r in results)
        assert all(r.statistic <= r.margin for r in results)

    def test_memory_is_bounded(self, rng):
        results, peak = traced_peak_bytes(lambda: check_error_angle_relation(10, 2, 400_000, rng))
        assert all(r.passed for r in results)
        assert peak < 8 * geometry.CHUNK_BYTES

    @pytest.mark.parametrize("d,n", [(10, SPAN), (3, SPAN), (25, 50)])
    def test_chunked_count_matches_one_block(self, d, n):
        # The reference draws the same blocks of uniforms, joins their disk
        # points, keeps the first n and counts them in one reduction. At
        # d=10 and d=3, n spans two chunks' disk points and part of a third's;
        # at d=25, n is less than one chunk's.
        new, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(3):
            a, b = geometry.sample_uniform_sphere(d, new), geometry.sample_uniform_sphere(d, new)
            count = count_disagreements(a, b, n, new)
            geometry.sample_uniform_sphere(d, ref)
            geometry.sample_uniform_sphere(d, ref)
            blocks, held = [], 0
            while held < n:
                u = ref.uniform(-1.0, 1.0, (2, geometry.CHUNK_POINTS))
                blocks.append(u[:, u[0] * u[0] + u[1] * u[1] <= 1.0])
                held += blocks[-1].shape[1]
            p, q = np.concatenate(blocks, axis=1)[:, :n]
            cos, sin = geometry.cos_sin(a, b)
            assert count == int(np.sum((p >= 0.0) != (cos * p + sin * q >= 0.0)))
            assert new.bit_generator.state == ref.bit_generator.state

    def test_no_samples_refused(self, rng):
        with pytest.raises(ValueError, match="n_samples"):
            check_error_angle_relation(10, 1, 0, rng)

    def test_equal_and_opposite_pairs_are_exact(self, rng):
        a = geometry.sample_uniform_sphere(10, rng)
        assert count_disagreements(a, a, SPAN, rng) == 0
        assert count_disagreements(a, -a, SPAN, rng) == SPAN

    @pytest.mark.parametrize("d,theta", [(3, 0.3), (10, 1.0), (25, 2.5)])
    def test_count_law_matches_literal_points(self, d, theta):
        # 1,000 counts over 20 points each, reduced and literal: 20,000
        # points a side.
        a, b = planted_pair(d, theta, seed=d)
        new, ref = np.random.default_rng([d, 1]), np.random.default_rng([d, 2])
        reduced = [count_disagreements(a, b, 20, new) for _ in range(1000)]
        literal = [literal_count_disagreements(a, b, 20, ref) for _ in range(1000)]
        assert stats.ks_2samp(reduced, literal).pvalue > 0.01


class TestBandMassCheck:
    def test_valid_widths_pass(self):
        results = check_band_mass_bound([3, 10, 50, 100], [0.005, 0.01])
        assert all(r.passed and not r.skipped for r in results)

    def test_out_of_scope_width_skipped(self):
        results = check_band_mass_bound([100], [0.05])
        assert len(results) == 1
        assert results[0].skipped
        assert "1/(10 sqrt(d))" in results[0].detail

    def test_d3_values(self):
        # mass(b/2, b) = b/4 for d=3; bound is sqrt(3) b / (8 pi).
        (res,) = check_band_mass_bound([3], [0.05])
        assert res.statistic == pytest.approx(0.0125, rel=1e-9)
        assert res.bound == pytest.approx(math.sqrt(3) * 0.05 / (8 * math.pi), rel=1e-12, abs=0.0)
        assert res.passed


class TestConditionalMomentCheck:
    def test_bounds_hold(self, rng):
        results = check_conditional_moments(20, [math.pi / 8, math.pi / 4], 200_000, rng)
        assert len(results) == 6
        assert all(r.passed for r in results)

    def test_memory_is_bounded(self, rng):
        results, peak = traced_peak_bytes(
            lambda: check_conditional_moments(20, [math.pi / 8], 200_000, rng)
        )
        assert all(r.passed for r in results)
        assert peak < 8 * geometry.CHUNK_BYTES

    def test_chunked_reduction_matches_one_block(self):
        # n spans two chunks and part of a third; the reference draws the
        # same coordinates chunk by chunk and reduces them in one block. Each
        # row's margin is 3 standard errors.
        d, theta, n = 20, math.pi / 4, SPAN
        xi = theta / (8.0 * math.sqrt(d))
        new, ref = np.random.default_rng(6), np.random.default_rng(6)
        mean, second, negative = check_conditional_moments(d, [theta], n, new)
        sizes = [geometry.CHUNK_POINTS, geometry.CHUNK_POINTS, 1000]
        t = np.concatenate([geometry.sphere_coordinates(d - 1, 1, ref, k)[0] for k in sizes])
        dots = xi * math.cos(theta) + math.sqrt(1.0 - xi * xi) * math.sin(theta) * t
        assert new.bit_generator.state == ref.bit_generator.state
        for vals, row in ((dots, mean), (dots * dots, second), (np.minimum(dots, 0.0), negative)):
            assert row.statistic == pytest.approx(vals.mean(), rel=1e-12, abs=0.0)
            assert row.margin / 3.0 == pytest.approx(vals.std() / math.sqrt(n), rel=1e-12, abs=0.0)
        # 5 theta^2 / d at theta = pi/4, d = 20.
        assert second.bound == pytest.approx(0.15421, abs=5e-5)

    @pytest.mark.parametrize("d,theta", [(3, 0.3), (10, 1.0), (25, 2.5)])
    def test_moments_match_literal_points(self, d, theta):
        # The reference projects whole d-wide Gaussian rows off w; each
        # estimate agrees with the check's within 4 joint standard errors.
        n = 100_000
        u, w = planted_pair(d, theta, seed=d)
        xi = theta / (8.0 * math.sqrt(d))
        rows = check_conditional_moments(d, [theta], n, np.random.default_rng([d, 1]))
        g = np.random.default_rng([d, 2]).standard_normal((n, d))
        g -= np.outer(g @ w, w)
        dots = xi * (u @ w) + math.sqrt(1.0 - xi * xi) * (g @ u) / np.linalg.norm(g, axis=1)
        for vals, row in zip((dots, dots * dots, np.minimum(dots, 0.0)), rows):
            se = row.margin / 3.0
            assert abs(row.statistic - vals.mean()) <= 4.0 * math.hypot(se, vals.std() / math.sqrt(n))

    @pytest.mark.parametrize(
        "theta,n", [(0.0, 100), (math.pi, 100), (math.pi / 4, 0)], ids=["theta=0", "theta=pi", "n=0"]
    )
    def test_refuses_angle_outside_range_or_no_samples(self, rng, theta, n):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="theta|n must"):
            check_conditional_moments(10, [math.pi / 8, theta], n, rng)
        assert rng.bit_generator.state == state


class TestProgressMeasureCheck:
    def test_realizable_positive(self, rng):
        results = check_progress_measure(NoiseModel.realizable(), 10, math.pi / 4, 100_000, rng)
        assert all(r.passed for r in results)

    def test_memory_is_bounded(self, rng):
        results, peak = traced_peak_bytes(
            lambda: check_progress_measure(NoiseModel.realizable(), 10, math.pi / 4, 400_000, rng)
        )
        assert all(r.passed for r in results)
        assert peak < 8 * geometry.CHUNK_BYTES

    def test_chunked_reduction_matches_steps(self):
        # n spans two chunks and part of a third; the check's running sums
        # agree with the concatenated increments of the same stream.
        theta, d, model = math.pi / 4, 10, NoiseModel.bounded(0.3)
        n = SPAN
        positive, coarse = check_progress_measure(model, d, theta, n, np.random.default_rng(5))
        _, b = mod_perceptron_params(d, theta, 0.1, model.zeta)
        deltas = progress_steps(model, d, theta, b, n, np.random.default_rng(5))
        assert deltas.shape == (n,)
        assert positive.statistic == pytest.approx(deltas.mean(), rel=1e-12, abs=0.0)
        assert positive.margin == pytest.approx(3.0 * deltas.std() / math.sqrt(n), rel=1e-12, abs=0.0)
        assert coarse.statistic == np.max(np.abs(deltas))

    def test_bounded_positive_but_smaller(self, rng):
        # At a fixed band width the drift scales like (1 - 2 eta).
        theta, d = math.pi / 4, 10
        _, b = mod_perceptron_params(d, theta, 0.1, 1.0)
        clean = progress_steps(NoiseModel.realizable(), d, theta, b, 400_000, rng)
        noisy = progress_steps(NoiseModel.bounded(0.3), d, theta, b, 400_000, rng)
        ratio = np.mean(noisy) / np.mean(clean)
        assert np.mean(noisy) > 0
        zeta = 0.4
        assert zeta / 3.0 <= ratio <= zeta * 3.0

    def test_adversarial_positive(self, rng):
        theta = math.pi / 4
        results = check_progress_measure(
            NoiseModel.adversarial(theta / 200.0), 10, theta, 100_000, rng
        )
        assert all(r.passed for r in results)

    def test_coarse_bound_uses_actual_band(self, rng):
        theta, d = math.pi / 4, 10
        results = check_progress_measure(NoiseModel.realizable(), d, theta, 50_000, rng)
        coarse = [r for r in results if "coarse" in r.name][0]
        _, b = mod_perceptron_params(d, theta, 0.1, 1.0)
        assert coarse.bound == pytest.approx(16.0 * b * theta / 3.0, rel=1e-12, abs=0.0)

    def test_no_steps_refused(self, rng):
        with pytest.raises(ValueError, match="n_steps"):
            check_progress_measure(NoiseModel.realizable(), 10, 0.5, 0, rng)

    def test_theta_out_of_range_rejected(self, rng):
        with pytest.raises(ValueError):
            check_progress_measure(NoiseModel.realizable(), 10, 0.95 * math.pi, 100, rng)


class TestSuite:
    def test_suite_passes_and_is_deterministic(self):
        a = run_suite(seed=3, n_samples=50_000)
        b = run_suite(seed=3, n_samples=50_000)
        assert all_passed(a)
        assert [r.name for r in a] == [r.name for r in b]
        assert [r.statistic for r in a] == [r.statistic for r in b]

    def test_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "verify.csv"
        bench.write_verify_csv(str(path), run_suite(seed=0, n_samples=20_000))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_20K_SHA256

    def test_threads_match_the_checks_in_one_thread(self):
        # run_suite overlaps two halves on two threads; each owns its
        # generators, so the results equal the checks run one after another
        # on the same three spawned generators. A generator shared across
        # the threads would interleave its draws and break this.
        seed, n, theta = 7, 20_000, math.pi / 4
        pairs, moments, progress = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
        expected = check_error_angle_relation(10, 20, n, pairs)
        expected += check_band_mass_bound([3, 10, 50, 100], [0.005, 0.01, 0.0316, 0.05, 0.2])
        expected += check_conditional_moments(20, [math.pi / 8, math.pi / 4], n, moments)
        for model in (NoiseModel.realizable(), NoiseModel.bounded(0.3), NoiseModel.adversarial(theta / 200)):
            expected += check_progress_measure(model, 10, theta, n, progress)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            results = run_suite(seed, n)
        finally:
            sys.setswitchinterval(interval)
        assert list(map(repr, results)) == list(map(repr, expected))

    def test_progress_runs_on_the_helper_and_the_rest_on_the_caller(self, monkeypatch):
        threads = {}
        names = (
            "check_error_angle_relation",
            "check_band_mass_bound",
            "check_conditional_moments",
            "check_progress_measure",
        )
        for name in names:
            def wrapped(*args, _check=getattr(verify, name), _name=name):
                threads.setdefault(_name, set()).add(threading.current_thread())
                return _check(*args)

            monkeypatch.setattr(verify, name, wrapped)
        assert all_passed(run_suite(0, 1000))
        (helper,) = threads.pop("check_progress_measure")
        assert helper is not threading.current_thread() and helper.daemon
        assert threads == {name: {threading.current_thread()} for name in names[:3]}

    def test_memory_is_bounded(self):
        results, peak = traced_peak_bytes(lambda: run_suite(0, 400_000))
        assert all_passed(results)
        assert peak < 4 * geometry.CHUNK_BYTES

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        error = RuntimeError("progress check failed")

        def fail(*args):
            raise error

        monkeypatch.setattr(verify, "check_progress_measure", fail)
        with pytest.raises(RuntimeError) as excinfo:
            run_suite(0, 1000)
        assert excinfo.value is error

    def test_interrupted_caller_does_not_wait_for_the_helper(self, monkeypatch):
        started, release, helpers = threading.Event(), threading.Event(), []

        def blocked(*args):
            helpers.append(threading.current_thread())
            started.set()
            release.wait(60)
            return []

        def interrupted(*args):
            started.wait(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "check_progress_measure", blocked)
        monkeypatch.setattr(verify, "check_error_angle_relation", interrupted)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_suite(0, 1000)
            # Still running, and a daemon: interpreter exit does not join it.
            assert [(h.is_alive(), h.daemon) for h in helpers] == [(True, True)]
        finally:
            release.set()
            for helper in helpers:
                helper.join(60)
        assert not any(h.is_alive() for h in helpers)

    def test_lines_are_formatted(self):
        results = run_suite(seed=1, n_samples=20_000)
        for r in results:
            line = r.line()
            assert line.startswith(("[PASS]", "[FAIL]", "[SKIP]"))
            assert r.name in line
