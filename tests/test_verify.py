import hashlib
import math

import numpy as np
import pytest

from percband import bench, geometry
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
    simulate_progress_steps,
)

from conftest import traced_peak_bytes

# sha256 of the verify CSV of run_suite(seed=0, n_samples=20_000). It changed
# once when every check came to draw and reduce 1 MiB of Gaussians at a time:
# the progress check now draws angles, margins, Gaussians and label coins
# chunk by chunk (a new stream), and the moment check sums per chunk (its
# printed digits did not move). Beyond that, how the checks draw may change
# only if every count, estimate and generator state stays the same, and with
# them these bytes.
VERIFY_20K_SHA256 = "57576b1265fe3f9397b9a666ace8c0ec62f50debb3d2f5ea2368d90e8202f8d7"


class TestErrorAngleCheck:
    def test_random_pairs_pass(self, rng):
        results = check_error_angle_relation(10, 5, 200_000, rng)
        assert len(results) == 5
        assert all(r.passed for r in results)
        assert all(r.statistic <= r.margin for r in results)

    @pytest.mark.parametrize("d,n", [(10, 30_000), (3, 100_000), (25, 50)])
    def test_counts_match_normalized_points(self, d, n):
        # Same Gaussians in the same order as normalized sphere points drawn
        # in one block. At d=10 and d=3, n spans two chunks and part of a
        # third; at d=25, n is less than one chunk.
        new, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(3):
            a, b = geometry.sample_uniform_sphere(d, new), geometry.sample_uniform_sphere(d, new)
            count = count_disagreements(a, b, n, new)
            geometry.sample_uniform_sphere(d, ref)
            geometry.sample_uniform_sphere(d, ref)
            pts = geometry.sample_uniform_sphere(d, ref, n=n)
            assert count == int(np.sum((pts @ a >= 0.0) != (pts @ b >= 0.0)))
            assert new.bit_generator.state == ref.bit_generator.state


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
        n = 2 * geometry.chunk_rows(d - 1) + 1000
        positive, coarse = check_progress_measure(model, d, theta, n, np.random.default_rng(5))
        _, b = mod_perceptron_params(d, theta, 0.1, model.zeta)
        deltas = simulate_progress_steps(model, d, theta, b, n, np.random.default_rng(5))
        assert deltas.shape == (n,)
        assert positive.statistic == pytest.approx(deltas.mean(), rel=1e-12, abs=0.0)
        assert positive.margin == pytest.approx(3.0 * deltas.std() / math.sqrt(n), rel=1e-12, abs=0.0)
        assert coarse.statistic == np.max(np.abs(deltas))

    def test_bounded_positive_but_smaller(self, rng):
        # At a fixed band width the drift scales like (1 - 2 eta).
        theta, d = math.pi / 4, 10
        _, b = mod_perceptron_params(d, theta, 0.1, 1.0)
        clean = simulate_progress_steps(NoiseModel.realizable(), d, theta, b, 400_000, rng)
        noisy = simulate_progress_steps(NoiseModel.bounded(0.3), d, theta, b, 400_000, rng)
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

    def test_lines_are_formatted(self):
        results = run_suite(seed=1, n_samples=20_000)
        for r in results:
            line = r.line()
            assert line.startswith(("[PASS]", "[FAIL]", "[SKIP]"))
            assert r.name in line
