import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from percband import geometry
from percband.geometry import (
    Band,
    DimensionMismatch,
    angle,
    band_mass,
    disagreement_mass,
    rejection_sample_band,
    sample_uniform_sphere,
)

from conftest import planted_pair, tape_points, traced_peak_bytes, unit


def band_mass_closed_form(d: int, lower: float, upper: float) -> float:
    """Independent oracle: the marginal mass via the regularized incomplete beta."""
    a, b = 0.5, (d - 1) / 2.0
    return 0.5 * (special.betainc(a, b, upper * upper) - special.betainc(a, b, lower * lower))


def band_mass_reference(d: int, lower: float, upper: float) -> float:
    """The incomplete-beta oracle in its well-conditioned form: as a
    difference of upper tails (betaincc) once the lower mass passes 1/4."""
    a, b = 0.5, (d - 1) / 2.0
    if special.betainc(a, b, lower * lower) > 0.5:
        return 0.5 * (special.betaincc(a, b, lower * lower) - special.betaincc(a, b, upper * upper))
    return band_mass_closed_form(d, lower, upper)


def band_mass_by_quadrature(d: int, lower: float, upper: float) -> float:
    """Independent oracle: adaptive quadrature of the one-coordinate density."""
    norm = special.beta((d - 1) / 2.0, 0.5)
    value, _ = integrate.quad(
        lambda z: (1.0 - z * z) ** ((d - 3) / 2.0) / norm,
        lower, upper, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return value


def accuracy_intervals(d: int) -> list[tuple[float, float]]:
    """Fixed intervals, a schedule band [b/2, b], and intervals around the
    upper-tail switch (near 3.1 standard deviations) and beyond it. In the
    upper tail, e.g. [0.2, 0.4] at d=1000 or [0.1, 1] at d=5000, a difference
    of lower masses near 1/2 is off by 3e-7 and 2e-4 relative."""
    s = 1.0 / math.sqrt(d)
    scaled = [(s / 20, s / 10), (2 * s, 1.0), (3 * s, 4 * s), (3.2 * s, 1.0), (5 * s, 6 * s)]
    fixed = [(0.0, 0.1), (0.05, 0.2), (0.3, 0.9), (0.0, 1.0), (0.9, 1.0), (0.2, 0.4),
             (0.1, 1.0), (0.5, 0.6), (0.999, 1.0)]
    return fixed + [(lo, hi) for lo, hi in scaled if lo < hi <= 1.0]


class TestSampleUniformSphere:
    def test_unit_norm(self, rng):
        for d in (3, 10, 100):
            v = sample_uniform_sphere(d, rng)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_batch_unit_norms(self, rng):
        pts = sample_uniform_sphere(7, rng, n=1000)
        assert pts.shape == (1000, 7)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-9

    def test_rejects_low_dimension(self, rng):
        with pytest.raises(DimensionMismatch):
            sample_uniform_sphere(2, rng)

    def test_coordinate_means_d10(self, rng):
        n = 1_000_000
        pts = sample_uniform_sphere(10, rng, n=n)
        bound = 4.0 / math.sqrt(n * (1.0 / 10))
        assert np.max(np.abs(pts.mean(axis=0))) < bound

    def test_first_coordinate_uniform_d3(self, rng):
        # For d=3 the one-coordinate marginal is uniform on [-1, 1].
        n = 1_000_000
        z = sample_uniform_sphere(3, rng, n=n)[:, 0]
        ks = stats.kstest(z, stats.uniform(loc=-1, scale=2).cdf)
        assert ks.statistic < 1.628 / math.sqrt(n)

    def test_rotational_invariance(self, rng):
        n = 100_000
        d = 8
        base = sample_uniform_sphere(d, rng, n=n)
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = sample_uniform_sphere(d, rng, n=n) @ rot.T
        proj = np.zeros(d)
        proj[0] = 1.0
        ks = stats.ks_2samp(base @ proj, rotated @ proj)
        assert ks.pvalue > 0.01


class TestSphereCoordinates:
    @pytest.mark.parametrize("k", [2, 3, 9, 19])
    def test_first_coordinate_matches_normalized_gaussians(self, k):
        n = 20_000
        t = geometry.sphere_coordinates(k, 1, np.random.default_rng([k, 1]), n)[0]
        g = np.random.default_rng([k, 2]).standard_normal((n, k))
        assert stats.ks_2samp(t, g[:, 0] / np.linalg.norm(g, axis=1)).pvalue > 0.01

    @given(k=st.integers(2, 400), m=st.integers(1, 2), n=st.integers(1, 300), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_output_invariants(self, k, m, n, seed):
        m = min(m, k)
        coords = geometry.sphere_coordinates(k, m, np.random.default_rng(seed), n)
        assert coords.shape == (m, n)
        assert np.all(np.isfinite(coords))
        assert np.all((coords * coords).sum(axis=0) <= 1.0 + 1e-12)


class TestCosSin:
    @pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-3, 1.0, math.pi / 2, 3.0])
    def test_reads_planted_angle(self, theta):
        cos, sin = geometry.cos_sin(*planted_pair(10, theta, seed=1))
        assert cos == pytest.approx(math.cos(theta), rel=1e-12, abs=1e-15)
        assert sin == pytest.approx(math.sin(theta), rel=1e-3, abs=1e-15)

    def test_parallel_vectors(self):
        v = sample_uniform_sphere(10, np.random.default_rng(2))
        assert geometry.cos_sin(v, v)[1] < 1e-15
        assert geometry.cos_sin(v, -v)[1] < 1e-15


class TestCheckUnit:
    @pytest.mark.parametrize("v", [np.full(4, math.nan), [math.nan, 0.0, 0.0], [1.0, 0.0, math.nan]])
    def test_nan_is_refused(self, v):
        # A NaN norm fails every comparison, so it must fail the check.
        with pytest.raises(ValueError, match="must have unit norm"):
            geometry.check_unit(v)

    @pytest.mark.parametrize("v", ["abc", [1.0, "x", 0.0], {"a": 1.0}, pytest.param([10**400, 0, 0], id="1e400")])
    def test_non_numeric_is_refused_by_name(self, v):
        # numpy's own conversion error named no argument.
        with pytest.raises(ValueError, match="^v0 must be an array of real numbers"):
            geometry.check_unit(v, "v0")


class TestCheckDimension:
    @pytest.mark.parametrize("d", [3, 10, np.int64(7), pytest.param(10**400, id="1e400")])
    def test_integers_from_three_pass(self, d):
        geometry.check_dimension(d)

    @pytest.mark.parametrize("d", [2, 0, -5, 10.0, 10.5, True, np.float64(10), np.bool_(True), "10", None, math.nan])
    def test_anything_else_is_refused_by_name(self, d):
        with pytest.raises(DimensionMismatch, match="^dimension d must be"):
            geometry.check_dimension(d)

    def test_sample_uniform_sphere_refuses_a_non_integer(self, rng):
        # By name, not by numpy's own TypeError from standard_normal.
        with pytest.raises(DimensionMismatch, match="dimension d must be an integer, got 10.5"):
            sample_uniform_sphere(10.5, rng)

    def test_band_mass_refuses_a_float_before_its_cache(self):
        # Checked before the cache is read: 10.0 is equal to 10 as a key, so
        # a check inside the memo would serve it the d = 10 mass.
        with pytest.raises(DimensionMismatch, match="got 17.0"):
            band_mass(17.0, 0.1, 0.2)
        band_mass(10, 0.1, 0.2)
        with pytest.raises(DimensionMismatch, match="got 10.0"):
            band_mass(10.0, 0.1, 0.2)


class TestAngle:
    def test_identity(self):
        assert angle([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert angle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(math.pi / 2)

    def test_antipodal(self):
        assert angle([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]) == pytest.approx(math.pi)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            angle([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("theta", [1e-9, 3e-7, 1e-3, 3.0])
    def test_keeps_relative_precision_at_small_angles(self, theta):
        # acos of the dot product reads 0 at 1e-9 and 0.04% low at 3e-7.
        assert angle(*planted_pair(10, theta, seed=1)) == pytest.approx(theta, rel=1e-6, abs=0.0)

    def test_clamps_dot_product(self):
        # A dot product can exceed 1 by float noise; arccos must not blow up.
        v = unit([0.6, 0.8, 0.0])
        assert angle(v, v) == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_symmetry_and_range(self, seed):
        gen = np.random.default_rng(seed)
        a = sample_uniform_sphere(6, gen)
        b = sample_uniform_sphere(6, gen)
        th = angle(a, b)
        assert 0.0 <= th <= math.pi
        assert th == pytest.approx(angle(b, a), abs=1e-12)
        assert angle(a, -a) == pytest.approx(math.pi)


class TestDisagreementMass:
    def test_trivials(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert disagreement_mass(e1, e1) == 0.0
        assert disagreement_mass(e1, -e1) == pytest.approx(1.0)

    def test_orthogonal_monte_carlo(self, rng):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert disagreement_mass(a, b) == pytest.approx(0.5)
        n = 1_000_000
        pts = sample_uniform_sphere(3, rng, n=n)
        freq = np.mean((pts @ a >= 0) != (pts @ b >= 0))
        assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_random_pairs_match_monte_carlo(self, rng):
        n = 200_000
        for _ in range(5):
            a = sample_uniform_sphere(10, rng)
            b = sample_uniform_sphere(10, rng)
            p = disagreement_mass(a, b)
            pts = sample_uniform_sphere(10, rng, n=n)
            freq = np.mean((pts @ a >= 0) != (pts @ b >= 0))
            assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


class TestBandMass:
    def test_d3_closed_form(self):
        # d=3 marginal is uniform with density 1/2: mass of [b/2, b] is b/4.
        b = 0.2
        assert band_mass(3, b / 2, b) == pytest.approx(b / 4, rel=1e-10)

    def test_half_sphere(self):
        assert band_mass(10, 0.0, 1.0) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("d", [3, 10, 50, 100])
    def test_lower_bound_at_limit(self, d):
        b = 1.0 / (10.0 * math.sqrt(d))
        assert band_mass(d, b / 2, b) >= math.sqrt(d) * b / (8.0 * math.pi)

    @pytest.mark.parametrize("d", [3, 5, 20, 100])
    def test_matches_incomplete_beta_oracle(self, d):
        for lo, hi in [(0.0, 0.1), (0.05, 0.2), (0.3, 0.9), (0.0, 1.0), (0.9, 1.0)]:
            assert band_mass(d, lo, hi) == pytest.approx(
                band_mass_closed_form(d, lo, hi), rel=1e-8, abs=1e-14
            )

    @pytest.mark.parametrize("d", [*range(3, 61), 100, 1000, 5000])
    def test_matches_incomplete_beta_to_1e11(self, d):
        # abs=1e-300: masses that underflow to subnormals (e.g. [0.9, 1] at
        # d=1000) carry no relative precision in any implementation.
        for lo, hi in accuracy_intervals(d):
            assert band_mass(d, lo, hi) == pytest.approx(
                band_mass_reference(d, lo, hi), rel=1e-11, abs=1e-300
            ), (lo, hi)

    @pytest.mark.parametrize("d", [2000, 5000])
    def test_high_dimension_to_1e12(self, d):
        # q = 1 - z^2 is rounded: raising it to the i-th power, i up to d/2,
        # would multiply that error by i and miss this near the tail switch.
        s = 1.0 / math.sqrt(d)
        for lo, hi in [(3 * s, 4 * s), (3 * s, 1.0)]:
            assert band_mass(d, lo, hi) == pytest.approx(
                band_mass_reference(d, lo, hi), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("d", [3, 4, 9, 30, 101])
    def test_matches_quadrature(self, d):
        b = 1.0 / (10.0 * math.sqrt(d))
        for lo, hi in [(0.0, 0.1), (0.05, 0.2), (0.3, 0.9), (b / 2, b)]:
            assert band_mass(d, lo, hi) == pytest.approx(
                band_mass_by_quadrature(d, lo, hi), rel=1e-11, abs=0.0
            )

    # Bits of series that take several SERIES_TERMS runs: [0.0005, 0.001]
    # takes the lower-mass path and the two others the upper-tail one. Any
    # change to how the runs' factors are built or summed shows here.
    @pytest.mark.parametrize("d,lower,upper,bits", [
        (200_001, 0.0005, 0.001, "0x1.58c3da93930a9p-4"),
        (200_002, 0.0005, 0.001, "0x1.58c40c86a57eep-4"),
        (200_001, 0.01, 0.02, "0x1.03b944e9b7cb8p-18"),
        (200_002, 0.01, 0.02, "0x1.03b5cabdc55f7p-18"),
        (200_001, 0.025, 0.05, "0x1.fa25f4ca2f0dcp-96"),
        (200_002, 0.025, 0.05, "0x1.f9fd23a0b0696p-96"),
    ])
    def test_multi_run_series_bits(self, d, lower, upper, bits):
        assert (d - 3) // 2 > 3 * geometry.SERIES_TERMS
        assert band_mass(d, lower, upper).hex() == bits

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            band_mass(5, 0.5, 0.5)
        with pytest.raises(ValueError):
            band_mass(5, -0.1, 0.5)
        with pytest.raises(ValueError):
            band_mass(5, 0.2, 1.1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_monotone_in_interval(self, seed):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(3, 60))
        lo, hi = np.sort(gen.uniform(0.0, 1.0, size=2))
        if hi - lo < 1e-6:
            return
        grow_lo = max(0.0, lo - gen.uniform(0.0, lo)) if lo > 0 else 0.0
        grow_hi = min(1.0, hi + gen.uniform(0.0, 1.0 - hi))
        inner = band_mass(d, lo, hi)
        assert band_mass(d, grow_lo, grow_hi) >= inner - 1e-12

    def test_memory_is_bounded_in_high_dimension(self):
        # A series of about d/2 terms is summed in runs of SERIES_TERMS, so
        # its peak does not grow with d; one d-long array would take 40 MB.
        d, lo, hi = 10_000_000, 1e-5, 2e-5
        mass, peak = traced_peak_bytes(lambda: band_mass(d, lo, hi))
        assert peak < 4 * geometry.CHUNK_BYTES
        assert mass == pytest.approx(band_mass_reference(d, lo, hi), rel=1e-10, abs=0.0)

    def test_conditional_density_normalization(self):
        # The slice-conditional density of one coordinate given another equal
        # to b integrates to 1 with normalizer (1-b^2)^((d-3)/2) B((d-2)/2, 1/2)
        # and exponent (d-4)/2.
        for d, b in [(4, 0.3), (7, 0.1), (20, 0.05)]:
            norm = (1 - b * b) ** ((d - 3) / 2.0) * special.beta((d - 2) / 2.0, 0.5)
            lim = math.sqrt(1 - b * b)
            val, _ = integrate.quad(
                lambda z: (1 - b * b - z * z) ** ((d - 4) / 2.0) / norm, -lim, lim
            )
            assert val == pytest.approx(1.0, rel=1e-8)


class TestSampleMargins:
    def test_mean_far_from_the_equator(self, rng):
        # At d = 10,000 the density at z = 0.5 is 0.75^4998.5 of its peak, far
        # below the smallest double, yet the law restricted to [0.5, 0.6]
        # is well defined: nearly exponential with mean 0.50015. The exact
        # mean comes from quadrature of the log-density shifted to 0 at 0.5.
        d, lo, hi, n = 10_000, 0.5, 0.6, 5000
        expo = (d - 3) / 2.0

        def density(z):
            return math.exp(expo * (math.log1p(-z * z) - math.log1p(-lo * lo)))

        quad = dict(epsabs=0.0, epsrel=1e-12, limit=200, points=[lo + 1e-3])
        mass, _ = integrate.quad(density, lo, hi, **quad)
        first, _ = integrate.quad(lambda z: z * density(z), lo, hi, **quad)
        xs = geometry.sample_margins(d, lo, hi, rng, n)
        assert xs.min() >= lo and xs.max() <= hi
        assert abs(xs.mean() - first / mass) <= 4.0 * xs.std() / math.sqrt(n)


class TestRejectionSampleBand:
    def make_band(self, d=3, lower=0.1, upper=0.2, seed=5):
        gen = np.random.default_rng(seed)
        return Band(normal=sample_uniform_sphere(d, gen), lower=lower, upper=upper)

    def tape(self, band, rng, n):
        """n rows of the band's tape, as the learner draws them."""
        mass = band_mass(band.dimension, band.lower, band.upper)
        return geometry.draw_band_tape(band.dimension, band.lower, band.upper, mass, rng, n)

    def test_point_in_band(self, rng):
        band = self.make_band()
        literal = rejection_sample_band(band, rng)
        tape = self.tape(band, rng, 1)
        for x, draws in (literal, (tape_points(tape, band.normal, rng)[0], tape.draws[0])):
            assert draws >= 1
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-9
            assert band.lower <= float(x @ band.normal) <= band.upper

    def test_list_normal_samples(self, rng):
        band = Band(normal=[1.0, 0.0, 0.0], lower=0.1, upper=0.2)
        assert band.dimension == 3 and band.normal.dtype == np.float64
        x, draws = rejection_sample_band(band, rng)
        assert draws >= 1 and 0.1 <= x[0] <= 0.2

    def test_band_validation(self):
        with pytest.raises(ValueError):
            Band(normal=np.array([1.0, 0.0, 0.0]), lower=0.0, upper=0.5)
        with pytest.raises(ValueError):
            Band(normal=np.array([1.0, 0.0, 0.0]), lower=0.5, upper=0.2)

    def test_thin_band_tape_row_draws_more_than_five(self, rng):
        # The engine draws a row's count as one Geometric(p) number, however
        # thin the band: here p is about 4e-5.
        band = self.make_band(d=10, lower=0.3, upper=0.3001)
        assert self.tape(band, rng, 1).draws[0] > 5

    def test_hemisphere_mean_draws(self, rng):
        # A band covering essentially [0, 1] has mass 1/2: two draws per call.
        band = self.make_band(d=5, lower=1e-12, upper=1.0)
        draws = [rejection_sample_band(band, rng)[1] for _ in range(4000)]
        mean = np.mean(draws)
        se = np.std(draws) / math.sqrt(len(draws))
        assert abs(mean - 2.0) <= 3.0 * se + 1e-9

    def test_mean_draws_match_band_mass(self, rng):
        # d=3, b=0.2: mass([b/2, b]) = 0.05, so 20 expected draws per call.
        band = self.make_band(d=3, lower=0.1, upper=0.2)
        n = 10_000
        draws = np.array([rejection_sample_band(band, rng)[1] for _ in range(n)])
        se = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - 20.0) <= 3.0 * se

    def test_methods_agree(self, rng):
        # The literal loop and the learner's tape share the (margin, draws) law.
        band = self.make_band(d=6, lower=0.05, upper=0.15, seed=9)
        n = 4000
        lit = [rejection_sample_band(band, rng) for _ in range(n)]
        tape = self.tape(band, rng, n)
        lit_margins = np.array([float(x @ band.normal) for x, _ in lit])
        tape_margins = tape_points(tape, band.normal, rng) @ band.normal
        assert stats.ks_2samp(lit_margins, tape_margins).pvalue > 0.01
        lit_draws = np.array([k for _, k in lit])
        assert stats.ks_2samp(lit_draws, tape.draws).pvalue > 0.01

    def test_total_draw_concentration(self, rng):
        band = self.make_band(d=3, lower=0.1, upper=0.2)
        p = band_mass(3, 0.1, 0.2)
        m = 1000
        total = sum(rejection_sample_band(band, rng)[1] for _ in range(m))
        assert total <= 2 * m / p

    def test_literal_memory_is_bounded_in_high_dimension(self):
        # d=5000, p ~ 0.002: a chunk of ceil(4/p) rows would be ~75 MB; the
        # literal sampler's chunks are capped at CHUNK_BYTES of Gaussians.
        d, lower, upper = 5000, 0.04, 0.05
        band = self.make_band(d=d, lower=lower, upper=upper)
        rng = np.random.default_rng(0)
        (x, draws), peak = traced_peak_bytes(
            lambda: rejection_sample_band(band, rng)
        )
        assert lower <= float(x @ band.normal) <= upper and draws >= 1
        assert peak < 8 * geometry.CHUNK_BYTES

    def test_matches_band_sampler_margins(self, rng):
        # The tape's construction around the band normal and the literal band
        # sampler induce the same law of u . x for points in a thin band.
        d = 6
        u, w = planted_pair(d, math.pi / 3, seed=11)
        band = Band(normal=w, lower=0.02, upper=0.05)
        lit = np.array([float(rejection_sample_band(band, rng)[0] @ u) for _ in range(3000)])
        tape = geometry.draw_band_tape(d, 0.02, 0.05, band_mass(d, 0.02, 0.05), rng, 3000)
        assert stats.ks_2samp(lit, tape_points(tape, w, rng) @ u).pvalue > 0.01
