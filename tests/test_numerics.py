"""Special functions, distributions, quadrature, and RNG streams."""

import math

import numpy as np
import pytest
from scipy import stats

from ebfkit.exceptions import DomainError, NonConvergedError
from ebfkit.numerics import (
    QuadratureSpec,
    RngStream,
    beta_pdf,
    chi2_cdf,
    chi2_quantile,
    f_cdf,
    f_pdf,
    f_quantile,
    gamma_pdf,
    integrate_1d,
    integrate_1d_checked,
    integrate_2d,
    log_gamma,
    noncentral_chi2_cdf,
    normal_cdf,
    normal_log_pdf,
    normal_pdf,
    normal_quantile,
    regularized_incomplete_beta,
    t_cdf,
    t_pdf,
    t_quantile,
)
from ebfkit.numerics.special import log_ndtr_scalar, normal_log_pdf_scalar


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        """Gamma(1/2) = sqrt(pi)."""
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_factorial(self):
        """Gamma(11) = 10!."""
        assert log_gamma(11.0) == pytest.approx(math.log(math.factorial(10)), rel=1e-14)

    def test_relative_accuracy_over_range(self):
        import mpmath
        for a in (1e-6, 1e-3, 0.5, 1.5, 20.0, 1e3, 1e6):
            ref = float(mpmath.loggamma(a))
            got = log_gamma(a)
            denom = abs(ref) if ref != 0 else 1.0
            assert abs(got - ref) / denom < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == pytest.approx(1.0, abs=1e-15)

    def test_uniform(self):
        assert regularized_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_polynomial_case(self):
        """I_x(3, 2) = x^3 (4 - 3x): the Beta(3,2) CDF expanded."""
        x = 0.5
        assert regularized_incomplete_beta(x, 3.0, 2.0) == pytest.approx(
            x ** 3 * (4 - 3 * x), abs=1e-12)
        assert regularized_incomplete_beta(0.5, 3.0, 2.0) == pytest.approx(0.3125, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, -1.0, 1.0)


class TestNormal:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_two_sided_tail_matches_threshold(self):
        """2 Phi(-sqrt(1 + log 2)) = 0.193: the two-sided tail at the
        evidence crossing point (frozen at high precision)."""
        z = math.sqrt(1 + math.log(2))
        p = 2 * (1 - normal_cdf(z))
        assert p == pytest.approx(0.1931866205629120, abs=1e-12)
        assert round(p, 3) == 0.193
        assert normal_cdf(1.3012) == pytest.approx(0.9034049973579244, abs=1e-12)

    def test_far_tail(self):
        """Frozen from the erf identity Phi(-5) = erfc(5/sqrt(2))/2."""
        assert normal_cdf(-5.0) == pytest.approx(2.8665157187919333e-07, rel=1e-12)

    def test_quantile_inverts(self):
        ps = np.linspace(1e-12, 1 - 1e-12, 41)
        np.testing.assert_allclose(normal_cdf(normal_quantile(ps)), ps, atol=1e-12)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)


class TestLogNdtrHelper:
    def test_matches_scipy_log_ndtr(self):
        from scipy.special import log_ndtr
        zs = np.concatenate([np.linspace(-36.9, 8, 500), np.linspace(0, 8, 400),
                             np.linspace(-200, -37.1, 100)])
        mine = np.array([log_ndtr_scalar(z) for z in zs])
        np.testing.assert_allclose(mine, log_ndtr(zs), rtol=1e-13, atol=0)


class TestNormalLogPdfScalar:
    def test_matches_array_form(self):
        for x, mean, var in [(0.3, -1.2, 0.5), (40.0, 0.0, 2.0), (1e200, 0.0, 1.0)]:
            assert normal_log_pdf_scalar(x, mean, var) == pytest.approx(
                normal_log_pdf(x, mean, var), rel=1e-15)

    @pytest.mark.parametrize("var", [0.0, -1.0, math.nan])
    def test_rejects_bad_variance(self, var):
        with pytest.raises(DomainError, match="variance > 0"):
            normal_log_pdf_scalar(0.0, 0.0, var)


class TestDistributions:
    def test_t_pdf_cauchy_at_zero(self):
        assert t_pdf(0.0, 1.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_f_cdf_equal_df_symmetry(self):
        """F(1; v, v) = 1/2: X and 1/X share the law when df match."""
        for df in (1, 2, 7, 33):
            assert f_cdf(1.0, df, df) == pytest.approx(0.5, abs=1e-12)

    def test_noncentral_chi2_zero_ncp(self):
        x = np.array([0.1, 1.0, 5.0, 20.0])
        np.testing.assert_allclose(noncentral_chi2_cdf(x, 1, 0.0),
                                   chi2_cdf(x, 1), atol=1e-14)

    def test_noncentral_chi2_against_scipy(self):
        for (x, df, ncp) in [(1.0, 1, 0.5), (5.0, 3, 2.0), (30.0, 1, 40.0),
                             (100.0, 2, 90.0)]:
            assert noncentral_chi2_cdf(x, df, ncp) == pytest.approx(
                stats.ncx2.cdf(x, df, ncp), abs=1e-10)

    def test_quantiles_invert_cdfs(self):
        ps = np.array([0.001, 0.1, 0.5, 0.9, 0.999])
        np.testing.assert_allclose(t_cdf(t_quantile(ps, 7), 7), ps, atol=1e-12)
        np.testing.assert_allclose(f_cdf(f_quantile(ps, 4, 9), 4, 9), ps, atol=1e-12)
        np.testing.assert_allclose(chi2_cdf(chi2_quantile(ps, 3), 3), ps, atol=1e-12)

    def test_cdfs_nondecreasing_and_bounded(self):
        grid = np.linspace(-8, 8, 161)
        for df in (1, 4, 30):
            vals = t_cdf(grid, df)
            assert np.all(np.diff(vals) >= 0)
            assert np.all((vals >= 0) & (vals <= 1))
        pos = np.linspace(1e-6, 50, 200)
        for d1, d2 in ((1, 1), (3, 7)):
            vals = f_cdf(pos, d1, d2)
            assert np.all(np.diff(vals) >= 0)

    def test_cdf_matches_pdf_by_differentiation(self):
        """Central difference of each CDF reproduces its density to 1e-6."""
        h = 1e-5
        grid = np.linspace(-4, 4, 17)
        num = (t_cdf(grid + h, 5) - t_cdf(grid - h, 5)) / (2 * h)
        np.testing.assert_allclose(num, t_pdf(grid, 5), atol=1e-6)
        fgrid = np.linspace(0.2, 6, 15)
        num = (f_cdf(fgrid + h, 3, 8) - f_cdf(fgrid - h, 3, 8)) / (2 * h)
        np.testing.assert_allclose(num, f_pdf(fgrid, 3, 8), atol=1e-6)

    def test_t_approaches_normal(self):
        grid = np.linspace(-5, 5, 101)
        dev = np.max(np.abs(t_cdf(grid, 1e6) - normal_cdf(grid)))
        assert dev < 1e-5

    def test_densities_normalize(self):
        spec = QuadratureSpec()
        val, _ = integrate_1d(lambda u: t_pdf(u, 3), (-math.inf, math.inf), spec)
        assert val == pytest.approx(1.0, abs=1e-8)
        val, _ = integrate_1d(lambda u: f_pdf(u, 5, 7), (0.0, math.inf), spec)
        assert val == pytest.approx(1.0, abs=1e-8)
        val, _ = integrate_1d(lambda u: beta_pdf(u, 2.5, 1.5), (0.0, 1.0), spec)
        assert val == pytest.approx(1.0, abs=1e-8)
        val, _ = integrate_1d(lambda u: gamma_pdf(u, 3.0, 2.0), (0.0, math.inf), spec)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            t_pdf(0.0, -1)
        with pytest.raises(DomainError):
            f_cdf(-1.0, 2, 2)
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(1.0, 1, -0.5)


class TestQuadrature:
    def test_exponential(self):
        val, err = integrate_1d(lambda x: math.exp(-x), (0.0, math.inf))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian(self):
        val, _ = integrate_1d(lambda x: normal_pdf(x), (-math.inf, math.inf))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_separable_2d(self):
        res = integrate_2d(lambda x, y: x * y, (0.0, 1.0), (0.0, 1.0))
        assert res.value == pytest.approx(0.25, abs=1e-10)
        assert res.converged

    def test_nonconvergence_is_flagged(self):
        spec = QuadratureSpec(absolute_tolerance=1e-14, relative_tolerance=1e-14,
                              max_subdivisions=2)
        res = integrate_1d(lambda x: math.cos(40.0 * x * x), (0.0, 20.0), spec)
        assert not res.converged
        with pytest.raises(NonConvergedError):
            integrate_1d_checked(lambda x: math.cos(40.0 * x * x), (0.0, 20.0), spec)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(absolute_tolerance=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(DomainError):
            QuadratureSpec(transform="sinh")

    def test_explicit_transforms(self):
        spec = QuadratureSpec(transform="semi-infinite-log")
        val, _ = integrate_1d(lambda x: x * math.exp(-x), (0.0, math.inf), spec)
        assert val == pytest.approx(1.0, abs=1e-9)
        spec = QuadratureSpec(transform="infinite-atan")
        val, _ = integrate_1d(lambda x: 1 / (math.pi * (1 + x * x)),
                              (-math.inf, math.inf), spec)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestRngStream:
    def test_reproducible(self):
        """Identical (seed, index) keys give identical deviate sequences."""
        a = RngStream(12345, 6).standard_normal(1_000_000)
        b = RngStream(12345, 6).standard_normal(1_000_000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(12345, 0).standard_normal(1000)
        b = RngStream(12345, 1).standard_normal(1000)
        assert not np.allclose(a, b)
        # correlation of independent streams is noise-level
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_substream(self):
        s = RngStream(9, 4)
        np.testing.assert_array_equal(s.substream(3).standard_normal(10),
                                      RngStream(9, 7).standard_normal(10))

    def test_uniform_range(self):
        u = RngStream(1, 0).uniform(size=1000)
        assert np.all((u >= 0) & (u < 1))
