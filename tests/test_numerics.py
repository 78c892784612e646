"""Special functions, distributions and RNG streams, each against an
independent reference (scipy, mpmath, closed forms); and the checked
quadrature behind the normal oracle."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from ebfkit.exceptions import DomainError, NonConvergedError
from ebfkit.numerics import (
    RngStream,
    chi2_cdf,
    f_log_pdf,
    log_gamma,
    noncentral_chi2_cdf,
    normal_quantile,
    t_log_pdf,
)
from ebfkit.numerics.special import log_beta_mass, log_ndtr_scalar, normal_log_pdf_scalar

from test_normal_ebf import _checked_quad


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


def mp_beta_tail(a, b, x):
    """I_x(a, b) at mpmath's working precision, from the series of positive
    terms x^a (1 - x)^b / (a B(a, b)) * 2F1(a + b, 1; a + 1; x) on the side
    x <= a / (a + b), and as 1 - I_{1-x}(b, a) past it."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if x * (a + b) > a:
        return 1 - mp_beta_tail(b, a, 1 - x)
    if x == 0:
        return mpmath.mpf(0)
    series = mpmath.mp.hypsum(2, 1, ("R", "Z", "R"), [a + b, 1, a + 1], x,
                              maxterms=10 ** 7)
    return series * mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a)
                               - mpmath.loggamma(a) - mpmath.loggamma(b)
                               + mpmath.loggamma(a + b))


def mp_log_beta_mass(a, b, lo, hi):
    """log of the Beta(a, b) mass of (lo, hi) at 60 digits, differenced in
    a tail that holds at most half the law when one does."""
    with mpmath.workdps(60):
        below_hi = mp_beta_tail(a, b, hi)
        above_lo = mp_beta_tail(b, a, 1 - mpmath.mpf(lo))
        if below_hi <= 0.5:
            mass = below_hi - mp_beta_tail(a, b, lo)
        elif above_lo <= 0.5:
            mass = above_lo - mp_beta_tail(b, a, 1 - mpmath.mpf(hi))
        else:
            mass = 1 - mp_beta_tail(a, b, lo) - mp_beta_tail(b, a, 1 - mpmath.mpf(hi))
        return float(mpmath.log(mass))


def _log_cdf(x, a, b):
    """log I_x(a, b): the log mass of (0, x)."""
    return log_beta_mass(a, b, 0.0, 1.0, x, 1.0 - x)


class TestIncompleteBeta:
    """log_beta_mass on (0, x) is the log of the regularized incomplete beta
    function I_x(a, b)."""

    def test_endpoints(self):
        assert _log_cdf(0.0, 2.0, 3.0) == -math.inf
        assert _log_cdf(1.0, 2.0, 3.0) == 0.0

    def test_uniform(self):
        assert _log_cdf(0.5, 1.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_polynomial_case(self):
        """I_x(3, 2) = x^3 (4 - 3x): the Beta(3,2) CDF expanded."""
        x = 0.5
        assert math.exp(_log_cdf(x, 3.0, 2.0)) == pytest.approx(x ** 3 * (4 - 3 * x),
                                                                abs=1e-12)
        assert math.exp(_log_cdf(0.5, 3.0, 2.0)) == pytest.approx(0.3125, abs=1e-12)


class TestLogBetaMass:
    """The log-space region mass against mpmath, deep into both tails."""

    @staticmethod
    def _grid():
        rng = np.random.default_rng(20240611)
        a = np.exp(rng.uniform(math.log(0.3), math.log(3e4), 120))
        b = np.exp(rng.uniform(math.log(0.3), math.log(3e4), 120))
        x = rng.uniform(0.0, 1.0, 120)
        extreme = np.array([(7.0, 4e6, 0.5), (1e3, 7.0, 1e-3), (0.5, 300.5, 0.2),
                            (300.5, 0.5, 0.99), (2.0, 5.0, 1e-200), (1e4, 1e4, 0.3),
                            (1e4, 1e4, 0.7), (0.3, 3e4, 0.999), (3e4, 0.3, 1e-3)])
        return (np.concatenate([a, extreme[:, 0]]), np.concatenate([b, extreme[:, 1]]),
                np.concatenate([x, extreme[:, 2]]))

    def test_log_tail_against_mpmath(self):
        """Absolute on the log, relative where |log I| > 1, to 1e-12;
        betainc alone underflows on many of these points."""
        a, b, x = self._grid()
        got = _log_cdf(x, a, b)
        with mpmath.workdps(50):
            want = np.array([float(mpmath.log(mp_beta_tail(ai, bi, xi)))
                             for ai, bi, xi in zip(a, b, x)])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-12
        with np.errstate(divide="ignore"):
            assert not np.all(np.isfinite(np.log(special.betainc(a, b, x))))

    @pytest.mark.parametrize("a, b, lo, hi", [
        (3.0, 40.0, 0.2, 0.6), (40.0, 3.0, 0.2, 0.6), (200.5, 200.5, 0.45, 0.55),
        (1001.0, 1.0, 0.5, 1.0), (1.0, 2001.0, 0.5, 1.0), (701.0, 1.0, 0.0, 0.3),
        (0.5, 0.5, 1e-9, 1 - 1e-9), (5e4, 5e4, 0.4999, 0.5001),
        (2001.0, 1.0, 0.3, 0.3005), (1.0, 2001.0, 0.6995, 0.7),
    ])
    def test_region_against_mpmath(self, a, b, lo, hi):
        got = log_beta_mass(a, b, lo, 1.0 - lo, hi, 1.0 - hi)
        want = mp_log_beta_mass(a, b, lo, hi)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_whole_domain_skips_betainc(self, monkeypatch):
        def unused(*args):
            raise AssertionError("betainc called for the whole domain")

        monkeypatch.setattr(special, "betainc", unused)
        a = np.array([0.5, 3.0, 1e4])
        np.testing.assert_array_equal(log_beta_mass(a, 2.0, 0.0, 1.0, 1.0, 0.0), 0.0)

    def test_empty_region(self):
        assert log_beta_mass(2.0, 3.0, 0.4, 0.6, 0.4, 0.6) == -math.inf


class TestNormal:
    def test_cdf_at_zero(self):
        assert log_ndtr_scalar(0.0) == math.log(0.5)

    def test_two_sided_tail_matches_threshold(self):
        """2 Phi(-sqrt(1 + log 2)) = 0.193: the two-sided tail at the
        evidence crossing point (frozen at high precision)."""
        z = math.sqrt(1 + math.log(2))
        p = 2 * math.exp(log_ndtr_scalar(-z))
        assert p == pytest.approx(0.1931866205629120, abs=1e-12)
        assert round(p, 3) == 0.193
        assert math.exp(log_ndtr_scalar(1.3012)) == pytest.approx(
            0.9034049973579244, abs=1e-12)

    def test_far_tail(self):
        """Frozen from the erf identity Phi(-5) = erfc(5/sqrt(2))/2."""
        assert math.exp(log_ndtr_scalar(-5.0)) == pytest.approx(
            2.8665157187919333e-07, rel=1e-12)

    def test_quantile_inverts(self):
        ps = np.linspace(1e-12, 1 - 1e-12, 41)
        np.testing.assert_allclose(special.ndtr(normal_quantile(ps)), ps, atol=1e-12)

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
        """Against scipy's array form."""
        for x, mean, var in [(0.3, -1.2, 0.5), (40.0, 0.0, 2.0), (1e200, 0.0, 1.0)]:
            with np.errstate(over="ignore"):  # the squared distance of 1e200
                ref = stats.norm.logpdf(x, mean, math.sqrt(var))
            assert normal_log_pdf_scalar(x, mean, var) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("var", [0.0, -1.0, math.nan])
    def test_rejects_bad_variance(self, var):
        with pytest.raises(DomainError, match="variance > 0"):
            normal_log_pdf_scalar(0.0, 0.0, var)


class TestDistributions:
    def test_t_pdf_cauchy_at_zero(self):
        assert math.exp(t_log_pdf(0.0, 1.0)) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_f_cdf_equal_df_symmetry(self):
        """F(1; v, v) = 1/2: X and 1/X share the law when df match, and
        x = 1 maps to u = v / (v + v) = 1/2 of Beta(v/2, v/2)."""
        for df in (1, 2, 7, 33):
            assert math.exp(_log_cdf(0.5, 0.5 * df, 0.5 * df)) == pytest.approx(
                0.5, abs=1e-12)

    def test_noncentral_chi2_zero_ncp(self):
        x = np.array([0.1, 1.0, 5.0, 20.0])
        np.testing.assert_allclose(noncentral_chi2_cdf(x, 1, 0.0),
                                   chi2_cdf(x, 1), atol=1e-14)

    def test_noncentral_chi2_against_scipy(self):
        for (x, df, ncp) in [(1.0, 1, 0.5), (5.0, 3, 2.0), (30.0, 1, 40.0),
                             (100.0, 2, 90.0)]:
            assert noncentral_chi2_cdf(x, df, ncp) == pytest.approx(
                stats.ncx2.cdf(x, df, ncp), abs=1e-10)

    @pytest.mark.parametrize("x, ncp", [(1.0, math.nan), (1.0, math.inf),
                                        (math.nan, 2.0), (np.array([1.0, math.nan]), 2.0),
                                        (math.nan, 0.0)])
    def test_noncentral_chi2_rejects_nonfinite(self, x, ncp):
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(x, 1, ncp)

    def test_f_log_pdf_against_scipy(self):
        x = np.concatenate([np.geomspace(1e-300, 1e-3, 30), np.linspace(0.01, 50, 40),
                            np.geomspace(1e3, 1e300, 30)])
        for d1, d2 in ((1, 1), (2, 7), (5, 3), (40, 60)):
            np.testing.assert_allclose(f_log_pdf(x, d1, d2), stats.f.logpdf(x, d1, d2),
                                       rtol=1e-12, atol=1e-12)

    def test_f_log_pdf_limit_at_zero(self):
        assert f_log_pdf(0.0, 4, 5) == -math.inf
        assert f_log_pdf(0.0, 2, 5) == 0.0
        assert f_log_pdf(0.0, 1, 5) == math.inf

    def test_quantiles_invert_cdfs(self):
        """The Beta laws of the t (df/2, 1/2) and F (df1/2, df2/2) masses."""
        ps = np.array([0.001, 0.1, 0.5, 0.9, 0.999])
        for a, b in ((3.5, 0.5), (2.0, 4.5)):
            np.testing.assert_allclose(np.exp(_log_cdf(stats.beta.ppf(ps, a, b), a, b)),
                                       ps, atol=1e-12)
        np.testing.assert_allclose(chi2_cdf(stats.chi2.ppf(ps, 3), 3), ps, atol=1e-12)

    def test_cdfs_nondecreasing_and_bounded(self):
        grid = np.linspace(0.0, 1.0, 161)
        for a, b in ((0.5, 0.5), (2.0, 15.0), (15.0, 0.5)):
            vals = _log_cdf(grid, a, b)
            assert np.all(np.diff(vals) >= 0)
            assert np.all(vals <= 0.0)

    def test_cdf_matches_pdf_by_differentiation(self):
        """Central difference of the mass reproduces scipy's density to 1e-6."""
        h = 1e-6
        grid = np.linspace(0.1, 0.9, 17)
        for a, b in ((2.5, 0.5), (1.5, 4.0)):
            num = np.exp(log_beta_mass(a, b, grid - h, 1.0 - (grid - h),
                                       grid + h, 1.0 - (grid + h))) / (2 * h)
            np.testing.assert_allclose(num, stats.beta.pdf(grid, a, b), atol=1e-6)

    def test_t_approaches_normal(self):
        """P(T < -|t|) = I_{df/(df + t^2)}(df/2, 1/2) / 2 tends to Phi(-|t|)."""
        df, t = 1e6, np.linspace(0.0, 5.0, 51)
        tail = 0.5 * np.exp(_log_cdf(df / (df + t * t), 0.5 * df, 0.5))
        assert np.max(np.abs(tail - special.ndtr(-t))) < 1e-5

    def test_densities_normalize(self):
        val, _ = integrate.quad(lambda u: math.exp(t_log_pdf(u, 3)), -math.inf, math.inf)
        assert val == pytest.approx(1.0, abs=1e-8)
        val, _ = integrate.quad(lambda u: math.exp(f_log_pdf(u, 5, 7)), 0.0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            t_log_pdf(0.0, -1)
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(1.0, 1, -0.5)
        with pytest.raises(DomainError, match="df must be positive"):
            noncentral_chi2_cdf(1.0, math.nan, 2.0)


class TestQuadrature:
    """The checked QUADPACK call behind the normal oracle: infinite ranges
    at full relative precision, and a raise instead of a flagged result."""

    def test_exponential(self):
        assert _checked_quad(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(
            1.0, abs=1e-10)

    def test_gaussian(self):
        val = _checked_quad(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
                            -math.inf, math.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_nonconvergence_is_flagged(self):
        with pytest.raises(NonConvergedError) as info:
            _checked_quad(lambda x: math.cos(40.0 * x * x), 0.0, 20.0, limit=2)
        assert info.value.error_estimate > 1e-12 * abs(info.value.value)


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
