"""F-statistic factors: scale-region marginals, the bias grid, the
one-sided analysis-of-variance form."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import fdtr

from ebfkit.core import HypothesisRegion
from ebfkit.exceptions import DegenerateRegionError, DomainError, UnsupportedRegionError
from ebfkit.f_ebf import (
    ebf_anova,
    ebf_f,
    f_expected_bias,
    f_posterior_marginal,
    log_scale_constant,
    region_bias,
)

FULL = HypothesisRegion.full()
UNIT_POINT = HypothesisRegion.point(1.0)
BELOW_ONE = HypothesisRegion.below(1.0)

BIAS_TARGETS_SUBSET = {(1, 1): 0.609, (1, 10): 0.670, (5, 10): 0.526,
                (20, 20): 0.506, (50, 50): 0.503}


class TestPosteriorMarginal:
    def test_full_region_at_unit_statistic(self):
        """At x = 1 the full-region marginal is the scale constant."""
        for d1, d2 in ((1, 1), (3, 8)):
            m = f_posterior_marginal(1.0, d1, d2, FULL)
            assert m.log_value == pytest.approx(log_scale_constant(d1, d2), abs=1e-12)

    def test_one_one_lower_region(self):
        """Equal-df symmetry pins the masses at 1/2, leaving 1/pi^2."""
        m = f_posterior_marginal(1.0, 1, 1, BELOW_ONE)
        assert math.exp(m.log_value) == pytest.approx(1 / math.pi ** 2, rel=1e-10)

    def test_scale_constant_is_integral_identity(self):
        """Kf equals the integral of r f(r)^2 dr."""
        for d1, d2 in ((1, 1), (2, 5), (6, 3)):
            val, _ = integrate.quad(lambda r: r * stats.f.pdf(r, d1, d2) ** 2,
                                    0, np.inf, epsabs=1e-12, limit=200)
            assert log_scale_constant(d1, d2) == pytest.approx(math.log(val), abs=1e-8)

    def test_region_rescaling_identity(self):
        """Scaling x by c and the region by 1/c shifts log M by -log c."""
        region = HypothesisRegion.interval(0.5, 2.0)
        scaled = HypothesisRegion.interval(0.5 / 3.0, 2.0 / 3.0)
        m1 = f_posterior_marginal(1.2, 4, 6, region)
        m2 = f_posterior_marginal(3.6, 4, 6, scaled)
        assert m2.log_value == pytest.approx(m1.log_value - math.log(3.0), abs=1e-10)

    def test_point_region_is_likelihood(self):
        m = f_posterior_marginal(2.0, 3, 5, HypothesisRegion.point(0.7))
        assert m.log_value == pytest.approx(
            math.log(0.7 * stats.f.pdf(0.7 * 2.0, 3, 5)), abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            f_posterior_marginal(-1.0, 2, 2, FULL)
        with pytest.raises(DomainError):
            f_posterior_marginal(1.0, 0.5, 2, FULL)


class TestExpectedBias:
    def test_table_subset(self):
        for (d1, d2), target in BIAS_TARGETS_SUBSET.items():
            got = f_expected_bias(d1, d2)
            assert got.value == pytest.approx(target, abs=0.01)
            assert got.provenance == "quadrature"
            assert got.achieved_error < 1e-4

    def test_symmetry_in_df(self):
        """Swapping numerator and denominator dfs leaves the bias fixed;
        the two orders are computed independently."""
        assert f_expected_bias(5, 10).value == pytest.approx(
            f_expected_bias(10, 5).value, abs=1e-5)

    def test_diagonal_approaches_half(self):
        assert f_expected_bias(50, 50).value == pytest.approx(0.503, abs=0.005)
        assert f_expected_bias(50, 50).value > 0.5

    def test_two_two_closed_form_density(self):
        """F(2, 2) is a ratio of two unit exponentials, so log F is standard
        logistic and W is the difference of two independent logistics, whose
        density is known in closed form.  The bias is log q(0) + H(q) with
        q(0) = 1/6 and H by plain quadrature of that density."""
        def q(w):
            w = abs(w)
            if w < 0.5:  # the closed form cancels near 0
                return (1 / 6 - w ** 2 / 60 + w ** 4 / 1008 - w ** 6 / 21600
                        + w ** 8 / 532224 - 691 * w ** 10 / 9906624000)
            t = math.exp(-w)
            return ((w - 2) * t + (w + 2) * t * t) / (1 - t) ** 3

        def neg_q_log_q(w):
            qw = q(w)
            return -qw * math.log(qw) if qw > 0 else 0.0

        near, _ = integrate.quad(neg_q_log_q, 0.0, 0.5, epsabs=1e-14, epsrel=1e-13)
        far, _ = integrate.quad(neg_q_log_q, 0.5, 100.0, epsabs=1e-14, epsrel=1e-13,
                                limit=200)
        expected = math.log(1 / 6) + 2.0 * (near + far)
        assert expected == pytest.approx(0.5643494610, abs=1e-10)
        assert abs(f_expected_bias(2, 2).value - expected) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(df1=st.floats(1.0, 1e4), df2=st.floats(1.0, 1e4))
    def test_symmetric_above_half_and_settled(self, df1, df2):
        forward, backward = f_expected_bias(df1, df2), f_expected_bias(df2, df1)
        assert abs(forward.value - backward.value) < 1e-12
        assert forward.value > 0.5
        assert forward.achieved_error < 1e-6

    def test_region_rules(self):
        full = f_expected_bias(2, 3).value
        assert region_bias(FULL, 2, 3).value == full
        assert region_bias(BELOW_ONE, 2, 3).value == full
        assert region_bias(UNIT_POINT, 2, 3).value == 0.0
        with pytest.raises(UnsupportedRegionError):
            region_bias(HypothesisRegion.above(1.0), 2, 3)
        with pytest.raises(UnsupportedRegionError):
            region_bias(HypothesisRegion.interval(0.5, 2.0), 2, 3)


# one value per argument tuple for the whole session; the two oracle tests
# share the unit-scale (4, 8) integral
@functools.cache
def _oracle_bias_double_integral(d1, d2, scale=1.0):
    """Brute-force nested quadrature of the defining bias double integral
    over the prior predictive, with the data optionally generated at a
    non-unit scale.  Inner integrals run on the log-scale axis."""
    from scipy.special import betaln

    norm = math.exp(-betaln(d1 / 2, d2 / 2) + (d1 / 2) * math.log(d1 / d2))
    p1, p2 = d1 / 2 - 1.0, -(d1 + d2) / 2

    def pdf(z):
        return norm * z ** p1 * (1.0 + d1 * z / d2) ** p2

    def inner(x, y):
        def g(u):
            r = math.exp(u)
            return r * r * x * pdf(r * x) * pdf(r * y)
        val, _ = integrate.quad(g, -30.0, 30.0, epsabs=1e-13, limit=200)
        return val

    def outer_y(x):
        log_own = math.log(inner(x, x))

        def h(y):
            return (scale * pdf(scale * y)
                    * (log_own - math.log(inner(x, y))))
        val, _ = integrate.quad(h, 0.0, 60.0 / scale, points=[x, 1.0 / scale],
                                epsabs=1e-10, limit=100)
        return val

    val, _ = integrate.quad(
        lambda x: scale * pdf(scale * x) * outer_y(x),
        0.0, 60.0 / scale, points=[1.0 / scale], epsabs=1e-8, limit=50)
    return val


@pytest.mark.slow
class TestBiasOracle:
    def test_matches_direct_double_integral(self):
        """The entropy-form evaluation agrees with brute-force nested
        quadrature; truncating the outer expectation at 60 is negligible at
        these dfs (tail mass ~1e-6)."""
        oracle = _oracle_bias_double_integral(4, 8)
        assert f_expected_bias(4, 8).value == pytest.approx(oracle, abs=2e-3)

    def test_scale_invariance(self):
        """Generating the data at a different scale cannot move the bias."""
        at_one = _oracle_bias_double_integral(4, 8)
        at_other = _oracle_bias_double_integral(4, 8, scale=2.5)
        assert abs(at_other - at_one) < 1e-6


class TestAnova:
    def test_unit_statistic_equal_df(self):
        """f(1)/(Kf/2 / (1 * 1/2) e^-bias) with f(1;1,1) = 1/(2 pi)."""
        r = ebf_anova(1.0, 1, 1)
        bias = f_expected_bias(1, 1).value
        expect = (1 / (2 * math.pi)) / ((1 / math.pi ** 2) * math.exp(-bias))
        assert r.ebf01 == pytest.approx(expect, rel=1e-10)
        assert r.ebf01 == pytest.approx(2.89, abs=0.01)

    def test_closed_form_identity(self):
        """The CDF-ratio closed form and the generic region marginal agree
        to 1e-10."""
        for x in (0.3, 1.0, 4.2):
            for d1, d2 in ((1, 1), (3, 12)):
                closed = (log_scale_constant(d1, d2)
                          + math.log(fdtr(2 * d1, 2 * d2, x))
                          - math.log(x) - math.log(fdtr(d1, d2, x)))
                m = f_posterior_marginal(x, d1, d2, BELOW_ONE)
                assert m.log_value == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("x, df1, df2, value", [
        (10.0, 5, 50, -14.1989279226479), (20.0, 5, 50, -24.3213911993756),
        (60.0, 5, 50, -45.9815303268307), (1e10, 5, 2, -46.7448490405575),
    ])
    def test_upper_tail_marginal(self, x, df1, df2, value):
        """Scales above 1 put the statistic deep in the upper tail, where
        1 - CDF is rounding residue or 0; references from mpmath at 60
        digits."""
        got = f_posterior_marginal(x, df1, df2, HypothesisRegion.above(1.0)).log_value
        assert got == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("x, df1, df2, value", [
        (1.5e308, 3, 5, -2481.3940824107144), (1.5e308, 1, 1, -1066.2403876918207),
        (1.7976931348623157e308, 3, 5, -2482.0277194115986),
    ])
    def test_upper_tail_where_df1_x_overflows(self, x, df1, df2, value):
        """Here df1 x is above the largest double; the complement of the
        bound's image is taken as (df2/df1)/x.  References from mpmath at 60
        digits."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_posterior_marginal(x, df1, df2, HypothesisRegion.above(1.0)).log_value
        assert got == pytest.approx(value, rel=1e-12)

    def test_empty_image_is_degenerate(self):
        """below:1e-300 scaled by x = 1e-300 maps to the empty interval
        (0, 0): a region mass that underflows, not a bad input."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRegionError, match="^region mass underflows"):
                f_posterior_marginal(1e-300, 3, 5, HypothesisRegion.below(1e-300))

    def test_large_statistic_overwhelms_null(self):
        vals = [ebf_anova(x, 3, 10).ebf01 for x in (5.0, 20.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ebf_anova(0.0, 2, 2)


class TestEbfF:
    def test_identical_regions(self):
        r = ebf_f(1.5, 2, 8, BELOW_ONE, BELOW_ONE)
        assert r.ebf01 == pytest.approx(1.0, rel=1e-14)

    def test_anova_is_point_vs_lower(self):
        a = ebf_anova(2.0, 3, 9)
        b = ebf_f(2.0, 3, 9, UNIT_POINT, BELOW_ONE)
        assert a.ebf01_log == b.ebf01_log


class TestRejectsBadInput:
    """NaN, inf and out-of-domain input raise a DomainError naming it."""

    BAD = [
        ((math.nan, 3, 20), "the observed F value x"), ((math.inf, 3, 20), "the observed F value x"),
        ((0.0, 3, 20), "the observed F value x"), ((2.0, math.nan, 20), "df1"),
        ((2.0, 0.5, 20), "df1"), ((2.0, 3, math.nan), "df2"), ((2.0, 3, math.inf), "df2"),
    ]

    @pytest.mark.parametrize("args, name", BAD)
    def test_ebf_anova(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            ebf_anova(*args)

    @pytest.mark.parametrize("args, name", BAD)
    def test_ebf_f(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            ebf_f(*args, UNIT_POINT, FULL)

    @pytest.mark.parametrize("args, name", BAD)
    def test_posterior_marginal(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            f_posterior_marginal(*args, BELOW_ONE)

    @pytest.mark.parametrize("df1, df2, name", [
        (math.nan, 20, "df1"), (math.inf, 20, "df1"), (3, math.nan, "df2"), (3, math.inf, "df2"),
    ])
    def test_expected_bias(self, df1, df2, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            f_expected_bias(df1, df2)
        with pytest.raises(DomainError, match=f"^{name} must be"):
            log_scale_constant(df1, df2)
