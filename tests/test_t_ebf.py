"""t-statistic factors: marginals, the bias table, and its oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ebfkit.core import HypothesisRegion
from ebfkit.exceptions import DomainError
from ebfkit.numerics import t_log_pdf, t_pdf
from ebfkit.t_ebf import (
    ebf_t,
    log_leading_constant,
    region_bias,
    t_expected_bias,
    t_posterior_marginal,
)

BIAS_TARGETS = {1: 1.39, 2: 0.860, 3: 0.710, 4: 0.644, 5: 0.608,
              6: 0.586, 7: 0.571, 8: 0.560, 9: 0.552, 10: 0.546}

POINT0 = HypothesisRegion.point(0.0)
FULL = HypothesisRegion.full()


class TestPosteriorMarginal:
    def test_full_line_is_leading_constant(self):
        """Both region masses are 1, leaving only c(df)."""
        for df in (1, 3, 12):
            m = t_posterior_marginal(0.7, df, FULL)
            assert m.log_value == pytest.approx(log_leading_constant(df), abs=1e-14)
            assert not m.corrected

    def test_leading_constant_closed_form_df1(self):
        """c(1) = 1/(2 pi)."""
        assert log_leading_constant(1) == pytest.approx(-math.log(2 * math.pi), rel=1e-14)

    def test_leading_constant_is_integral_of_squared_density(self):
        for df in (1, 2, 6):
            val, _ = integrate.quad(lambda u: t_pdf(u, df) ** 2, -np.inf, np.inf,
                                    epsabs=1e-13)
            assert log_leading_constant(df) == pytest.approx(math.log(val), abs=1e-10)

    def test_normal_limit(self):
        """c(df) approaches 1/sqrt(4 pi) for large df."""
        target = -0.5 * math.log(4 * math.pi)
        assert t_posterior_marginal(0.0, 1e4, FULL).log_value == pytest.approx(
            target, abs=1e-3)

    def test_half_line_at_symmetry_point(self):
        """Both masses are 1/2 at t = 0, so the constant survives."""
        for df in (1, 5):
            m = t_posterior_marginal(0.0, df, HypothesisRegion.above(0.0))
            assert m.log_value == pytest.approx(log_leading_constant(df), abs=1e-12)

    def test_point_region_is_density(self):
        m = t_posterior_marginal(1.5, 4, HypothesisRegion.point(0.5))
        assert m.log_value == pytest.approx(t_log_pdf(1.0, 4), abs=1e-14)

    def test_df_validation(self):
        with pytest.raises(DomainError):
            t_posterior_marginal(0.0, 0.5, FULL)


class TestExpectedBias:
    def test_table_values(self):
        for df, target in BIAS_TARGETS.items():
            got = t_expected_bias(df)
            assert got.value == pytest.approx(target, abs=0.01)
            assert got.provenance == "quadrature"
            assert got.achieved_error < 1e-4

    def test_df_30(self):
        assert t_expected_bias(30).value == pytest.approx(0.513, abs=0.005)

    def test_exact_value_at_df1(self):
        """The df = 1 bias has the closed value 2 log 2."""
        assert t_expected_bias(1).value == pytest.approx(2 * math.log(2), abs=1e-5)

    def test_monotone_decreasing_towards_half(self):
        vals = [t_expected_bias(df).value for df in range(1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.5

    def test_large_df_uses_normal_constant(self):
        assert t_expected_bias(201).value == 0.5
        assert t_expected_bias(200).value == pytest.approx(0.5, abs=2e-3)

    def test_welch_fractional_df(self):
        v = t_expected_bias(6.5).value
        assert t_expected_bias(7).value < v < t_expected_bias(6).value

    def test_region_fractions(self):
        full = t_expected_bias(5).value
        assert region_bias(HypothesisRegion.above(1.0), 5).value == pytest.approx(full / 2)
        assert region_bias(HypothesisRegion.interval(0, 1), 5).value == 0.0
        assert region_bias(POINT0, 5).value == 0.0

    def test_cached(self):
        assert t_expected_bias(5) is t_expected_bias(5)


import functools


@functools.lru_cache(maxsize=None)
def _oracle_bias_double_integral(df, shift=0.0):
    """Direct nested quadrature of the defining full-line bias double
    integral, with the prior predictive optionally shifted in location.

    Independent of the production path: inner integrals and the outer
    expectation all go through scipy quad on the raw integrands.  The outer
    domain is truncated at 30 density widths, which bounds the neglected
    mass far below the comparison tolerance for df >= 3.
    """
    from scipy.special import gammaln

    norm = math.exp(gammaln((df + 1) / 2) - gammaln(df / 2)) / math.sqrt(df * math.pi)
    power = -(df + 1) / 2

    def pdf(u):
        return norm * (1.0 + u * u / df) ** power

    def inner_cross(x, y):
        lo, hi = min(x, y) - 60.0, max(x, y) + 60.0
        val, _ = integrate.quad(lambda u: pdf(x - u) * pdf(u - y),
                                lo, hi, points=[x, y], epsabs=1e-12, limit=200)
        return val

    def outer_y(x):
        log_own = math.log(inner_cross(x, x))
        val, _ = integrate.quad(
            lambda y: pdf(y - shift) * (log_own - math.log(inner_cross(x, y))),
            shift - 30.0, shift + 30.0, points=[x] if abs(x - shift) < 30 else None,
            epsabs=1e-9, limit=100)
        return val

    val, _ = integrate.quad(lambda x: pdf(x - shift) * outer_y(x),
                            shift - 30.0, shift + 30.0,
                            epsabs=1e-7, limit=50)
    return val


@pytest.mark.slow
class TestBiasOracle:
    def test_matches_direct_double_integral(self):
        """The entropy-form evaluation agrees with brute-force nested
        quadrature of the defining double integral.  The oracle truncates
        the outer expectation at 30 density widths, which costs about 1e-3
        for df = 3, hence the comparison tolerance."""
        oracle = _oracle_bias_double_integral(3)
        assert t_expected_bias(3).value == pytest.approx(oracle, abs=5e-3)

    def test_location_invariance(self):
        """Shifting the prior predictive leaves the bias unchanged."""
        at_zero = _oracle_bias_double_integral(4)
        shifted = _oracle_bias_double_integral(4, shift=0.7)
        assert abs(shifted - at_zero) < 1e-6


class TestEbfT:
    def test_cauchy_point_null_at_zero(self):
        """(1/pi) e^bias / c(1) = 2 e^bias; about 8.0 with the computed
        bias, 8.03 with the table's rounded 1.39."""
        r = ebf_t(0.0, 1, POINT0, FULL)
        expect = 2.0 * math.exp(t_expected_bias(1).value)
        assert r.ebf01 == pytest.approx(expect, rel=1e-10)
        assert r.ebf01 == pytest.approx(2.0 * math.exp(1.39), rel=0.01)

    def test_identical_regions(self):
        r = ebf_t(1.2, 7, HypothesisRegion.above(0.0), HypothesisRegion.above(0.0))
        assert r.ebf01 == pytest.approx(1.0, rel=1e-14)

    def test_matches_normal_at_huge_df(self):
        from ebfkit.normal_ebf import ebf_two_sided
        for t in (0.0, 1.0, 2.5):
            a = ebf_t(t, 1e4, POINT0, FULL)
            b = ebf_two_sided(t)
            assert a.ebf01 == pytest.approx(b.ebf01, rel=0.01)

    def test_symmetric_in_sign_for_symmetric_regions(self):
        r_pos = ebf_t(1.3, 6, POINT0, FULL)
        r_neg = ebf_t(-1.3, 6, POINT0, FULL)
        assert r_pos.ebf01_log == pytest.approx(r_neg.ebf01_log, abs=1e-12)

    def test_report_carries_biases(self):
        r = ebf_t(1.0, 5, POINT0, FULL)
        assert r.bias_h0.value == 0.0
        assert r.bias_h1.value == pytest.approx(t_expected_bias(5).value)

    def test_half_line_far_above_the_statistic(self):
        """The mass of above:0 about t = -40 is a lower-tail mass; taken
        as 1 - CDF it cancels to 0."""
        below, above = HypothesisRegion.below(0.0), HypothesisRegion.above(0.0)
        pos = ebf_t(40.0, 30, below, above).ebf01_log
        assert pos == pytest.approx(-62.275, abs=1e-3)
        assert ebf_t(-40.0, 30, below, above).ebf01_log == pytest.approx(-pos, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(-30.0, 30.0), df=st.sampled_from([5.0, 30.0, 300.0]),
       a=st.floats(-3.0, 3.0), width=st.floats(0.0, 4.0))
def test_reflection_swaps_half_lines(t, df, a, width):
    """t -> -t maps below:a to above:-a, so below:a against above:b at -t
    is the negated factor of below:-b against above:-a at t."""
    b = a + width
    got = ebf_t(-t, df, HypothesisRegion.below(a), HypothesisRegion.above(b)).ebf01_log
    want = ebf_t(t, df, HypothesisRegion.below(-b), HypothesisRegion.above(-a)).ebf01_log
    assert got == pytest.approx(-want, rel=1e-9, abs=1e-9)


class TestRejectsBadInput:
    """NaN, inf and out-of-domain input raise a DomainError naming it."""

    @pytest.mark.parametrize("t, df, name", [
        (math.nan, 10, "t"), (math.inf, 10, "t"), (-math.inf, 10, "t"),
        (1.0, math.nan, "df"), (1.0, math.inf, "df"), (1.0, 0.5, "df"),
    ])
    def test_ebf_t(self, t, df, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            ebf_t(t, df, HypothesisRegion.below(0.0), HypothesisRegion.above(0.0))

    @pytest.mark.parametrize("t, df, name", [
        (math.nan, 5, "t"), (math.inf, 5, "t"), (1.0, math.nan, "df"), (1.0, math.inf, "df"),
    ])
    def test_posterior_marginal(self, t, df, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            t_posterior_marginal(t, df, FULL)

    @pytest.mark.parametrize("df", [math.nan, math.inf, 0.5])
    def test_expected_bias(self, df):
        with pytest.raises(DomainError, match="^df must be"):
            t_expected_bias(df)

    @pytest.mark.parametrize("df", [math.nan, math.inf, 0.0])
    def test_leading_constant(self, df):
        with pytest.raises(DomainError, match="^df must be"):
            log_leading_constant(df)
