"""P-value factors: the closed-form marginal, the log(5/2) bias, the 10p
rule, and the comparator bounds."""

import math

import numpy as np
import pytest
from scipy import integrate

from ebfkit.calibration import held_ott_bound, sellke_bound
from ebfkit.exceptions import DomainError
from ebfkit.pvalue_ebf import (
    DEFAULT_LOG_BIAS,
    ebf_pvalue,
    posterior_prob_h0,
    pvalue_expected_bias,
    pvalue_posterior_marginal,
)


class TestPosteriorMarginal:
    def test_anchor_at_005(self):
        assert math.exp(pvalue_posterior_marginal(0.05)) == pytest.approx(
            5.136, abs=5e-4)

    def test_anchor_at_001(self):
        assert math.exp(pvalue_posterior_marginal(0.01)) == pytest.approx(
            25.13, abs=5e-3)

    def test_matches_direct_quadrature(self):
        """The closed forms reproduce the defining integrals over the shape
        parameter to 1e-8.  The b-integrals decay like exp(b log(1-p)), so
        the oracle integrates over 60 decay lengths on a finite interval."""
        for p in (1e-6, 1e-3, 0.05, 0.4, 0.9, 1 - 1e-6):
            log1m = math.log1p(-p)
            b_max = 1.0 + 60.0 / (-log1m)
            num, _ = integrate.quad(
                lambda b: b * b * math.exp((2 * b - 1) * log1m), 1, b_max,
                epsabs=1e-300, epsrel=1e-12, limit=300)
            den, _ = integrate.quad(
                lambda b: b * math.exp(b * log1m), 1, b_max,
                epsabs=1e-300, epsrel=1e-12, limit=300)
            assert pvalue_posterior_marginal(p) == pytest.approx(
                math.log(num / den), abs=1e-8)

    def test_stable_near_one(self):
        """The ratio tends to 1/2 as p -> 1 and stays finite at 1 - 1e-12."""
        assert math.exp(pvalue_posterior_marginal(1 - 1e-12)) == pytest.approx(
            0.5, abs=1e-3)
        grid = 1 - np.geomspace(1e-12, 0.5, 50)
        vals = np.asarray(pvalue_posterior_marginal(grid))
        assert np.all(np.isfinite(vals))

    def test_stable_near_zero(self):
        """The 10p behaviour survives down to p = 1e-300."""
        for p in (1e-10, 1e-100, 1e-300):
            log_ebf01 = DEFAULT_LOG_BIAS - pvalue_posterior_marginal(p)
            assert log_ebf01 == pytest.approx(math.log(10 * p), rel=1e-6)

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                pvalue_posterior_marginal(p)


class TestExpectedBias:
    def test_default_constant(self):
        assert DEFAULT_LOG_BIAS == pytest.approx(math.log(2.5), rel=1e-15)
        assert DEFAULT_LOG_BIAS == pytest.approx(0.9163, abs=5e-5)

    def test_near_constant_over_shapes(self):
        """Within 0.1 of log(5/2) across a wide band of alternative
        shapes."""
        for beta in (1.5, 2.0, 5.0, 10.0, 25.0, 50.0):
            got = pvalue_expected_bias(beta)
            assert got.value == pytest.approx(DEFAULT_LOG_BIAS, abs=0.1)
            assert got.provenance == "quadrature"

    def test_rejects_uniform_or_less(self):
        with pytest.raises(DomainError):
            pvalue_expected_bias(1.0)


class TestEbfPvalue:
    def test_one_in_two_oh_five(self):
        r = ebf_pvalue(0.05)
        assert r.ebf01 == pytest.approx(1 / 2.05, rel=0.005)

    def test_half_percent_standard(self):
        r = ebf_pvalue(0.005)
        assert r.ebf01 == pytest.approx(0.050, abs=5e-4)
        assert posterior_prob_h0(0.005) == pytest.approx(0.048, abs=1e-3)

    def test_large_p_favours_null(self):
        assert ebf_pvalue(0.5).ebf01 > 1.0
        assert ebf_pvalue(0.9).ebf01 > 1.0

    def test_ten_p_rule(self):
        """Relative deviation from 10p shrinks monotonically as p falls and
        is below 5% from 0.09 downwards."""
        grid = np.geomspace(1e-8, 0.09, 200)
        dev = np.array([abs(ebf_pvalue(float(p)).ebf01 / (10 * p) - 1)
                        for p in grid])
        assert np.all(dev < 0.05)
        coarse = np.array([abs(ebf_pvalue(float(p)).ebf01 / (10 * p) - 1)
                           for p in (0.1, 0.05, 0.01, 0.001)])
        assert np.all(np.diff(coarse) < 0)

    def test_comparator_bounds_at_005(self):
        """The exact factor sits above both lower bounds at p = 0.05."""
        ours = ebf_pvalue(0.05).ebf01
        sellke = sellke_bound(0.05)
        ho = held_ott_bound(0.05)
        assert sellke == pytest.approx(1 / 2.45, abs=2e-3)
        assert ho == pytest.approx(1 / 7.55, abs=2e-4)
        assert ho < sellke < ours

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_rejects_bad_p(self, p):
        with pytest.raises(DomainError, match=r"P-values .* got"):
            ebf_pvalue(p)


class TestPosteriorProb:
    def test_one_third_at_005(self):
        assert posterior_prob_h0(0.05) == pytest.approx(1 / 3, abs=0.01)

    def test_prior_odds_limit(self):
        assert posterior_prob_h0(0.05, prior_odds=1e12) == pytest.approx(1.0, abs=1e-6)
        assert posterior_prob_h0(0.05, prior_odds=1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_bad_odds(self):
        with pytest.raises(DomainError):
            posterior_prob_h0(0.05, prior_odds=0.0)

    @pytest.mark.parametrize("odds", [math.nan, math.inf])
    def test_rejects_nonfinite_odds(self, odds):
        with pytest.raises(DomainError, match="prior odds"):
            posterior_prob_h0(0.05, prior_odds=odds)
