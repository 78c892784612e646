"""Binomial and negative-binomial factors: exact marginals, exact bias
sums, series truncation, and model averaging."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ebfkit.core import HypothesisRegion, LogMarginal, BiasValue
from ebfkit.count_ebf import (
    BINOMIAL,
    NEGATIVE_BINOMIAL,
    CountData,
    binom_expected_bias,
    binom_posterior_marginal,
    ebf_binom,
    ebf_count,
    ebf_negbinom,
    model_average,
    negbinom_expected_bias,
    negbinom_posterior_marginal,
)
from ebfkit.exceptions import DomainError
from ebfkit.core import make_report

FULL = HypothesisRegion.full()
HALF = HypothesisRegion.point(0.5)

BIAS_TARGETS = {1: 0.231, 2: 0.316, 3: 0.360, 4: 0.387, 5: 0.405,
              6: 0.418, 7: 0.428, 8: 0.436, 9: 0.442, 10: 0.447}


def _frac_beta(a: int, b: int) -> Fraction:
    """B(a, b) for integer arguments as an exact rational."""
    return (Fraction(math.factorial(a - 1)) * math.factorial(b - 1)
            / math.factorial(a + b - 1))


class TestCountData:
    def test_validation(self):
        with pytest.raises(DomainError):
            CountData(5, 3)
        with pytest.raises(DomainError):
            CountData(0, 3, NEGATIVE_BINOMIAL)
        with pytest.raises(DomainError):
            CountData(1, 2, "poisson")
        with pytest.raises(DomainError):
            CountData(1, 2, alpha=0.0)


    @pytest.mark.parametrize("args, match", [
        ((1, 5, BINOMIAL, math.nan), "^prior shape alpha must be"),
        ((1, 5, BINOMIAL, math.inf), "^prior shape alpha must be"),
        ((math.nan, 5, NEGATIVE_BINOMIAL), "^successes and trials must be finite"),
        ((1, math.inf, BINOMIAL), "^successes and trials must be finite"),
        ((2, math.nan, NEGATIVE_BINOMIAL), "^successes and trials must be finite"),
    ])
    def test_rejects_nonfinite(self, args, match):
        with pytest.raises(DomainError, match=match):
            CountData(*args)

    @pytest.mark.parametrize("args, name", [
        ((2.5, 5.5, BINOMIAL), "successes"),
        ((2, 5.5, BINOMIAL), "trials"),
        ((1.5, 4, NEGATIVE_BINOMIAL), "successes"),
        ((2, 4.25, NEGATIVE_BINOMIAL), "trials"),
    ])
    def test_rejects_fractional_counts(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
            CountData(*args)

    @pytest.mark.parametrize("model", [BINOMIAL, NEGATIVE_BINOMIAL])
    def test_integral_floats_are_counts(self, model):
        got = binom_posterior_marginal if model == BINOMIAL else negbinom_posterior_marginal
        assert (got(CountData(3.0, 10.0, model), FULL).log_value
                == got(CountData(3, 10, model), FULL).log_value)


class TestBinomialMarginal:
    def test_all_successes_closed_form(self):
        """x = n with the uniform prior collapses to (n+1)/(2n+1)."""
        for n in (1, 2, 5, 20):
            m = binom_posterior_marginal(CountData(n, n), FULL)
            assert math.exp(m.log_value) == pytest.approx((n + 1) / (2 * n + 1),
                                                          rel=1e-12)

    def test_single_failure_closed_form(self):
        """n = 1, x = 0: B(1,3)/B(1,2) = 2/3."""
        m = binom_posterior_marginal(CountData(0, 1), FULL)
        assert math.exp(m.log_value) == pytest.approx(2 / 3, rel=1e-12)

    def test_success_failure_symmetry(self):
        """x and n - x swap under p -> 1 - p for symmetric regions."""
        for region in (FULL, HypothesisRegion.interval(0.25, 0.75)):
            a = binom_posterior_marginal(CountData(3, 10), region)
            b = binom_posterior_marginal(CountData(7, 10), region)
            assert a.log_value == pytest.approx(b.log_value, abs=1e-12)

    def test_point_region_is_pmf(self):
        m = binom_posterior_marginal(CountData(3, 10), HALF)
        expect = math.comb(10, 3) * 0.5 ** 10
        assert math.exp(m.log_value) == pytest.approx(expect, rel=1e-12)

    def test_extreme_point_hypotheses(self):
        assert binom_posterior_marginal(CountData(0, 4), HypothesisRegion.point(0.0)
                                        ).log_value == 0.0
        assert binom_posterior_marginal(CountData(4, 4), HypothesisRegion.point(1.0)
                                        ).log_value == 0.0


class TestBinomialBias:
    def test_targets_to_three_decimals(self):
        for n, target in BIAS_TARGETS.items():
            got = binom_expected_bias(n)
            assert got.provenance == "exact-sum"
            assert abs(got.value - target) < 5e-4

    def test_n1_closed_form(self):
        """The n = 1 full-region bias is exactly (log 2)/3."""
        assert binom_expected_bias(1).value == pytest.approx(math.log(2) / 3,
                                                             abs=1e-14)

    def test_monotone_increasing_towards_half(self):
        vals = [binom_expected_bias(n).value for n in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5

    def test_region_reflection_symmetry(self):
        a = binom_expected_bias(6, HypothesisRegion.below(0.3))
        b = binom_expected_bias(6, HypothesisRegion.above(0.7))
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_prior_predictive_uniform(self):
        """With alpha = 1 the joint predictive row sums are 1/(n+1)."""
        from ebfkit.numerics import log_beta, log_gamma
        for n in (1, 4, 9):
            x = np.arange(n + 1, dtype=float)
            lc = (log_gamma(n + 1.0) - log_gamma(x + 1.0) - log_gamma(n - x + 1.0))
            lpr = (lc[:, None] + lc[None, :]
                   + log_beta(x[:, None] + x[None, :] + 1.0,
                              2 * n - x[:, None] - x[None, :] + 1.0))
            rows = np.exp(lpr).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0 / (n + 1), atol=1e-12)


class TestEbfBinom:
    def test_identical_regions(self):
        d = CountData(4, 9)
        r = ebf_binom(d, FULL, FULL)
        assert r.ebf01 == pytest.approx(1.0, rel=1e-14)

    def test_single_trial_anchor(self):
        """n = 1, x = 1: (1/2) e^{bias} / (2/3) with bias log(2)/3."""
        r = ebf_binom(CountData(1, 1), HALF, FULL)
        expect = 0.5 * math.exp(math.log(2) / 3) * 1.5
        assert r.ebf01 == pytest.approx(expect, rel=1e-12)
        assert r.ebf01 == pytest.approx(0.945, abs=1e-3)

    def test_balanced_case_against_rational_oracle(self):
        """n = 10, x = 5 point-vs-full, with the marginals recomputed from
        exact rational beta functions."""
        n, x = 10, 5
        m0 = Fraction(math.comb(n, x)) / Fraction(2 ** n)
        m1 = (Fraction(math.comb(n, x))
              * _frac_beta(2 * x + 1, 2 * (n - x) + 1)
              / _frac_beta(x + 1, n - x + 1))
        oracle_log = (math.log(float(m0))
                      - (math.log(float(m1)) - binom_expected_bias(n).value))
        r = ebf_binom(CountData(x, n), HALF, FULL)
        assert r.ebf01_log == pytest.approx(oracle_log, abs=1e-12)


class TestNegativeBinomial:
    def test_marginal_uses_shifted_choose(self):
        """Same beta structure as the binomial, C(n-1, x-1) in front."""
        x, n = 3, 10
        mb = binom_posterior_marginal(CountData(x, n), FULL)
        mnb = negbinom_posterior_marginal(CountData(x, n, NEGATIVE_BINOMIAL), FULL)
        assert mnb.log_value - mb.log_value == pytest.approx(
            math.log(math.comb(n - 1, x - 1) / math.comb(n, x)), abs=1e-12)

    def test_models_disagree_in_general(self):
        """The same counts carry different evidence under the two sampling
        schemes."""
        rb = ebf_binom(CountData(3, 10), HALF, FULL)
        rnb = ebf_negbinom(CountData(3, 10, NEGATIVE_BINOMIAL), HALF, FULL)
        assert abs(rb.ebf01_log - rnb.ebf01_log) > 1e-3

    def test_no_failures_difference_is_pure_bias(self):
        """At x = n the two likelihood curves coincide, so the factors can
        differ only through the bias terms."""
        n = 6
        rb = ebf_binom(CountData(n, n), HALF, FULL)
        rnb = ebf_negbinom(CountData(n, n, NEGATIVE_BINOMIAL), HALF, FULL)
        bias_diff = (negbinom_expected_bias(n).value
                     - binom_expected_bias(n).value)
        assert rnb.ebf01_log - rb.ebf01_log == pytest.approx(bias_diff, abs=1e-12)

    def test_bias_against_brute_force_lattice(self):
        """The three-series decomposition matches a direct truncated double
        sum over the (observed, replicate) trial lattice."""
        from ebfkit.numerics import log_beta, log_gamma
        x, alpha, N = 2, 1.0, 3000
        f = np.arange(N, dtype=float)
        lc = log_gamma(f + x) - log_gamma(float(x)) - log_gamma(f + 1.0)
        lpr = (lc[:, None] + lc[None, :]
               + log_beta(2 * x + alpha, f[:, None] + f[None, :] + alpha)
               - log_beta(alpha, alpha))
        own = log_beta(2 * x + alpha, 2 * f + alpha) - log_beta(x + alpha, f + alpha)
        cross = (log_beta(2 * x + alpha, f[:, None] + f[None, :] + alpha)
                 - log_beta(x + alpha, f[None, :] + alpha))
        brute = float(np.sum(np.exp(lpr) * (own[:, None] - cross)))
        got = negbinom_expected_bias(x)
        assert got.value == pytest.approx(brute, abs=5e-3)

    def test_truncation_status(self):
        from ebfkit.exceptions import NonConvergedError
        with pytest.raises(NonConvergedError):
            negbinom_expected_bias(2, max_terms=64, remainder_tol=1e-12)

    def test_bias_positive_and_below_binomial_scale(self):
        v = negbinom_expected_bias(3)
        assert 0.0 < v.value < 0.5

    def test_identical_regions(self):
        d = CountData(3, 10, NEGATIVE_BINOMIAL)
        region = HypothesisRegion.interval(0.2, 0.8)
        assert ebf_negbinom(d, region, region).ebf01 == pytest.approx(1.0, rel=1e-14)

    def test_restricted_region_against_lattice_oracle(self):
        """Regions excluding p = 0 go through the direct box sum; the value
        is frozen from an independent full-lattice evaluation."""
        v = negbinom_expected_bias(3, HypothesisRegion.interval(0.2, 0.8))
        assert v.value == pytest.approx(0.2309, abs=5e-3)
        assert v.achieved_error < 0.01


class TestModelAverage:
    def test_single_model_reduces_to_report(self):
        d = CountData(4, 9)
        b0 = BiasValue.zero()
        b1 = binom_expected_bias(9)
        m0 = binom_posterior_marginal(d, HALF).correct(b0)
        m1 = binom_posterior_marginal(d, FULL).correct(b1)
        avg = model_average([m0], [m1])
        direct = make_report(m0, m1)
        assert avg.ebf01_log == pytest.approx(direct.ebf01_log, abs=1e-14)

    def test_duplicate_models_unchanged(self):
        d = CountData(4, 9)
        m0 = binom_posterior_marginal(d, HALF).correct(BiasValue.zero())
        m1 = binom_posterior_marginal(d, FULL).correct(binom_expected_bias(9))
        avg = model_average([m0, m0], [m1, m1])
        assert avg.ebf01_log == pytest.approx(m0.log_value - m1.log_value, abs=1e-12)

    def test_average_lies_between_models(self):
        x, n = 3, 10
        rb = ebf_binom(CountData(x, n), HALF, FULL)
        rnb = ebf_negbinom(CountData(x, n, NEGATIVE_BINOMIAL), HALF, FULL)
        db, dnb = CountData(x, n), CountData(x, n, NEGATIVE_BINOMIAL)
        sides = {}
        for region, key in ((HALF, "h0"), (FULL, "h1")):
            ms = []
            for data, bias in ((db, BiasValue.zero() if region.is_point()
                                else binom_expected_bias(n)),
                               (dnb, BiasValue.zero() if region.is_point()
                                else negbinom_expected_bias(x))):
                from ebfkit.count_ebf import _posterior_marginal
                ms.append(_posterior_marginal(data, region).correct(bias))
            sides[key] = ms
        avg = model_average(sides["h0"], sides["h1"])
        lo, hi = sorted([rb.ebf01_log, rnb.ebf01_log])
        assert lo <= avg.ebf01_log <= hi

    def test_rejects_empty_or_uncorrected(self):
        m = LogMarginal(-1.0, BINOMIAL).correct(BiasValue.zero())
        with pytest.raises(DomainError):
            model_average([], [m])
        with pytest.raises(DomainError):
            model_average([LogMarginal(-1.0, BINOMIAL)], [m])


class TestBiasRejectsBadInput:
    """NaN, inf and out-of-domain input raise a DomainError naming it."""

    @pytest.mark.parametrize("n, alpha, name", [
        (math.nan, 1.0, "n"), (math.inf, 1.0, "n"), (0, 1.0, "n"),
        (10, math.nan, "prior shape alpha"), (10, math.inf, "prior shape alpha"),
        (10, 0.0, "prior shape alpha"),
    ])
    def test_binom_expected_bias(self, n, alpha, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            binom_expected_bias(n, FULL, alpha)

    @pytest.mark.parametrize("x, alpha, name", [
        (math.nan, 1.0, "x"), (math.inf, 1.0, "x"), (0, 1.0, "x"),
        (3, math.nan, "prior shape alpha"), (3, math.inf, "prior shape alpha"),
        (3, -1.0, "prior shape alpha"),
    ])
    def test_negbinom_expected_bias(self, x, alpha, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            negbinom_expected_bias(x, FULL, alpha)

    @pytest.mark.parametrize("bias, name", [
        (binom_expected_bias, "n"), (negbinom_expected_bias, "x"),
    ])
    def test_rejects_fractional_count(self, bias, name):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number, got 2.5"):
            bias(2.5, FULL)

    def test_integral_float_is_a_count(self):
        assert binom_expected_bias(10.0).value == binom_expected_bias(10).value
        assert (negbinom_expected_bias(3.0, FULL).value
                == negbinom_expected_bias(3, FULL).value)
