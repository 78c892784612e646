"""Binomial and negative-binomial factors: exact marginals, exact bias
sums, series truncation, and model averaging."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc, betaln, gammaln

from ebfkit.core import HypothesisRegion, LogMarginal, BiasValue
from ebfkit.count_ebf import (
    BINOMIAL,
    NEGATIVE_BINOMIAL,
    CountData,
    binom_expected_bias,
    binom_posterior_marginal,
    ebf_binom,
    ebf_negbinom,
    model_average,
    negbinom_expected_bias,
    negbinom_posterior_marginal,
)
from ebfkit.exceptions import DomainError, NonConvergedError
from ebfkit.numerics.special import log_beta_mass
from ebfkit.core import make_report

from test_numerics import mp_log_beta_mass

FULL = HypothesisRegion.full()
HALF = HypothesisRegion.point(0.5)

BIAS_TARGETS = {1: 0.231, 2: 0.316, 3: 0.360, 4: 0.387, 5: 0.405,
              6: 0.418, 7: 0.428, 8: 0.436, 9: 0.442, 10: 0.447}


REGIONS = {
    "full": FULL,
    "above:0.5": HypothesisRegion.above(0.5),
    "below:0.3": HypothesisRegion.below(0.3),
    "interval:0.2,0.6": HypothesisRegion.interval(0.2, 0.6),
    "interval:0.45,0.55": HypothesisRegion.interval(0.45, 0.55),
}


def _log_beta_mass(a, b, lo, hi):
    """log Beta(a, b) mass of (lo, hi) for arrays, from scipy's incomplete
    beta differenced in the tail whose near end holds less, and from mpmath
    (``mp_log_beta_mass``) where that mass is below 1e-10."""
    below_hi, above_lo = betainc(a, b, hi), betainc(b, a, 1.0 - lo)
    mass = np.where(below_hi <= above_lo, below_hi - betainc(a, b, lo),
                    above_lo - betainc(b, a, 1.0 - hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(mass)
    for i in np.flatnonzero(mass < 1e-10):
        out[i] = _mp_log_beta_mass(float(a[i]), float(b[i]), lo, hi)
    return out


@functools.lru_cache(maxsize=None)
def _mp_log_beta_mass(a, b, lo, hi):
    return mp_log_beta_mass(a, b, lo, hi)


def _binom_bias_double_sum(n, region, alpha):
    """The expected bias written out as the double sum over the joint prior
    predictive of observed x and replicate y, own term minus the term whose
    prior is the replicate's posterior.  A pooled term depends on x + y
    alone, so log Z is taken once per total."""
    lo, hi = region.bounds((0.0, 1.0))

    def log_z(s, f):
        a, b = s + alpha, f + alpha
        return betaln(a, b) + _log_beta_mass(a, b, lo, hi)

    x = np.arange(n + 1, dtype=float)
    f = n - x
    s = np.arange(2 * n + 1, dtype=float)
    lc = gammaln(n + 1.0) - gammaln(x + 1.0) - gammaln(f + 1.0)
    sx, sf = x[:, None] + x[None, :], f[:, None] + f[None, :]
    weight = np.exp(lc[:, None] + lc[None, :] + betaln(sx + alpha, sf + alpha)
                    - betaln(alpha, alpha))
    own = log_z(2 * x, 2 * f) - log_z(x, f)
    cross = log_z(s, 2 * n - s)[sx.astype(int)] - log_z(x, f)[None, :]
    return float(np.sum(weight * (own[:, None] - cross)))


LATTICE_REGIONS = {
    "full": FULL,
    "above:0.5": HypothesisRegion.above(0.5),
    "interval:0.2,0.8": HypothesisRegion.interval(0.2, 0.8),
}


@functools.cache
def _negbinom_lattice_oracle(x, region, alpha, sizes=(1024, 2048, 4096)):
    """The negative-binomial bias as the (observed, replicate) double sum
    over failure counts, own term minus the term whose prior is the
    replicate's posterior, summed in log space over square boxes of the
    given sizes in one pass; a pooled term depends on the failure total
    alone, so log Z is taken once per total.  No drift is taken out and
    no tail is fitted.

    The summand is homogeneous of degree -(2 + alpha) in the two counts up
    to relative terms of order 1/f, so a box of side N misses K N^-alpha
    + K' N^-(alpha + 1) + ...; two Richardson steps remove both terms.
    Returns the extrapolated sum and the size of the last step as its
    truncation bound."""
    lo, hi = region.bounds((0.0, 1.0))

    def log_z(s, f):
        a, b = s + alpha, f + alpha
        return betaln(a, b) + log_beta_mass(a, b, lo, 1.0 - lo, hi, 1.0 - hi)

    n = sizes[-1]
    f = np.arange(n, dtype=float)
    s = np.arange(2 * n - 1, dtype=float)
    cross = log_z(x, f)
    own = log_z(2 * x, 2 * f) - cross
    pooled = log_z(2 * x, s)
    log_c = gammaln(f + x) - gammaln(float(x)) - gammaln(f + 1.0)
    log_w = betaln(2 * x + alpha, s + alpha) - betaln(alpha, alpha)
    # block[k, l]: rows in the k-th and columns in the l-th band between sizes
    starts = np.array((0,) + sizes[:-1])
    band = np.searchsorted(sizes, f, side="right")
    block = np.zeros((len(sizes), len(sizes)))
    j = np.arange(n)
    for i0 in range(0, n, 128):
        i = np.arange(i0, i0 + 128)
        cell = i[:, None] + j[None, :]
        term = (np.exp(log_c[i, None] + log_c[None, :] + log_w[cell])
                * (own[i, None] - pooled[cell] + cross[None, :]))
        np.add.at(block, band[i], np.add.reduceat(term, starts, axis=1))
    box = [block[:k + 1, :k + 1].sum() for k in range(len(sizes))]
    once = [b2 + (b2 - b1) / (2.0 ** alpha - 1.0) for b1, b2 in zip(box, box[1:])]
    twice = once[-1] + (once[-1] - once[-2]) / (2.0 ** (alpha + 1.0) - 1.0)
    return twice, abs(twice - once[-1])


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

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("region", list(REGIONS), ids=str)
    @pytest.mark.parametrize("n", [1, 2, 5, 30, 200])
    def test_regions_against_double_sum(self, n, region, alpha):
        """The two one-dimensional sums equal the full double sum."""
        got = binom_expected_bias(n, REGIONS[region], alpha)
        expect = _binom_bias_double_sum(n, REGIONS[region], alpha)
        assert got.value == pytest.approx(expect, abs=1e-12 if n <= 30 else 1e-10)

    @pytest.mark.parametrize("n, value", [(50, 0.24032359908974),
                                          (100, 0.24496212220283)])
    def test_upper_half_against_mpmath(self, n, value):
        """References summed in mpmath at 60 to 80 digits.  The masses of
        the small counts above 1/2 are below 2^-53, where a linear-domain
        mass is rounding residue."""
        assert binom_expected_bias(n, REGIONS["above:0.5"]).value == pytest.approx(
            value, abs=1e-10)

    @pytest.mark.parametrize("n, region", [(537, "above:0.5"), (1000, "above:0.5"),
                                           (350, "below:0.3")])
    def test_masses_below_the_smallest_double(self, n, region):
        """Here a mass at the counts farthest from the region is below the
        smallest double, as 2^-(2n + 1) is for x = 0 above 1/2."""
        got = binom_expected_bias(n, REGIONS[region])
        assert got.value == pytest.approx(_binom_bias_double_sum(n, REGIONS[region], 1.0),
                                          abs=1e-10)

    def test_large_n_against_double_sum(self):
        got = binom_expected_bias(1000)
        assert got.value == pytest.approx(_binom_bias_double_sum(1000, FULL, 1.0),
                                          abs=1e-10)

    def test_memory_linear_in_n(self):
        """No n x n array: the traced peak at n = 1000 stays under 1 MB
        (the double sum needs tens of MB)."""
        import tracemalloc
        binom_expected_bias(1000)
        tracemalloc.start()
        try:
            binom_expected_bias(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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
        """The series over failure counts matches a direct truncated double
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
        with pytest.raises(NonConvergedError):
            negbinom_expected_bias(2, max_terms=64, remainder_tol=1e-12)

    @pytest.mark.parametrize("x, region, value", [
        (1, FULL, 0.31644255059117),
        (3, HypothesisRegion.below(0.3), 0.11631808703804061),
    ])
    def test_series_values_frozen(self, x, region, value):
        """Pinned values of the series with its own and cross terms summed
        separately; they cancel analytically and must not move the result."""
        assert negbinom_expected_bias(x, region).value == pytest.approx(value, abs=1e-12)

    def test_series_returns_floats(self):
        """The series fits its tail with numpy least squares; the value and
        error still come back as plain floats."""
        v = negbinom_expected_bias(3, FULL, alpha=2.0)
        assert type(v.value) is float and type(v.achieved_error) is float

    def test_deep_region_masses_stay_finite(self):
        """The below:0.01 masses of x = 200 at small failure counts lie
        below the smallest double, but they are finite in log space, so a
        short term budget ends with a finite estimate, not a NaN series."""
        with pytest.raises(NonConvergedError) as info:
            negbinom_expected_bias(200, HypothesisRegion.below(0.01), max_terms=1 << 14)
        assert math.isfinite(info.value.value)

    def test_series_error_bound_holds_deep_in_the_tail(self):
        """Against 0.0046439, extrapolated from raw partial sums of the
        summand out to 2^23 terms."""
        v = negbinom_expected_bias(10, HypothesisRegion.below(0.01))
        assert abs(v.value - 0.0046439) <= v.achieved_error

    def test_bias_positive_and_below_binomial_scale(self):
        v = negbinom_expected_bias(3)
        assert 0.0 < v.value < 0.5

    def test_identical_regions(self):
        d = CountData(3, 10, NEGATIVE_BINOMIAL)
        region = HypothesisRegion.interval(0.2, 0.8)
        assert ebf_negbinom(d, region, region).ebf01 == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("region, value", [
        (HypothesisRegion.above(0.5), 0.2298839),
        (HypothesisRegion.interval(0.2, 0.8), 0.2311669),
    ])
    def test_restricted_region_values_frozen(self, region, value):
        """Pinned values of a drift-corrected series summed separately with
        a 1e-7 step tolerance, for regions away from p = 0."""
        v = negbinom_expected_bias(3, region)
        assert abs(v.value - value) <= v.achieved_error <= 1e-5

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("region", ["above:0.5", "interval:0.2,0.8"])
    def test_restricted_region_against_lattice_oracle(self, region, alpha):
        """Regions away from p = 0, where each log Z_H drifts like
        f log(1 - lo), against the lattice summed with the drifts left in."""
        v = negbinom_expected_bias(3, LATTICE_REGIONS[region], alpha)
        oracle, bound = _negbinom_lattice_oracle(3, LATTICE_REGIONS[region], alpha)
        assert v.achieved_error <= 1e-5
        assert abs(v.value - oracle) <= v.achieved_error + bound

    @pytest.mark.parametrize("region", ["full", "above:0.5"])
    def test_alpha_below_one_against_lattice_oracle(self, region):
        """At alpha = 0.5 the predictive of the failure count has no mean
        and the summand decays like f^-1.5; the series still converges
        within its default term budget."""
        v = negbinom_expected_bias(3, LATTICE_REGIONS[region], 0.5)
        oracle, bound = _negbinom_lattice_oracle(3, LATTICE_REGIONS[region], 0.5)
        assert abs(v.value - oracle) <= min(1e-4, v.achieved_error + bound)


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
