"""Empirical Bayes factors for normal-theory tests with known variance.

Under a flat prior the posterior for the mean is N(x, sigma^2), and the
posterior marginal likelihood of a region H is

    M_H = phi(x; x, 2 sigma^2) * P_H[N(x, sigma^2/2)] / P_H[N(x, sigma^2)].

Re-using the data as its own prior overstates the evidence; the expected
overstatement in log scale is 1/2 per unrestricted mean component, 1/4 per
half-line component, and 0 for point or bounded-interval hypotheses.  All
factors below are ratios of such bias-corrected marginals, so the scale
sigma cancels and only the standardized statistic matters.

``normal_posterior_marginal`` and ``ebf_interval`` share one private
formula, ``_log_value``; the factor subtracts the region biases from the
two log values directly instead of building the corrected ``LogMarginal``s,
with the same arithmetic and the same errors.  ``_log_value`` reads a
region's endpoints from ``HypothesisRegion.line_bounds`` (computed once per
region), and a half-line's mass is one log CDF at its standardized bound.
Region biases are three shared module constants (0, 1/4, 1/2), which
``multitest`` reuses; the fixed regions of the two-sided, one-sided,
directional and chi-square tests are shared constants too.
"""

from __future__ import annotations

import math

from ebfkit.core import BiasValue, EvidenceReport, HypothesisRegion, LogMarginal
from ebfkit.exceptions import DegenerateRegionError, DomainError
from ebfkit.numerics.special import log_ndtr_scalar, normal_log_pdf_scalar

__all__ = [
    "FAMILY",
    "bias_normal",
    "region_bias",
    "normal_posterior_marginal",
    "ebf_two_sided",
    "ebf_one_sided",
    "ebf_directional",
    "ebf_interval",
    "ebf_chi_squared",
    "deviance_criterion",
]

FAMILY = "normal"

LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_FAVOURS_NULL_THRESHOLD = 1.0 + LOG2  # z^2 below this favours the point null

# regions and biases are immutable, so every report shares these
_NO_BIAS = BiasValue.zero()
_HALF_LINE_BIAS = BiasValue.closed_form(0.25)
_FULL_LINE_BIAS = BiasValue.closed_form(0.5)
_NULL = HypothesisRegion.point(0.0)
_NEGATIVE = HypothesisRegion.below(0.0)
_POSITIVE = HypothesisRegion.above(0.0)
_FULL = HypothesisRegion.full()


def bias_normal(d1: int, d2: int) -> BiasValue:
    """Expected bias (d1 + 2*d2)/4 for d1 one-sided and d2 two-sided mean
    components."""
    if d1 < 0 or d2 < 0 or d1 + d2 < 1:
        raise DomainError("bias_normal needs d1, d2 >= 0 with d1 + d2 >= 1")
    return BiasValue.closed_form((d1 + 2.0 * d2) / 4.0)


def region_bias(region: HypothesisRegion) -> BiasValue:
    """Bias contribution of one region of the mean line."""
    if region.kind in ("point", "interval"):
        return _NO_BIAS
    if region.kind in ("below", "above"):
        return _HALF_LINE_BIAS
    return _FULL_LINE_BIAS


def _log_mass(region: HypothesisRegion, mu: float, sd: float) -> float:
    """log of the N(mu, sd^2) mass of a non-point region."""
    return _log_mass_between(*region.line_bounds, mu, sd)


def _log_mass_between(a: float, b: float, mu: float, sd: float) -> float:
    """log of the N(mu, sd^2) mass of the interval (a, b), a < b."""
    la = -math.inf
    if a == -math.inf:
        if b == math.inf:
            return 0.0
        lb = log_ndtr_scalar((b - mu) / sd)
    elif b == math.inf:
        # -((a - mu)/sd) == (mu - a)/sd exactly: the two-bound form's
        # reflection, without its second log CDF
        lb = log_ndtr_scalar((mu - a) / sd)
    else:
        alpha, beta = (a - mu) / sd, (b - mu) / sd
        # work on the side where both bounds sit in the lower tail
        if alpha + beta > 0:
            alpha, beta = -beta, -alpha
        la, lb = log_ndtr_scalar(alpha), log_ndtr_scalar(beta)
    if lb == -math.inf:
        raise DegenerateRegionError("region mass underflows to zero")
    if la == -math.inf:
        return lb
    diff = la - lb
    if diff >= 0.0:
        raise DegenerateRegionError("region mass underflows to zero")
    return lb + math.log1p(-math.exp(diff))


def _check_statistic(x, sigma) -> tuple[float, float]:
    x, sigma = float(x), float(sigma)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
    return x, sigma


def _log_value(x: float, sigma: float, region: HypothesisRegion) -> float:
    """Uncorrected log posterior marginal of a region for checked floats;
    may be non-finite, which the callers reject."""
    if region.kind == "point":
        return normal_log_pdf_scalar(x, region.a, sigma * sigma)
    a, b = region.line_bounds
    return (normal_log_pdf_scalar(x, x, 2.0 * sigma * sigma)
            + _log_mass_between(a, b, x, sigma / _SQRT2)
            - _log_mass_between(a, b, x, sigma))


def normal_posterior_marginal(x: float, sigma: float,
                              region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood of a mean region."""
    x, sigma = _check_statistic(x, sigma)
    return LogMarginal(_log_value(x, sigma, region), FAMILY)


def ebf_interval(x: float, sigma: float, h0: HypothesisRegion,
                 h1: HypothesisRegion) -> EvidenceReport:
    """General region-vs-region factor on the mean scale.

    The same value, and the same errors, as pairing the two corrected
    ``normal_posterior_marginal``s with ``make_report``, built without the
    intermediate marginals.
    """
    x, sigma = _check_statistic(x, sigma)
    l0 = _log_value(x, sigma, h0)
    if not math.isfinite(l0):
        raise DomainError("log marginal likelihood must be finite")
    l1 = _log_value(x, sigma, h1)
    if not math.isfinite(l1):
        raise DomainError("log marginal likelihood must be finite")
    b0, b1 = region_bias(h0), region_bias(h1)
    return EvidenceReport((l0 - b0.value) - (l1 - b1.value), FAMILY, h0, h1, b0, b1)


def ebf_two_sided(z: float) -> EvidenceReport:
    """Point null mu = 0 against the unrestricted alternative.

    Equals sqrt(2) * exp(-(z^2 - 1)/2); favours the null exactly when
    z^2 < 1 + log 2.
    """
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    log_ebf01 = 0.5 * LOG2 - 0.5 * (z * z - 1.0)
    return EvidenceReport(log_ebf01, FAMILY, _NULL, _FULL,
                          _NO_BIAS, _FULL_LINE_BIAS)


def ebf_one_sided(z: float, negative_possible: bool = True) -> EvidenceReport:
    """Point null mu = 0 against the one-sided alternative mu > 0.

    When negative means are possible a priori the alternative carries half
    the unrestricted bias; when they are impossible it carries the full
    bias, which weakens the alternative by exp(1/4).
    """
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    bias1 = _HALF_LINE_BIAS if negative_possible else _FULL_LINE_BIAS
    log_phi_ratio = log_ndtr_scalar(z) - log_ndtr_scalar(z * _SQRT2)
    log_ebf01 = log_phi_ratio + 0.5 * LOG2 - 0.5 * (z * z) + bias1.value
    return EvidenceReport(log_ebf01, FAMILY, _NULL, _POSITIVE, _NO_BIAS, bias1)


def ebf_directional(z: float) -> EvidenceReport:
    """mu < 0 against mu > 0; the two half-line biases cancel.

    Large tail ratios are evaluated through log CDFs, so the factor stays
    finite far beyond |z| = 8.
    """
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    log_ebf01 = (log_ndtr_scalar(-z * _SQRT2) - log_ndtr_scalar(z * _SQRT2)
                 + log_ndtr_scalar(z) - log_ndtr_scalar(-z))
    return EvidenceReport(log_ebf01, FAMILY, _NEGATIVE, _POSITIVE,
                          _HALF_LINE_BIAS, _HALF_LINE_BIAS)


def ebf_chi_squared(z2: float, d: int) -> EvidenceReport:
    """d-dimensional point null via the squared standardized statistic.

    EBF01 = 2^{d/2} exp(-(z^2 - d)/2), the chi-square analogue of the
    two-sided test; z2 is x' Sigma^{-1} x.
    """
    if not (z2 >= 0 and math.isfinite(z2)):
        raise DomainError(f"z2 must be finite and nonnegative, got {z2!r}")
    if d < 1:
        raise DomainError("dimension must be >= 1")
    log_ebf01 = 0.5 * d * LOG2 - 0.5 * (z2 - d)
    return EvidenceReport(log_ebf01, FAMILY, _NULL, _FULL,
                          _NO_BIAS, BiasValue.closed_form(d / 2.0))


def deviance_criterion(max_log_likelihood: float, d: int) -> float:
    """-2 * max log likelihood penalised by d * (1 + log 2).

    The deviance-scale view of the corrected marginal likelihood for a
    regular d-parameter normal model; differences of this criterion sit on
    the Bayes-factor scale.
    """
    if not math.isfinite(max_log_likelihood):
        raise DomainError(
            f"max_log_likelihood must be finite, got {max_log_likelihood!r}")
    if not 1 <= d < math.inf:
        raise DomainError(f"parameter count must be finite and >= 1, got {d!r}")
    return -2.0 * max_log_likelihood + d * (1.0 + LOG2)


def favours_null_probability() -> float:
    """P(the two-sided factor favours a true point null) = P(chi2_1 < 1 + log 2)."""
    from ebfkit.numerics import chi2_cdf
    return chi2_cdf(_FAVOURS_NULL_THRESHOLD, 1)
