"""Empirical Bayes factors for binomial and negative-binomial counts.

Both models share a Beta(alpha, alpha) prior on the success probability;
alpha defaults to 1, the uniform choice whose prior predictive over the
binomial count is itself uniform.  Posterior marginal likelihoods are exact
ratios of region-restricted Beta normalisers

    Z_H(s, f) = B(s + alpha, f + alpha) * P_H[Beta(s + alpha, f + alpha)].

The expected bias is a double sum over the symmetric joint prior
predictive of an observed and a replicate count, in which the posterior's
-log Z_H(x, f) and the borrowed prior's +log Z_H(y, f_y) cancel, so for
both models

    bias = E[log Z_H(2X, 2F)] - E[log Z_H(X + Y, F_X + F_Y)]:

two finite sums for the binomial, one series over failure counts with
explicit truncation control for the negative binomial.  Where a region
excludes p = 0, log Z_H(s, f) drifts like f log(1 - lo) in the failure
count; the drifts cancel in every term of the double sum, so the series
sums log Z_H with its drift taken out, and its summand decays like
(a + b log f) f^-(1 + alpha) for every region.  Region masses are taken in
log space, so no term is lost where one is below the smallest double.

The factor generally differs between the two sampling models at the same
(x, n); when the sampling scheme is uncertain, averaging the corrected
marginals across models (arithmetic mean on the likelihood scale) reduces
the dependence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ebfkit.core import (BIAS_CACHE_SIZE, BiasValue, EvidenceReport, HypothesisRegion,
                         LogMarginal, make_report)
from ebfkit.exceptions import DomainError, NonConvergedError
from ebfkit.numerics import log_beta, log_gamma
from ebfkit.numerics.special import log_beta_mass

__all__ = [
    "CountData",
    "binom_posterior_marginal",
    "binom_expected_bias",
    "ebf_binom",
    "negbinom_posterior_marginal",
    "negbinom_expected_bias",
    "ebf_negbinom",
    "model_average",
    "ebf_count",
]

_DOMAIN = (0.0, 1.0)

BINOMIAL = "binomial"
NEGATIVE_BINOMIAL = "negative-binomial"


@dataclass(frozen=True)
class CountData:
    """x successes observed against n trials under one sampling model."""

    successes: int
    trials: int
    model: str = BINOMIAL
    alpha: float = 1.0

    def __post_init__(self):
        x, n = self.successes, self.trials
        _check_alpha(self.alpha)
        if not (math.isfinite(x) and math.isfinite(n)):
            raise DomainError(f"successes and trials must be finite, got {x!r}, {n!r}")
        _check_whole("successes", x)
        _check_whole("trials", n)
        if self.model == BINOMIAL:
            if not 0 <= x <= n or n < 1:
                raise DomainError("binomial data needs 0 <= x <= n, n >= 1")
        elif self.model == NEGATIVE_BINOMIAL:
            if not 1 <= x <= n:
                raise DomainError("negative-binomial data needs 1 <= x <= n")
        else:
            raise DomainError(f"unknown sampling model {self.model!r}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"prior shape alpha must be positive and finite, got {alpha!r}")


def _check_whole(name: str, k) -> None:
    if k != math.floor(k):
        raise DomainError(f"{name} must be a whole number, got {k!r}")


def _check_count(name: str, k) -> None:
    if not 1 <= k < math.inf:
        raise DomainError(f"{name} must be a finite count >= 1, got {k!r}")
    _check_whole(name, k)


def _log_choose(n, k):
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)


def _log_normaliser(region: HypothesisRegion, s, f, a):
    """log Z_H(s, f): the Beta(s + a, f + a) normaliser restricted to the region."""
    lo, hi = region.bounds(_DOMAIN)
    return (log_beta(s + a, f + a)
            + log_beta_mass(s + a, f + a, lo, 1.0 - lo, hi, 1.0 - hi))


def _log_point_pmf(data: CountData, p0: float) -> float:
    x, n = data.successes, data.trials
    if not 0.0 <= p0 <= 1.0:
        raise DomainError("a point hypothesis must lie in [0, 1]")
    if data.model == BINOMIAL:
        lc = _log_choose(n, x)
    else:
        lc = _log_choose(n - 1, x - 1)
    from scipy.special import xlog1py, xlogy
    return float(lc + xlogy(x, p0) + xlog1py(n - x, -p0))


def _posterior_marginal(data: CountData, region: HypothesisRegion) -> LogMarginal:
    x, n, a = data.successes, data.trials, data.alpha
    f = n - x
    if region.is_point():
        return LogMarginal(_log_point_pmf(data, region.a), data.model)
    lc = _log_choose(n, x) if data.model == BINOMIAL else _log_choose(n - 1, x - 1)
    log_value = (lc + _log_normaliser(region, 2 * x, 2 * f, a)
                 - _log_normaliser(region, x, f, a))
    return LogMarginal(float(log_value), data.model)


def binom_posterior_marginal(data: CountData, region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood under binomial sampling."""
    if data.model != BINOMIAL:
        raise DomainError("data carries a different sampling model")
    return _posterior_marginal(data, region)


def negbinom_posterior_marginal(data: CountData, region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood under negative-binomial
    sampling (successes fixed, trials random)."""
    if data.model != NEGATIVE_BINOMIAL:
        raise DomainError("data carries a different sampling model")
    return _posterior_marginal(data, region)


# --------------------------------------------------------------------- bias

def _beta_binomial(n, a):
    """Counts 0..n and their beta-binomial(n, a, a) probabilities, normalised
    by their own float sum so that they add to one to rounding."""
    k = np.arange(n + 1, dtype=float)
    log_w = _log_choose(n, k) + log_beta(k + a, n - k + a)
    w = np.exp(log_w - log_w.max())
    return k, w / w.sum()


def binom_expected_bias(n: int, region: HypothesisRegion | None = None,
                        alpha: float = 1.0) -> BiasValue:
    """Exact expected bias for n binomial trials, restricted to a region.

    bias = E[log Z_H(2X, 2n - 2X)] - E[log Z_H(S, 2n - S)], where the
    observed count X is beta-binomial(n, alpha, alpha) and, by Vandermonde,
    the pooled count S = X + Y of observed and replicate is
    beta-binomial(2n, alpha, alpha).  Two one-dimensional sums of n + 1 and
    2n + 1 terms; exact up to floating-point rounding.
    """
    _check_count("n", n)
    _check_alpha(alpha)
    region = region or HypothesisRegion.full()
    if region.is_point():
        return BiasValue.zero()

    x, p_x = _beta_binomial(n, alpha)
    s, p_s = _beta_binomial(2 * n, alpha)
    own = p_x @ _log_normaliser(region, 2 * x, 2 * (n - x), alpha)
    cross = p_s @ _log_normaliser(region, s, 2 * n - s, alpha)
    return BiasValue(own - cross, "exact-sum")


def _negbinom_series_terms(x: int, alpha: float, region: HypothesisRegion,
                           fgrid):
    """Per-failure-count pieces of the negative-binomial bias series:
    (single-draw predictive, r(2f), predictive of the failure total of two
    draws, r(f)), with r(f) = log Z_H(2x, f) - f log(1 - lo) and lo the
    region's lower end.
    """
    a = alpha
    drift = math.log1p(-region.bounds(_DOMAIN)[0])
    lpr1 = (_log_choose(fgrid + x - 1, x - 1.0)
            + log_beta(x + a, fgrid + a) - log_beta(a, a))
    lq2 = (_log_choose(fgrid + 2 * x - 1, 2 * x - 1.0)
           + log_beta(2 * x + a, fgrid + a) - log_beta(a, a))
    return (np.exp(lpr1), _log_normaliser(region, 2 * x, 2 * fgrid, a) - 2 * fgrid * drift,
            np.exp(lq2), _log_normaliser(region, 2 * x, fgrid, a) - fgrid * drift)


def negbinom_expected_bias(x: int, region: HypothesisRegion | None = None,
                           alpha: float = 1.0, tail_mass_tol: float = 1e-10,
                           remainder_tol: float = 1e-6,
                           max_terms: int = 1 << 21) -> BiasValue:
    """Expected bias under negative-binomial sampling with x successes.

    With X = x fixed, bias = E[log Z_H(2x, 2F)] - E[log Z_H(2x, F_1 + F_2)]
    over the failure counts.  For a region whose lower end lo is above 0,
    log Z_H(2x, f) drifts like f c with c = log(1 - lo), and each
    expectation diverges on its own; but in every term of the (observed,
    replicate) double sum the drifts cancel, 2 f_i c - f_i c - (f_i + f_j) c
    + f_j c = 0.  So with r(f) = log Z_H(2x, f) - f c, which grows only like
    log f,

        bias = E[r(2F)] - E[r(F_1 + F_2)]

    for every region (c = 0 where the region reaches p = 0), summed as one
    series over failure counts.  Its summand decays like
    (a + b log f) f^-(1 + alpha); each geometric block fits that shape and
    adds its closed-form tail integral.  The step between successive
    tail-corrected totals plus a hundredth of the fitted tail is reported as
    the achieved error, and the term budget running out raises
    NonConvergedError.
    """
    _check_count("x", x)
    _check_alpha(alpha)
    _check_count("max_terms", max_terms)
    for name, tol in (("tail_mass_tol", tail_mass_tol), ("remainder_tol", remainder_tol)):
        if not 0.0 < tol < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {tol!r}")
    region = region or HypothesisRegion.full()
    if region.is_point():
        return BiasValue.zero()
    return _negbinom_bias(x, region, alpha, tail_mass_tol, remainder_tol, max_terms)


@functools.lru_cache(maxsize=BIAS_CACHE_SIZE)
def _negbinom_bias(x, region, alpha, tail_mass_tol, remainder_tol, max_terms):
    """Sum the series in geometric blocks until the tail-corrected total
    stabilizes (or the raw predictive tail mass vanishes, for fast-decaying
    priors)."""
    total = 0.0
    mass1 = mass2 = 0.0
    n_from, block = 0, 4096
    prev_corrected = None
    corrected = math.nan
    step = math.inf
    while n_from < max_terms:
        n_to = min(n_from + block, max_terms)
        fgrid = np.arange(n_from, n_to, dtype=float)
        pr1, own, q2, pooled = _negbinom_series_terms(x, alpha, region, fgrid)
        combined = pr1 * own - q2 * pooled
        total += float(combined.sum())
        mass1 += float(pr1.sum())
        mass2 += float(q2.sum())

        tail1 = max(1.0 - mass1, 0.0)
        tail2 = max(1.0 - mass2, 0.0)
        if tail1 <= tail_mass_tol and tail2 <= tail_mass_tol:
            return BiasValue(total, "exact-sum",
                             achieved_error=(tail1 + tail2) * 10.0)

        # fit combined ~ (a + b log f) f^-(1 + alpha) over the tail half of
        # the grid (the asymptotic shape does not hold at small f), then
        # integrate it from the grid's end N: N^-alpha (a/alpha
        # + b (log N/alpha + 1/alpha^2))
        pos = fgrid >= max(32.0, 0.5 * float(fgrid[-1]))
        if np.count_nonzero(pos) >= 8:
            logs = np.log(fgrid[pos])
            scaled = combined[pos] * fgrid[pos] ** (1.0 + alpha)
            design = np.column_stack([np.ones_like(logs), logs])
            (a_fit, b_fit), *_ = np.linalg.lstsq(design, scaled, rcond=None)
            end = float(fgrid[-1]) + 1.0
            tail = ((a_fit / alpha + b_fit * (math.log(end) / alpha + 1.0 / alpha ** 2))
                    / end ** alpha)
            corrected = total + tail
            if prev_corrected is not None:
                step = abs(corrected - prev_corrected)
                if step <= remainder_tol and n_from >= (1 << 16):
                    return BiasValue(corrected, "exact-sum",
                                     achieved_error=step + abs(tail) * 0.01)
            prev_corrected = corrected
        n_from = n_to
        block = min(2 * block, 1 << 19)
    raise NonConvergedError(
        f"negative-binomial bias series not converged after {max_terms} terms "
        f"(last step {step:.2e})", value=corrected, error_estimate=step)


# ----------------------------------------------------------------- factors

def _expected_bias_for(data: CountData, region: HypothesisRegion) -> BiasValue:
    if data.model == BINOMIAL:
        return binom_expected_bias(data.trials, region, data.alpha)
    return negbinom_expected_bias(data.successes, region, data.alpha)


def ebf_count(data: CountData, h0: HypothesisRegion,
              h1: HypothesisRegion) -> EvidenceReport:
    """Region-vs-region factor under the data's sampling model."""
    b0 = _expected_bias_for(data, h0)
    b1 = _expected_bias_for(data, h1)
    m0 = _posterior_marginal(data, h0).correct(b0)
    m1 = _posterior_marginal(data, h1).correct(b1)
    return make_report(m0, m1, h0, h1, b0, b1)


def ebf_binom(data: CountData, h0: HypothesisRegion,
              h1: HypothesisRegion) -> EvidenceReport:
    if data.model != BINOMIAL:
        raise DomainError("data carries a different sampling model")
    return ebf_count(data, h0, h1)


def ebf_negbinom(data: CountData, h0: HypothesisRegion,
                 h1: HypothesisRegion) -> EvidenceReport:
    if data.model != NEGATIVE_BINOMIAL:
        raise DomainError("data carries a different sampling model")
    return ebf_count(data, h0, h1)


def model_average(corrected_marginals_h0: list[LogMarginal],
                  corrected_marginals_h1: list[LogMarginal],
                  h0: HypothesisRegion | None = None,
                  h1: HypothesisRegion | None = None) -> EvidenceReport:
    """Arithmetic mean of corrected marginal likelihoods across models.

    Means are taken on the likelihood scale (log-sum-exp minus log count),
    then the two averaged hypotheses are compared as usual.
    """
    for side in (corrected_marginals_h0, corrected_marginals_h1):
        if not side:
            raise DomainError("model_average needs at least one model per hypothesis")
        if not all(m.corrected for m in side):
            raise DomainError("model_average requires bias-corrected marginals")

    def log_mean(ms):
        vals = np.array([m.log_value for m in ms])
        peak = vals.max()
        return float(peak + np.log(np.mean(np.exp(vals - peak))))

    m0 = LogMarginal(log_mean(corrected_marginals_h0), "model-average",
                     corrected=True)
    m1 = LogMarginal(log_mean(corrected_marginals_h1), "model-average",
                     corrected=True)
    return make_report(m0, m1, h0, h1)
