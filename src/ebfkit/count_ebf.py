"""Empirical Bayes factors for binomial and negative-binomial counts.

Both models share a Beta(alpha, alpha) prior on the success probability;
alpha defaults to 1, the uniform choice whose prior predictive over the
binomial count is itself uniform.  Posterior marginal likelihoods are exact
ratios of beta functions.  The expected bias is an exact double sum over
the joint prior predictive of an observed and a replicate count: finite for
the binomial, and for the negative binomial an infinite lattice that
factorizes into three one-dimensional series summed with explicit
truncation control.

The factor generally differs between the two sampling models at the same
(x, n); when the sampling scheme is uncertain, averaging the corrected
marginals across models (arithmetic mean on the likelihood scale) reduces
the dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy, xlog1py

from ebfkit.core import BiasValue, EvidenceReport, HypothesisRegion, LogMarginal, make_report
from ebfkit.exceptions import DegenerateRegionError, DomainError, NonConvergedError
from ebfkit.numerics import beta_cdf, log_beta, log_gamma

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


def _log_region_mass(region: HypothesisRegion, a, b, strict=True):
    """log of the Beta(a, b) mass of a region clipped to [0, 1].

    When both endpoints sit in the upper tail the CDF difference cancels
    catastrophically, so the mass is also formed from the survival side
    (I_x(a, b) = 1 - I_{1-x}(b, a)) and the better-conditioned value wins.
    With strict=False an underflowing mass becomes -inf instead of raising,
    for series whose terms cancel the divergence pairwise.
    """
    lo, hi = region.bounds(_DOMAIN)
    cdf_mass = beta_cdf(hi, a, b) - beta_cdf(lo, a, b)
    sf_mass = beta_cdf(1.0 - lo, b, a) - beta_cdf(1.0 - hi, b, a)
    mass = np.maximum(cdf_mass, sf_mass)
    if strict and np.any(np.asarray(mass) <= 0.0):
        raise DegenerateRegionError("region mass underflows to zero")
    with np.errstate(divide="ignore"):
        return np.log(mass)


def _log_point_pmf(data: CountData, p0: float) -> float:
    x, n = data.successes, data.trials
    if not 0.0 <= p0 <= 1.0:
        raise DomainError("a point hypothesis must lie in [0, 1]")
    if data.model == BINOMIAL:
        lc = _log_choose(n, x)
    else:
        lc = _log_choose(n - 1, x - 1)
    return float(lc + xlogy(x, p0) + xlog1py(n - x, -p0))


def _posterior_marginal(data: CountData, region: HypothesisRegion) -> LogMarginal:
    x, n, a = data.successes, data.trials, data.alpha
    f = n - x
    if region.is_point():
        return LogMarginal(_log_point_pmf(data, region.a), data.model)
    lc = _log_choose(n, x) if data.model == BINOMIAL else _log_choose(n - 1, x - 1)
    log_value = (lc
                 + log_beta(2 * x + a, 2 * f + a) - log_beta(x + a, f + a)
                 + _log_region_mass(region, 2 * x + a, 2 * f + a)
                 - _log_region_mass(region, x + a, f + a))
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

def binom_expected_bias(n: int, region: HypothesisRegion | None = None,
                        alpha: float = 1.0) -> BiasValue:
    """Exact expected bias for n binomial trials, restricted to a region.

    A finite double sum over the joint prior predictive of the observed and
    replicate counts; exact up to floating-point rounding.
    """
    _check_count("n", n)
    _check_alpha(alpha)
    region = region or HypothesisRegion.full()
    if region.is_point():
        return BiasValue.zero()

    x = np.arange(n + 1, dtype=float)
    f = n - x
    lc = _log_choose(n, x)
    a = alpha
    log_own = (log_beta(2 * x + a, 2 * f + a) - log_beta(x + a, f + a)
               + _log_region_mass(region, 2 * x + a, 2 * f + a)
               - _log_region_mass(region, x + a, f + a))
    # cross terms: prior taken from the replicate count y
    sx = x[:, None] + x[None, :]
    sf = f[:, None] + f[None, :]
    log_cross = (log_beta(sx + a, sf + a) - log_beta(x[None, :] + a, f[None, :] + a)
                 + _log_region_mass(region, sx + a, sf + a)
                 - _log_region_mass(region, x[None, :] + a, f[None, :] + a))
    log_pr = (lc[:, None] + lc[None, :]
              + log_beta(sx + a, sf + a) - log_beta(a, a))
    value = float(np.sum(np.exp(log_pr) * (log_own[:, None] - log_cross)))
    return BiasValue(value, "exact-sum")


def _negbinom_series_terms(x: int, alpha: float, region: HypothesisRegion,
                           n_from: int, n_to: int):
    """Per-failure-count pieces of the three negative-binomial bias series.

    Returns (single-draw predictive, own-vs-posterior term a, cross prior
    term c, double-successes predictive q, coupling term g) for failure
    counts n_from..n_to-1.
    """
    a = alpha
    fgrid = np.arange(n_from, n_to, dtype=float)
    lpr1 = (_log_choose(fgrid + x - 1, x - 1.0)
            + log_beta(x + a, fgrid + a) - log_beta(a, a))
    # -inf - -inf = nan where both region masses underflow; the caller
    # truncates at the first non-finite combined term
    with np.errstate(invalid="ignore"):
        term_a = (log_beta(2 * x + a, 2 * fgrid + a) - log_beta(x + a, fgrid + a)
                  + _log_region_mass(region, 2 * x + a, 2 * fgrid + a, strict=False)
                  - _log_region_mass(region, x + a, fgrid + a, strict=False))
        term_c = (log_beta(x + a, fgrid + a)
                  + _log_region_mass(region, x + a, fgrid + a, strict=False))
        lq2 = (_log_choose(fgrid + 2 * x - 1, 2 * x - 1.0)
               + log_beta(2 * x + a, fgrid + a) - log_beta(a, a))
        term_g = (log_beta(2 * x + a, fgrid + a)
                  + _log_region_mass(region, 2 * x + a, fgrid + a, strict=False))
    return np.exp(lpr1), term_a, term_c, np.exp(lq2), term_g


_negbinom_bias_cache: dict = {}


def negbinom_expected_bias(x: int, region: HypothesisRegion | None = None,
                           alpha: float = 1.0, tail_mass_tol: float = 1e-10,
                           remainder_tol: float = 1e-6,
                           max_terms: int = 1 << 21) -> BiasValue:
    """Expected bias under negative-binomial sampling with x successes.

    Regions that contain the p -> 0 accumulation point (the full interval
    and lower tails) use an exact split of the double sum into three
    one-dimensional series over failure counts; elsewhere the split's
    pieces diverge individually, so the (observed, replicate) lattice is
    summed directly over growing square boxes.  Both routes report the
    estimated truncation remainder as the achieved error, and raise an
    explicit status when their term budget runs out first.
    """
    _check_count("x", x)
    _check_alpha(alpha)
    region = region or HypothesisRegion.full()
    if region.is_point():
        return BiasValue.zero()
    key = (x, region, alpha, tail_mass_tol, remainder_tol, max_terms)
    cached = _negbinom_bias_cache.get(key)
    if cached is not None:
        return cached
    lo, _hi = region.bounds(_DOMAIN)
    if lo <= 0.0:
        result = _negbinom_bias_series(x, region, alpha, tail_mass_tol,
                                       remainder_tol, max_terms)
    else:
        result = _negbinom_bias_box(x, region, alpha, remainder_tol)
    _negbinom_bias_cache[key] = result
    return result


def _negbinom_bias_series(x, region, alpha, tail_mass_tol, remainder_tol,
                          max_terms):
    """Three-series route: the coupling term collapses over the failure
    total (Vandermonde), leaving one-dimensional sums whose combined
    summand decays like (a + b log f)/f^2.  Each geometric block fits that
    shape and adds the analytic tail integral; convergence is declared when
    the tail-corrected total stabilizes (or the raw predictive tail mass
    vanishes, for fast-decaying priors)."""
    total = 0.0
    mass1 = mass2 = 0.0
    n_from, block = 0, 4096
    prev_corrected = None
    corrected = math.nan
    step = math.inf
    while n_from < max_terms:
        n_to = min(n_from + block, max_terms)
        fgrid = np.arange(n_from, n_to, dtype=float)
        pr1, ta, tc, q2, tg = _negbinom_series_terms(x, alpha, region, n_from, n_to)
        combined = pr1 * (ta + tc) - q2 * tg
        total += float(combined.sum())
        mass1 += float(pr1.sum())
        mass2 += float(q2.sum())

        tail1 = max(1.0 - mass1, 0.0)
        tail2 = max(1.0 - mass2, 0.0)
        if tail1 <= tail_mass_tol and tail2 <= tail_mass_tol:
            return BiasValue(total, "exact-sum",
                             achieved_error=(tail1 + tail2) * 10.0)

        # fit combined ~ (a + b log f)/f^2 over the tail half of the grid
        # (the asymptotic shape does not hold at small f), then integrate
        pos = fgrid >= max(32.0, 0.5 * float(fgrid[-1]))
        if np.count_nonzero(pos) >= 8:
            logs = np.log(fgrid[pos])
            scaled = combined[pos] * fgrid[pos] ** 2
            design = np.column_stack([np.ones_like(logs), logs])
            (a_fit, b_fit), *_ = np.linalg.lstsq(design, scaled, rcond=None)
            end = float(fgrid[-1]) + 1.0
            tail = (a_fit + b_fit * (math.log(end) + 1.0)) / end
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


def _negbinom_bias_box(x, region, alpha, remainder_tol, max_n=4096):
    """Direct lattice route for regions away from p = 0: sum the exact
    (observed, replicate) double sum over growing square boxes until the
    doubling step stabilizes or the region masses underflow outright."""
    a = alpha

    def box_sum(n):
        f = np.arange(n, dtype=float)
        with np.errstate(invalid="ignore"):
            own = (log_beta(2 * x + a, 2 * f + a) - log_beta(x + a, f + a)
                   + _log_region_mass(region, 2 * x + a, 2 * f + a, strict=False)
                   - _log_region_mass(region, x + a, f + a, strict=False))
            cross_col = (log_beta(x + a, f + a)
                         + _log_region_mass(region, x + a, f + a, strict=False))
        total = 0.0
        covered = 0.0
        for i0 in range(0, n, 256):
            fi = f[i0:i0 + 256]
            s = fi[:, None] + f[None, :]
            # joint predictive: C(fi) C(fj) B(2x+a, s+a) / B(a, a)
            log_w = (_log_choose(fi + x - 1, x - 1.0)[:, None]
                     + _log_choose(f + x - 1, x - 1.0)[None, :]
                     + log_beta(2 * x + a, s + a) - log_beta(a, a))
            with np.errstate(invalid="ignore"):
                d_h = (own[i0:i0 + 256, None]
                       - (log_beta(2 * x + a, s + a)
                          + _log_region_mass(region, 2 * x + a, s + a,
                                             strict=False))
                       + cross_col[None, :])
            w = np.exp(log_w)
            ok = np.isfinite(d_h)
            total += float(np.sum((w * d_h)[ok]))
            covered += float(w[ok].sum())
        return total, covered

    prev = None
    n = 512
    while n <= max_n:
        total, covered = box_sum(n)
        if covered <= 0.0:
            raise DegenerateRegionError(
                "region mass underflows to zero at the observed counts")
        if prev is not None:
            step = abs(total - prev)
            frontier = covered >= 1.0 - 1e-9 or n == max_n
            if step <= max(remainder_tol, 2e-4) or frontier or 2 * n > max_n:
                return BiasValue(total, "exact-sum",
                                 achieved_error=4.0 * step + (1.0 - covered))
        prev = total
        n *= 2
    raise NonConvergedError("negative-binomial box sum did not settle",
                            value=prev)


# ----------------------------------------------------------------- factors

def _expected_bias_for(data: CountData, region: HypothesisRegion) -> BiasValue:
    if region.is_point():
        return BiasValue.zero()
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
