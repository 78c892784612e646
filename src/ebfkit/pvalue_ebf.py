"""Empirical Bayes factors computed from a bare P-value.

For tests that are only summarised by a P-value, assume p follows a
Beta(1, beta) law with beta > 1 under the alternative; under the null p is
uniform with likelihood 1.  With a flat prior on beta > 1 the posterior
marginal likelihood has the closed form (t = -1/log(1-p))

    M(p) = (t^2/4 + t/2 + 1/2) / (t + 1)

and the default bias correction is the constant log(5/2), which is nearly
flat across the alternative shapes.  For small p the corrected factor in
favour of the null approaches the rule of thumb 10p.

These factors rest on the Beta assumption for the P-value law and should be
read as an indicative measure of evidence, not an exact one.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.special import roots_legendre

from ebfkit.core import BiasValue, EvidenceReport, HypothesisRegion
from ebfkit.exceptions import DomainError, NonConvergedError

__all__ = [
    "FAMILY",
    "DEFAULT_LOG_BIAS",
    "pvalue_posterior_marginal",
    "pvalue_expected_bias",
    "ebf_pvalue",
    "posterior_prob_h0",
]

FAMILY = "pvalue"
DEFAULT_LOG_BIAS = math.log(2.5)


def _check_p(p):
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)  # False for NaN
    if not np.all(inside):
        bad = float(p[~inside][0])
        raise DomainError(f"P-values must lie strictly inside (0, 1), got {bad!r}")
    return p


def _inv_neg_log1m(p):
    """t = -1/log(1-p), stable from p = 1e-300 up to 1 - 1e-12."""
    return -1.0 / np.log1p(-p)


def _log_marginal(p):
    p = np.asarray(p, dtype=float)
    t = _inv_neg_log1m(p)
    # two algebraic forms of the same ratio; pick by t to avoid overflow of
    # t^2 (both branches evaluate under np.where, hence the clipping)
    big = t >= 1.0
    t_lo = np.minimum(t, 1.0)
    t_hi = np.maximum(t, 1.0)
    out = np.where(
        big,
        np.log(0.25 * t_hi + 0.5 + 0.5 / t_hi) - np.log1p(1.0 / t_hi),
        np.log(0.25 * t_lo * t_lo + 0.5 * t_lo + 0.5) - np.log1p(t_lo),
    )
    return out


def pvalue_posterior_marginal(p: float):
    """Uncorrected log posterior marginal likelihood of the alternative."""
    p = _check_p(p)
    out = _log_marginal(p)
    return float(out) if out.ndim == 0 else out


def ebf_pvalue(p: float) -> EvidenceReport:
    """Factor in favour of the uniform null: (5/2) / M(p)."""
    p = _check_p(p)
    log_ebf01 = DEFAULT_LOG_BIAS - _log_marginal(p)
    if np.ndim(log_ebf01) != 0:
        raise DomainError("ebf_pvalue takes a scalar; map over batches instead")
    return EvidenceReport(float(log_ebf01), FAMILY,
                          HypothesisRegion.point(1.0), HypothesisRegion.above(1.0),
                          BiasValue.zero(), BiasValue.closed_form(DEFAULT_LOG_BIAS))


def posterior_prob_h0(p: float, prior_odds: float = 1.0) -> float:
    """P(null | p) given prior odds null:alternative."""
    if not (prior_odds > 0 and math.isfinite(prior_odds)):
        raise DomainError(f"prior odds must be positive and finite, got {prior_odds!r}")
    ebf01 = math.exp(ebf_pvalue(p).ebf01_log)
    po = prior_odds * ebf01
    return po / (1.0 + po)


def _log_cross_marginal(log1m_p, log1m_q):
    """log integral over beta > 1 of the p-likelihood against the
    (unnormalized) posterior weight built from q: (1-p) * (2s^3 + 2s^2 + s)
    with s = -1/(log(1-p) + log(1-q))."""
    s = -1.0 / (log1m_p + log1m_q)
    return np.log(2.0 * s**3 + 2.0 * s**2 + s) + log1m_p


def pvalue_expected_bias(beta: float, n_nodes: int = 160) -> BiasValue:
    """Expected bias for a fixed alternative shape beta, by quadrature.

    Both the observed and replicate P-values are drawn from Beta(1, beta);
    the substitution u = 1 - (1-p)^beta makes that law uniform on the unit
    square, and the inner integrals have closed forms.  The achieved error
    is estimated by doubling the node count.
    """
    if not (math.isfinite(beta) and beta > 1.0):
        raise DomainError(f"alternative shape beta must be finite and > 1, got {beta!r}")
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, numbers.Integral) or n_nodes < 1:
        raise DomainError(f"n_nodes must be a positive integer, got {n_nodes!r}")

    def estimate(n):
        x, w = roots_legendre(n)
        u = 0.5 * (x + 1.0)
        w = 0.5 * w
        log1m = np.log1p(-u) / beta          # log(1-p) for p = 1-(1-u)^(1/beta)
        t = -1.0 / log1m
        log_own = (np.log(0.25 * t**3 + 0.5 * t**2 + 0.5 * t) + log1m)
        cross = _log_cross_marginal(log1m[:, None], log1m[None, :])
        # normalizers of the posterior-from-q weight cancel between the two
        # integrals except for the denominator term log Z(p) - log Z(q)
        log_den = np.log(t**2 + t) + log1m   # log D(p) = log[(1-p)(t^2+t)]
        bracket = (log_own[:, None] - log_den[:, None]) - (cross - log_den[None, :])
        return float(w @ bracket @ w)

    coarse = estimate(n_nodes)
    fine = estimate(2 * n_nodes)
    err = abs(fine - coarse)
    if not math.isfinite(fine) or err > 0.02:
        raise NonConvergedError("expected-bias quadrature did not settle",
                                value=fine, error_estimate=err)
    return BiasValue(fine, "quadrature", achieved_error=err)
