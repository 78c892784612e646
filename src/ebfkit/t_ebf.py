"""Empirical Bayes factors for t-distributed statistics.

With a flat prior on the location, the posterior marginal likelihood of a
region H for a standardized statistic t with df degrees of freedom is

    M_H = c(df) * P_H[t_{2 df + 1} location-scale at t, scale
          sqrt(df/(2 df + 1))] / P_H[t_df centred at t]

with leading constant

    c(df) = Gamma((df+1)/2)^2 Gamma(df + 1/2)
            / (sqrt(df pi) Gamma(df/2)^2 Gamma(df+1)).

The expected overfitting bias of log M for the unrestricted hypothesis has
an exact reduction: writing g for the density of the difference D = X - Y of
two independent t_df draws (so g(0) = c(df)),

    E bias = log g(0) + entropy(g),

which this module evaluates by adaptive quadrature over a spline of g.  The
bias is halved for half-line hypotheses and vanishes for point or interval
hypotheses; it decreases from 2 log 2 at df = 1 towards the normal value 1/2.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy import integrate as _integrate
from scipy.interpolate import CubicSpline

from ebfkit.core import BiasValue, EvidenceReport, HypothesisRegion, LogMarginal, make_report
from ebfkit.exceptions import DegenerateRegionError, DomainError, NonConvergedError
from ebfkit.numerics import log_gamma, t_cdf, t_log_pdf

__all__ = [
    "FAMILY",
    "log_leading_constant",
    "t_posterior_marginal",
    "t_expected_bias",
    "region_bias",
    "ebf_t",
]

FAMILY = "t"

LARGE_DF_CUTOFF = 200      # beyond this the normal constant 1/2 is used
_LARGE_DF_BIAS_ERROR = 2e-3  # verified against quadrature at the cutoff


def _check_args(t: float | None, df: float) -> None:
    """Reject a statistic (None skips it) or degrees of freedom outside the
    family's domain, naming the input."""
    if t is not None and not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if not 1.0 <= df < math.inf:
        raise DomainError(f"df must be finite and >= 1, got {df!r}")


def log_leading_constant(df: float) -> float:
    """log c(df), the full-line posterior marginal likelihood."""
    if not 0.0 < df < math.inf:
        raise DomainError(f"df must be positive and finite, got {df!r}")
    return (2.0 * log_gamma((df + 1.0) / 2.0) + log_gamma(df + 0.5)
            - 0.5 * math.log(df * math.pi)
            - 2.0 * log_gamma(df / 2.0) - log_gamma(df + 1.0))


# ----------------------------------------------------------------- marginals

def _mass(region: HypothesisRegion, centre: float, scale: float, df: float) -> float:
    """t_df mass of a region about centre at scale.  A region that lies
    wholly above the centre is mirrored into the lower tail, where the CDF
    difference does not cancel."""
    a, b = region.bounds()
    lo, hi = (a - centre) / scale, (b - centre) / scale
    if lo > 0.0:
        lo, hi = -hi, -lo
    mass = ((t_cdf(hi, df) if hi < math.inf else 1.0)
            - (t_cdf(lo, df) if lo > -math.inf else 0.0))
    if mass <= 0.0:
        raise DegenerateRegionError("region mass underflows to zero")
    return mass


def t_posterior_marginal(t: float, df: float,
                         region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood of a location region."""
    _check_args(t, df)
    if region.is_point():
        return LogMarginal(t_log_pdf(t - region.a, df), FAMILY)
    num_scale = math.sqrt(df / (2.0 * df + 1.0))
    log_value = (log_leading_constant(df)
                 + math.log(_mass(region, t, num_scale, 2.0 * df + 1.0))
                 - math.log(_mass(region, t, 1.0, df)))
    return LogMarginal(log_value, FAMILY)


# ----------------------------------------------------------------- bias

def _difference_log_density(d: float, df: float) -> float:
    """log density of X - Y (X, Y independent t_df).

    The integrand t(u) t(d-u) is symmetric about u = d/2 with humps at u = 0
    and u = d, so twice the integral up to d/2 suffices.  It is peak-scaled
    (peak t(0) t(d)) and the slowly varying stretch between the hump and the
    midpoint is integrated on the log scale, which keeps the quadrature
    honest out to very large d where the humps are millions of widths apart.
    """
    d = abs(d)
    lpeak = t_log_pdf(0.0, df) + t_log_pdf(d, df)

    def scaled(u):
        return math.exp(t_log_pdf(u, df) + t_log_pdf(d - u, df) - lpeak)

    hump_width = 40.0
    half = 0.5 * d
    total = 0.0
    lo_tail, _ = _integrate.quad(scaled, -math.inf, -hump_width,
                                 epsabs=1e-13, epsrel=1e-11, limit=200)
    total += lo_tail
    if half <= hump_width:
        v, _ = _integrate.quad(scaled, -hump_width, half,
                               points=[0.0] if half > 0.0 else None,
                               epsabs=1e-13, epsrel=1e-11, limit=200)
        total += v
    else:
        hump, _ = _integrate.quad(scaled, -hump_width, hump_width, points=[0.0],
                                  epsabs=1e-13, epsrel=1e-11, limit=200)
        valley, _ = _integrate.quad(
            lambda s: math.exp(s) * scaled(math.exp(s)),
            math.log(hump_width), math.log(half),
            epsabs=1e-13, epsrel=1e-11, limit=200)
        total += hump + valley
    return lpeak + math.log(2.0 * total)


class _DifferenceDensity:
    """Spline of the difference-statistic log density for one df.

    Stores the residual against the far-tail form log(2 t_df(d)) on an
    asinh grid, so evaluation is accurate from d = 0 out to arbitrarily
    large d.
    """

    TAIL_START = 8.0
    D_MAX = 1e8

    def __init__(self, df: float):
        self.df = df
        tau = np.concatenate([
            np.linspace(0.0, math.asinh(self.TAIL_START), 80),
            np.linspace(math.asinh(self.TAIL_START), math.asinh(self.D_MAX), 100)[1:],
        ])
        knots = np.sinh(tau)
        resid = np.array([
            _difference_log_density(d, df) - (math.log(2.0) + t_log_pdf(d, df))
            for d in knots
        ])
        self._spline = CubicSpline(tau, resid)
        # interpolation quality probed between knots
        mids = np.sinh(0.5 * (tau[:-1:37] + tau[1:][::37]))
        self.spline_error = max(
            abs(float(self._spline(math.asinh(d)))
                - (_difference_log_density(d, df) - math.log(2.0) - t_log_pdf(d, df)))
            for d in mids)

    def log_density(self, d: float) -> float:
        d = abs(d)
        if d <= self.D_MAX:
            resid = float(self._spline(math.asinh(d)))
        else:
            resid = 0.0  # relative error O(d^-2) past D_MAX
        return resid + math.log(2.0) + t_log_pdf(d, self.df)


_cache_lock = threading.Lock()
_density_cache: dict[float, _DifferenceDensity] = {}
_bias_cache: dict[float, BiasValue] = {}


def _difference_density(df: float) -> _DifferenceDensity:
    with _cache_lock:
        dens = _density_cache.get(df)
    if dens is None:
        dens = _DifferenceDensity(df)
        with _cache_lock:
            _density_cache.setdefault(df, dens)
    return dens


def t_expected_bias(df: float) -> BiasValue:
    """Expected bias of the unrestricted-hypothesis log marginal.

    log g(0) + entropy(g) for the difference density g, by adaptive
    quadrature with the unbounded half folded onto (0, 1].  Values for a
    given df are computed once and cached; beyond df = 200 the normal
    constant 1/2 is returned.
    """
    _check_args(None, df)
    if df > LARGE_DF_CUTOFF:
        return BiasValue(0.5, "closed-form", achieved_error=_LARGE_DF_BIAS_ERROR)
    key = float(df)
    with _cache_lock:
        cached = _bias_cache.get(key)
    if cached is not None:
        return cached

    dens = _difference_density(key)

    def weighted_log(d):
        ld = dens.log_density(d)
        return math.exp(ld) * ld

    near, e_near = _integrate.quad(weighted_log, 0.0, 1.0,
                                   epsabs=1e-12, epsrel=1e-10, limit=300)
    far, e_far = _integrate.quad(lambda u: weighted_log(1.0 / u) / (u * u),
                                 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300)
    entropy = -2.0 * (near + far)
    value = dens.log_density(0.0) + entropy
    err = 2.0 * (e_near + e_far) + 2.0 * dens.spline_error
    if err > 1e-3:
        raise NonConvergedError("t bias quadrature did not settle",
                                value=value, error_estimate=err)
    result = BiasValue(value, "quadrature", achieved_error=err)
    with _cache_lock:
        _bias_cache.setdefault(key, result)
    return result


def region_bias(region: HypothesisRegion, df: float) -> BiasValue:
    """Full bias for the unrestricted region, half for half-lines, zero for
    points and intervals."""
    if region.kind in ("point", "interval"):
        return BiasValue.zero()
    full = t_expected_bias(df)
    if region.kind in ("below", "above"):
        return full.scaled(0.5)
    return full


def ebf_t(t: float, df: float, h0: HypothesisRegion,
          h1: HypothesisRegion) -> EvidenceReport:
    """Region-vs-region factor for a standardized t statistic."""
    _check_args(t, df)
    b0, b1 = region_bias(h0, df), region_bias(h1, df)
    m0 = t_posterior_marginal(t, df, h0).correct(b0)
    m1 = t_posterior_marginal(t, df, h1).correct(b1)
    return make_report(m0, m1, h0, h1, b0, b1)
