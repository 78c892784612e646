"""Empirical Bayes factors for t-distributed statistics.

With a flat prior on the location, the posterior marginal likelihood of a
region H for a standardized statistic t with df degrees of freedom is

    M_H = c(df) * P_H[t_{2 df + 1} location-scale at t, scale
          sqrt(df/(2 df + 1))] / P_H[t_df centred at t]

with leading constant

    c(df) = Gamma((df+1)/2)^2 Gamma(df + 1/2)
            / (sqrt(df pi) Gamma(df/2)^2 Gamma(df+1)).

Each mass is taken in log space from V = df / (df + T^2) ~ Beta(df/2, 1/2),
so a factor stays finite where a mass is below the smallest double.

The expected overfitting bias of log M for the unrestricted hypothesis has
an exact reduction: writing g for the density of the difference D = X - Y of
two independent t_df draws (so g(0) = c(df)),

    E bias = log g(0) + entropy(g),

which this module evaluates by adaptive quadrature over a spline of g.  The
bias is halved for half-line hypotheses and vanishes for point or interval
hypotheses; it decreases from 2 log 2 at df = 1 towards the normal value 1/2.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate as _integrate
from scipy.interpolate import CubicSpline

from ebfkit.core import (BIAS_CACHE_SIZE, BiasValue, EvidenceReport, HypothesisRegion,
                         LogMarginal, make_report)
from ebfkit.exceptions import DegenerateRegionError, DomainError, NonConvergedError
from ebfkit.numerics import t_log_pdf
from ebfkit.numerics.special import log_beta_mass

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
_LOG2 = math.log(2.0)


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
    return (2.0 * math.lgamma((df + 1.0) / 2.0) + math.lgamma(df + 0.5)
            - 0.5 * math.log(df * math.pi)
            - 2.0 * math.lgamma(df / 2.0) - math.lgamma(df + 1.0))


# ----------------------------------------------------------------- marginals

def _log_masses(region: HypothesisRegion, centre: float, scale, df):
    """log masses of a region under t laws about one centre, one law per
    element of the scale and df arrays.  V falls as |T| grows and the law is
    symmetric, so a region on one side of the centre has half the Beta mass
    between its ends' images, and one that holds it half the Beta mass
    above each end's image."""
    a, b = region.bounds()
    lo, hi = (a - centre) / scale, (b - centre) / scale
    if hi[0] <= 0.0:
        lo, hi = -hi, -lo
    if lo[0] >= 0.0:
        mass = log_beta_mass(0.5 * df, 0.5, *_beta_point(hi, df), *_beta_point(lo, df))
    else:
        mass = np.logaddexp(*log_beta_mass(0.5 * df, 0.5,
                                           *_beta_point(np.array([lo, hi]), df), 1.0, 0.0))
    return mass - _LOG2


def _beta_point(t, df):
    """df / (df + t^2) and its complement t^2 / (df + t^2), for arrays."""
    with np.errstate(over="ignore", divide="ignore"):
        t2 = t * t
        return 1.0 / (1.0 + t2 / df), 1.0 / (1.0 + df / t2)


def t_posterior_marginal(t: float, df: float,
                         region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood of a location region."""
    _check_args(t, df)
    if region.is_point():
        return LogMarginal(t_log_pdf(t - region.a, df), FAMILY)
    num, den = _log_masses(region, t, np.array([math.sqrt(df / (2.0 * df + 1.0)), 1.0]),
                           np.array([2.0 * df + 1.0, df])).tolist()
    if -math.inf in (num, den):
        raise DegenerateRegionError("region mass underflows to zero")
    return LogMarginal(log_leading_constant(df) + num - den, FAMILY)


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
    return _expected_bias(float(df))


@functools.lru_cache(maxsize=BIAS_CACHE_SIZE)
def _expected_bias(df: float) -> BiasValue:
    dens = _DifferenceDensity(df)

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
    return BiasValue(value, "quadrature", achieved_error=err)


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
