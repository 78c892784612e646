"""Empirical Bayes factors for F-distributed statistics.

The observed value x satisfies: r X ~ F(df1, df2) for an unknown scale
r > 0, with the standard flat prior on log r.  The posterior marginal
likelihood of a region H of the r axis is

    M_H = Kf * P[F_{2 df1, 2 df2} puts (scaled) mass on H] /
          (x * P[F_{df1, df2} puts (scaled) mass on H]),

    Kf  = B(df1, df2) / B(df1/2, df2/2)^2.

The expected overfitting bias of the unrestricted hypothesis reduces, like
the location families, to

    E bias = log q(0) + entropy(q)

where q is the density of W = log Y - log X for two independent F(df1, df2)
draws (q(0) = Kf).  In the one-way analysis-of-variance use the test is
one-sided with scales above the null impossible by construction, so the
half-line (0, 1) carries the full unrestricted bias.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy import integrate as _integrate
from scipy.interpolate import CubicSpline

from ebfkit.core import BiasValue, EvidenceReport, HypothesisRegion, LogMarginal, make_report
from ebfkit.exceptions import (
    DegenerateRegionError,
    DomainError,
    NonConvergedError,
    UnsupportedRegionError,
)
from ebfkit.numerics import f_cdf, f_log_pdf, log_beta
from ebfkit.numerics.distributions import f_log_pdf_of_log

__all__ = [
    "FAMILY",
    "log_scale_constant",
    "f_posterior_marginal",
    "f_expected_bias",
    "region_bias",
    "ebf_f",
    "ebf_anova",
]

FAMILY = "f"
_DOMAIN = (0.0, math.inf)


def _check_args(x: float | None, df1: float, df2: float) -> None:
    """Reject an observed value (None skips it) or degrees of freedom
    outside the family's domain, naming the input."""
    if x is not None and not 0.0 < x < math.inf:
        raise DomainError(f"the observed F value x must be positive and finite, got {x!r}")
    for name, df in (("df1", df1), ("df2", df2)):
        if not 1.0 <= df < math.inf:
            raise DomainError(f"{name} must be finite and >= 1, got {df!r}")


def log_scale_constant(df1: float, df2: float) -> float:
    """log Kf = log B(df1, df2) - 2 log B(df1/2, df2/2)."""
    _check_args(None, df1, df2)
    return log_beta(df1, df2) - 2.0 * log_beta(0.5 * df1, 0.5 * df2)


# ---------------------------------------------------------------- marginals

def _scaled_mass(region: HypothesisRegion, x: float, df1: float, df2: float) -> float:
    a, b = region.bounds(_DOMAIN)
    lo = f_cdf(a * x, df1, df2) if a > 0.0 else 0.0
    hi = f_cdf(b * x, df1, df2) if b < math.inf else 1.0
    mass = hi - lo
    if mass <= 0.0:
        raise DegenerateRegionError("region mass underflows to zero")
    return mass


def f_posterior_marginal(x: float, df1: float, df2: float,
                         region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood of a scale region."""
    _check_args(x, df1, df2)
    if region.is_point():
        if region.a <= 0:
            raise DomainError("a point hypothesis on the scale must be positive")
        return LogMarginal(math.log(region.a) + f_log_pdf(region.a * x, df1, df2),
                           FAMILY)
    log_value = (log_scale_constant(df1, df2) - math.log(x)
                 + math.log(_scaled_mass(region, x, 2.0 * df1, 2.0 * df2))
                 - math.log(_scaled_mass(region, x, df1, df2)))
    return LogMarginal(log_value, FAMILY)


# --------------------------------------------------------------------- bias

def _log_ratio_log_density(w: float, df1: float, df2: float) -> float:
    """log density of W = log Y - log X at w (X, Y independent F(df1, df2)).

    Evaluated as e^w * integral over tau = log x of
    e^{2 tau} f(e^tau) f(e^{tau + w}).  The integrand can be bimodal and its
    humps drift with w and the df asymmetry, so the contributing window and
    interior peaks are located on a probe grid first; the integral is then
    peak-scaled adaptive quadrature over that window (mass outside it is
    below e^-45 of the peak).
    """
    w = abs(w)

    def log_integrand(tau):
        return (w + 2.0 * tau + f_log_pdf_of_log(tau, df1, df2)
                + f_log_pdf_of_log(tau + w, df1, df2))

    probe = np.linspace(-w - 30.0, 30.0, 1201)
    lg = log_integrand(probe)
    peak = float(np.max(lg))
    keep = np.flatnonzero(lg > peak - 45.0)
    lo = probe[max(keep[0] - 1, 0)]
    hi = probe[min(keep[-1] + 1, probe.size - 1)]
    interior = lg[1:-1]
    local_max = np.flatnonzero(
        (interior >= lg[:-2]) & (interior >= lg[2:]) & (interior > peak - 45.0)) + 1
    points = sorted(float(probe[i]) for i in local_max if lo < probe[i] < hi)

    def scaled(tau):
        return math.exp(log_integrand(tau) - peak)

    total, _ = _integrate.quad(scaled, lo, hi, points=points or None,
                               epsabs=1e-13, epsrel=1e-11, limit=300)
    return peak + math.log(total)


class _LogRatioDensity:
    """Spline of the log-ratio-statistic log density for one (df1, df2)."""

    N_KNOTS = 140

    def __init__(self, df1: float, df2: float):
        self.df1, self.df2 = df1, df2
        rate = 0.5 * min(df1, df2)  # exponential tail rate of q
        self.w_max = (42.0 + 8.0 * math.log(1.0 + max(df1, df2))) / rate
        # graded grid: log q curves most near w = 0, tails are near-linear
        u = np.linspace(0.0, 1.0, self.N_KNOTS)
        self.knots = self.w_max * u ** 1.6
        vals = np.array([_log_ratio_log_density(w, df1, df2) for w in self.knots])
        self._spline = CubicSpline(self.knots, vals)
        mids = 0.5 * (self.knots[:-1:23] + self.knots[1:][::23])
        self.spline_error = max(
            abs(float(self._spline(w)) - _log_ratio_log_density(w, df1, df2))
            for w in mids)
        # neglected entropy mass beyond w_max, bounded by the exponential tail
        q_end = math.exp(float(self._spline(self.w_max)))
        self.tail_bound = 2.0 * q_end * (abs(float(self._spline(self.w_max))) + 2.0) / rate

    def log_density(self, w: float) -> float:
        return float(self._spline(abs(w)))


_cache_lock = threading.Lock()
_density_cache: dict[tuple[float, float], _LogRatioDensity] = {}
_bias_cache: dict[tuple[float, float], BiasValue] = {}


def f_expected_bias(df1: float, df2: float) -> BiasValue:
    """Expected bias of the unrestricted-hypothesis log marginal.

    log q(0) + entropy(q) with q the log-ratio density; cached per
    (df1, df2) pair.  The one-sided analysis-of-variance hypothesis uses
    this same value.
    """
    _check_args(None, df1, df2)
    key = (float(df1), float(df2))
    with _cache_lock:
        cached = _bias_cache.get(key)
    if cached is not None:
        return cached

    with _cache_lock:
        dens = _density_cache.get(key)
    if dens is None:
        dens = _LogRatioDensity(*key)
        with _cache_lock:
            _density_cache.setdefault(key, dens)

    def weighted_log(w):
        lq = dens.log_density(w)
        return math.exp(lq) * lq

    half, err_q = _integrate.quad(weighted_log, 0.0, dens.w_max,
                                  epsabs=1e-12, epsrel=1e-10, limit=400)
    value = dens.log_density(0.0) - 2.0 * half
    err = 2.0 * err_q + 2.0 * dens.spline_error + dens.tail_bound
    if err > 1e-3:
        raise NonConvergedError("F bias quadrature did not settle",
                                value=value, error_estimate=err)
    result = BiasValue(value, "quadrature", achieved_error=err)
    with _cache_lock:
        _bias_cache.setdefault(key, result)
    return result


def region_bias(region: HypothesisRegion, df1: float, df2: float) -> BiasValue:
    """Bias for the region kinds this family defines.

    Points carry none; the full axis carries the unrestricted value; the
    lower half-line (0, c) also carries the unrestricted value since larger
    scales are excluded by construction in the one-sided use.  Other kinds
    have no established bias fraction and are rejected.
    """
    if region.is_point():
        return BiasValue.zero()
    if region.kind == "full" or region.covers_domain(_DOMAIN):
        return f_expected_bias(df1, df2)
    if region.kind == "below":
        return f_expected_bias(df1, df2)
    raise UnsupportedRegionError(
        f"no bias rule for region kind {region.kind!r} on the scale axis; "
        "supported: point, full, below")


def ebf_f(x: float, df1: float, df2: float, h0: HypothesisRegion,
          h1: HypothesisRegion) -> EvidenceReport:
    """Region-vs-region factor for an observed F statistic."""
    _check_args(x, df1, df2)
    b0, b1 = region_bias(h0, df1, df2), region_bias(h1, df1, df2)
    m0 = f_posterior_marginal(x, df1, df2, h0).correct(b0)
    m1 = f_posterior_marginal(x, df1, df2, h1).correct(b1)
    return make_report(m0, m1, h0, h1, b0, b1)


def ebf_anova(x: float, df1: float, df2: float) -> EvidenceReport:
    """One-sided analysis-of-variance factor: r = 1 against r < 1.

    The alternative marginal has the closed form
    Kf * F_{2 df1, 2 df2}(x) / (x * F_{df1, df2}(x)); the null is the F
    density itself with no bias.
    """
    return ebf_f(x, df1, df2, HypothesisRegion.point(1.0),
                 HypothesisRegion.below(1.0))
