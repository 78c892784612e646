"""Empirical Bayes factors for F-distributed statistics.

The observed value x satisfies: r X ~ F(df1, df2) for an unknown scale
r > 0, with the standard flat prior on log r.  The posterior marginal
likelihood of a region H of the r axis is

    M_H = Kf * P[F_{2 df1, 2 df2} puts (scaled) mass on H] /
          (x * P[F_{df1, df2} puts (scaled) mass on H]),

    Kf  = B(df1, df2) / B(df1/2, df2/2)^2.

An F mass is the log-space Beta(df1/2, df2/2) mass between the images
u = df1 y / (df1 y + df2) of the region's ends y = r x, exact in both tails.

The expected overfitting bias of the unrestricted hypothesis reduces, like
the location families, to

    E bias = log q(0) + entropy(q)

where q is the density of W = log Y - log X for two independent F(df1, df2)
draws (q(0) = Kf).  log F(df1, df2) is, up to a shift, log G_a - log G_b
for independent Gamma(a) and Gamma(b) draws, a = df1/2 and b = df2/2, and
E[G_a^{is}] = Gamma(a + is) / Gamma(a).  So W has the real, even, positive
characteristic function

    phi(s) = |Gamma(a + is)|^2 |Gamma(b + is)|^2 / (Gamma(a) Gamma(b))^2,

and q comes from phi by one inverse FFT on a periodic grid (Abate and
Whitt, Queueing Systems 10, 1992).

In the one-way analysis-of-variance use the test is one-sided with scales
above the null impossible by construction, so the half-line (0, 1) carries
the full unrestricted bias.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ebfkit.core import (BIAS_CACHE_SIZE, BiasValue, EvidenceReport, HypothesisRegion,
                         LogMarginal, make_report)
from ebfkit.exceptions import (DegenerateRegionError, DomainError, NonConvergedError,
                               UnsupportedRegionError)
from ebfkit.numerics import f_log_pdf, log_beta, log_gamma
from ebfkit.numerics.special import log_beta_mass

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

def _beta_point(y: float, df1, df2):
    """u = df1 y / (df1 y + df2) and its complement df2 / (df1 y + df2), for
    arrays of degrees of freedom.  Where the sum overflows, u rounds to 1
    and the complement is (df2 / df1) / y."""
    if y == math.inf:
        return 1.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        s = df1 * y + df2
        u, u_c = df1 * y / s, df2 / s
    wide = np.isinf(s)
    if wide.any():
        u, u_c = np.where(wide, 1.0, u), np.where(wide, df2 / df1 / y, u_c)
    return u, u_c


def f_posterior_marginal(x: float, df1: float, df2: float,
                         region: HypothesisRegion) -> LogMarginal:
    """Uncorrected log posterior marginal likelihood of a scale region."""
    _check_args(x, df1, df2)
    if region.is_point():
        if region.a <= 0:
            raise DomainError("a point hypothesis on the scale must be positive")
        return LogMarginal(math.log(region.a) + f_log_pdf(region.a * x, df1, df2),
                           FAMILY)
    # the numerator's F(2 df1, 2 df2) and the denominator's F(df1, df2)
    d1, d2 = np.array([2.0 * df1, df1]), np.array([2.0 * df2, df2])
    a, b = region.bounds(_DOMAIN)
    num, den = log_beta_mass(0.5 * d1, 0.5 * d2, *_beta_point(a * x, d1, d2),
                             *_beta_point(b * x, d1, d2)).tolist()
    if -math.inf in (num, den):
        raise DegenerateRegionError("region mass underflows to zero")
    return LogMarginal(log_scale_constant(df1, df2) - math.log(x) + num - den, FAMILY)


# --------------------------------------------------------------------- bias

def f_expected_bias(df1: float, df2: float) -> BiasValue:
    """Expected bias of the unrestricted-hypothesis log marginal.

    log q(0) + entropy(q) with q the log-ratio density; cached per
    (df1, df2) pair.  The one-sided analysis-of-variance hypothesis uses
    this same value.
    """
    _check_args(None, df1, df2)
    return _expected_bias(float(df1), float(df2))


@functools.lru_cache(maxsize=BIAS_CACHE_SIZE)
def _expected_bias(df1: float, df2: float) -> BiasValue:
    """q from phi by one inverse FFT, and the entropy as the grid sum of
    -q log q, which converges spectrally because q is smooth and periodised.

    The grid follows from (df1, df2): the period spans at least 60/rate and
    40 sd of W on each side, so the mass that wraps round is below
    e^(-rate period / 2); the frequencies reach where log phi < -45; and
    the spacing is at most sd / 64.  The achieved error is the change when
    the grid is doubled plus that wrapped mass.
    """
    from scipy.special import loggamma, polygamma
    a, b = 0.5 * df1, 0.5 * df2
    rate = min(a, b)  # exponential tail rate of q
    sd = math.sqrt(2.0 * float(polygamma(1, a) + polygamma(1, b)))
    period = 2.0 * max(60.0 / rate, 40.0 * sd)
    log_gamma_ab = log_gamma(a) + log_gamma(b)

    def log_phi(s):
        z = 1j * np.asarray(s, dtype=float)
        return 2.0 * (loggamma(a + z).real + loggamma(b + z).real - log_gamma_ab)

    cutoff = 1.0 / sd
    while log_phi(cutoff) >= -45.0:
        cutoff *= 2.0
    n = 1 << math.ceil(math.log2(max(cutoff * period / math.pi, 64.0 * period / sd)))
    phi = np.exp(log_phi(2.0 * math.pi / period * np.arange(n + 1)))

    def entropy(size):
        q = np.fft.irfft(phi[:size // 2 + 1], size) * (size / period)
        q = q[q > 0.0]
        return -float(np.sum(q * np.log(q))) * (period / size)

    coarse, fine = entropy(n), entropy(2 * n)
    value = log_scale_constant(df1, df2) + fine
    err = abs(fine - coarse) + math.exp(-0.5 * rate * period)
    if err > 1e-3:
        raise NonConvergedError("F bias inversion did not settle",
                                value=value, error_estimate=err)
    return BiasValue(value, "quadrature", achieved_error=err)


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
