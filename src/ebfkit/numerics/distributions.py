"""Probability distributions used by the test engines.

Densities and CDFs are written directly in terms of log-gamma and the
regularized incomplete beta/gamma functions.  The noncentral chi-square CDF
uses a Poisson-weighted series over central chi-square CDFs with an explicit
truncation bound on the neglected Poisson tail mass.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from ebfkit.exceptions import DomainError, NonConvergedError

__all__ = [
    "t_log_pdf", "t_cdf",
    "f_log_pdf", "f_cdf",
    "beta_cdf",
    "chi2_cdf", "chi2_sf",
    "noncentral_chi2_cdf",
]


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _check_df(df, name="df"):
    if not np.all(np.asarray(df) > 0):  # NaN fails too
        raise DomainError(f"{name} must be positive")


# ---------------------------------------------------------------- Student t

def t_log_pdf(t, df):
    """log density of the standard t distribution with df degrees of freedom."""
    _check_df(df)
    t = np.asarray(t, dtype=float)
    out = (_sp.gammaln((df + 1) / 2) - _sp.gammaln(df / 2)
           - 0.5 * np.log(df * np.pi)
           - (df + 1) / 2 * np.log1p(t * t / df))
    return _scalar_or_array(out)


def t_cdf(t, df):
    _check_df(df)
    t = np.asarray(t, dtype=float)
    return _scalar_or_array(_sp.stdtr(df, t))


# ------------------------------------------------------------------------ F

def f_log_pdf(x, df1, df2):
    """log density of the F distribution on x >= 0 (the x = 0 value is the
    density limit: -inf for df1 > 2, 0 for df1 = 2, +inf below), evaluated
    in tau = log x so that large x cannot overflow."""
    _check_df(df1, "df1")
    _check_df(df2, "df2")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("f_log_pdf requires x >= 0")
    with np.errstate(divide="ignore"):
        tau = np.log(x)
    log_ratio = np.log(df1 / df2)
    coef = 0.5 * df1 - 1.0
    with np.errstate(invalid="ignore"):
        power = np.where(coef == 0.0, 0.0, coef * tau)  # 0 * (-inf) is 0 here
    out = (0.5 * df1 * log_ratio + power
           - 0.5 * (df1 + df2) * np.logaddexp(0.0, log_ratio + tau)
           - _sp.betaln(0.5 * df1, 0.5 * df2))
    return _scalar_or_array(out)


def f_cdf(x, df1, df2):
    _check_df(df1, "df1")
    _check_df(df2, "df2")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("f_cdf requires x >= 0")
    y = df1 * x / (df1 * x + df2)
    return _scalar_or_array(_sp.betainc(0.5 * df1, 0.5 * df2, y))


# --------------------------------------------------------------------- beta

def beta_cdf(x, a, b):
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
        raise DomainError("beta_cdf requires a, b > 0")
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return _scalar_or_array(_sp.betainc(a, b, x))


# ------------------------------------------------------------------- chi^2

def chi2_cdf(x, df):
    _check_df(df)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("chi2_cdf requires x >= 0")
    return _scalar_or_array(_sp.gammainc(df / 2, x / 2))


def chi2_sf(x, df):
    """Survival function 1 - CDF, accurate in the upper tail."""
    _check_df(df)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("chi2_sf requires x >= 0")
    return _scalar_or_array(_sp.gammaincc(df / 2, x / 2))


def noncentral_chi2_cdf(x, df, ncp, tail_mass_tol=1e-12, max_terms=200000):
    """CDF of the noncentral chi-square distribution.

    Poisson(ncp/2)-weighted mixture of central chi-square CDFs, truncated
    once the neglected Poisson tail mass falls below tail_mass_tol.  Raises
    NonConvergedError if max_terms is hit first.  A NaN x or a NaN or
    infinite ncp raises DomainError.
    """
    _check_df(df)
    if not 0.0 <= ncp < np.inf:
        raise DomainError(f"noncentral_chi2_cdf requires finite ncp >= 0, got {ncp!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("noncentral_chi2_cdf requires x >= 0, not NaN")
    if ncp == 0:
        return chi2_cdf(x, df)

    lam = 0.5 * ncp
    scalar = x.ndim == 0
    flat = np.atleast_1d(x)
    total = np.zeros_like(flat)
    block = 256
    k0 = 0
    tail = np.inf
    while k0 < max_terms:
        k = np.arange(k0, k0 + block)
        w = np.exp(k * np.log(lam) - lam - _sp.gammaln(k + 1))
        total += w @ _sp.gammainc(df / 2 + k[:, None], flat[None, :] / 2)
        k0 += block
        tail = _sp.gammainc(k0, lam)  # P(Poisson(lam) >= k0)
        if tail <= tail_mass_tol:
            out = np.clip(total, 0.0, 1.0)
            return float(out[0]) if scalar else out
    raise NonConvergedError(
        f"noncentral_chi2_cdf: Poisson tail mass {tail:.3e} above "
        f"{tail_mass_tol:.1e} after {max_terms} terms", value=float(np.max(total)))
