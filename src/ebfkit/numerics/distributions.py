"""Probability distributions used by the test engines.

The t and F densities are written directly in terms of log-gamma; their
region masses come from ``special.log_beta_mass``.  The central chi-square
CDFs are the regularized incomplete gamma functions, and the noncentral
one is scipy's ``chndtr``.  Each function imports scipy.special when it is
called, not when this module is imported.
"""

from __future__ import annotations

import numpy as np

from ebfkit.exceptions import DomainError

__all__ = [
    "t_log_pdf",
    "f_log_pdf",
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
    from scipy.special import gammaln
    out = (gammaln((df + 1) / 2) - gammaln(df / 2)
           - 0.5 * np.log(df * np.pi)
           - (df + 1) / 2 * np.log1p(t * t / df))
    return _scalar_or_array(out)


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
    from scipy.special import betaln
    out = (0.5 * df1 * log_ratio + power
           - 0.5 * (df1 + df2) * np.logaddexp(0.0, log_ratio + tau)
           - betaln(0.5 * df1, 0.5 * df2))
    return _scalar_or_array(out)


# ------------------------------------------------------------------- chi^2

def chi2_cdf(x, df):
    _check_df(df)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("chi2_cdf requires x >= 0")
    from scipy.special import gammainc
    return _scalar_or_array(gammainc(df / 2, x / 2))


def chi2_sf(x, df):
    """Survival function 1 - CDF, accurate in the upper tail."""
    _check_df(df)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("chi2_sf requires x >= 0")
    from scipy.special import gammaincc
    return _scalar_or_array(gammaincc(df / 2, x / 2))


def noncentral_chi2_cdf(x, df, ncp):
    """CDF of the noncentral chi-square distribution.  A NaN x or a NaN or
    infinite ncp raises DomainError."""
    _check_df(df)
    if not 0.0 <= ncp < np.inf:
        raise DomainError(f"noncentral_chi2_cdf requires finite ncp >= 0, got {ncp!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("noncentral_chi2_cdf requires x >= 0, not NaN")
    from scipy.special import chndtr
    return _scalar_or_array(chndtr(x, df, ncp))
