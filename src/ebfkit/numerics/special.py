"""Special functions and the standard normal distribution.

Thin, domain-checked wrappers around scipy.special so every caller in the
package goes through one audited surface.  ``log_ndtr_scalar`` and
``normal_log_pdf_scalar`` are math-module forms for single floats, which
the scalar engines call many times per batch.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from ebfkit.exceptions import DomainError

__all__ = [
    "log_gamma",
    "log_beta",
    "regularized_incomplete_beta",
    "normal_pdf",
    "normal_log_pdf",
    "normal_log_pdf_scalar",
    "normal_cdf",
    "normal_log_cdf",
    "log_ndtr_scalar",
    "normal_quantile",
]


def log_gamma(a):
    """Natural log of the gamma function for a > 0."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise DomainError("log_gamma requires a > 0")
    out = _sp.gammaln(a)
    return float(out) if out.ndim == 0 else out


def log_beta(a, b):
    """log B(a, b) for a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("log_beta requires a, b > 0")
    out = _sp.betaln(a, b)
    return float(out) if out.ndim == 0 else out


def regularized_incomplete_beta(x, a, b):
    """I_x(a, b), the regularized incomplete beta function."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise DomainError("regularized_incomplete_beta requires 0 <= x <= 1")
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("regularized_incomplete_beta requires a, b > 0")
    out = _sp.betainc(a, b, x)
    return float(out) if out.ndim == 0 else out


_LOG_2PI = math.log(2.0 * math.pi)


def normal_log_pdf(x, mean=0.0, variance=1.0):
    """log of the normal density with the given mean and variance."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.asarray(variance) > 0):
        raise DomainError("normal_log_pdf requires variance > 0")
    with np.errstate(over="ignore"):  # squared distance may overflow to inf
        out = -0.5 * ((x - mean) ** 2 / variance + np.log(variance) + _LOG_2PI)
    return float(out) if out.ndim == 0 else out


def normal_log_pdf_scalar(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """``normal_log_pdf`` for one float, without numpy."""
    if not variance > 0:
        raise DomainError("normal_log_pdf requires variance > 0")
    d = x - mean
    return -0.5 * (d * d / variance + math.log(variance) + _LOG_2PI)


def normal_pdf(x, mean=0.0, variance=1.0):
    out = np.exp(normal_log_pdf(x, mean, variance))
    return float(out) if np.ndim(out) == 0 else out


def normal_cdf(z):
    """Standard normal CDF."""
    z = np.asarray(z, dtype=float)
    out = _sp.ndtr(z)
    return float(out) if out.ndim == 0 else out


def normal_log_cdf(z):
    """log of the standard normal CDF, accurate far into the lower tail."""
    z = np.asarray(z, dtype=float)
    out = _sp.log_ndtr(z)
    return float(out) if out.ndim == 0 else out


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def log_ndtr_scalar(z: float) -> float:
    """log Phi(z) for one float: log1p of the upper tail above 0, so values
    near 0 keep full relative precision, and an asymptotic series below
    z = -37, where Phi(z) underflows."""
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z * _SQRT1_2))
    if z > -37.0:
        return math.log(0.5 * math.erfc(-z * _SQRT1_2))
    zi = 1.0 / z
    zi2 = zi * zi
    series = 1.0 + zi2 * (-1.0 + zi2 * (3.0 + zi2 * (-15.0 + zi2 * 105.0)))
    return -0.5 * z * z - math.log(-z) - 0.5 * _LOG_2PI + math.log(series)


def normal_quantile(p):
    """Inverse of the standard normal CDF for p in the open interval (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise DomainError("normal_quantile requires 0 < p < 1")
    out = _sp.ndtri(p)
    return float(out) if out.ndim == 0 else out
