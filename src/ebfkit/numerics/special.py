"""Special functions and the standard normal distribution.

Domain-checked forms of the special functions, so every caller in the
package goes through one audited surface.  ``log_ndtr_scalar`` and
``normal_log_pdf_scalar`` are math-module forms for single floats, which
the scalar engines call many times per batch.  The t, F and count engines
take every region mass from the log-space ``log_beta_mass``.  All but the
two scalar forms import scipy.special when called, not when this module is
imported, so the scalar normal engine never loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

from ebfkit.exceptions import DomainError, NonConvergedError

__all__ = [
    "log_gamma",
    "log_beta",
    "log_beta_mass",
    "normal_log_pdf_scalar",
    "log_ndtr_scalar",
    "normal_quantile",
]


def log_gamma(a):
    """Natural log of the gamma function for a > 0."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise DomainError("log_gamma requires a > 0")
    from scipy.special import gammaln
    out = gammaln(a)
    return float(out) if out.ndim == 0 else out


def log_beta(a, b):
    """log B(a, b) for a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("log_beta requires a, b > 0")
    from scipy.special import betaln
    out = betaln(a, b)
    return float(out) if out.ndim == 0 else out


# A tail whose betainc value is below this (subnormal, or zero where it
# underflows) is taken from the continued fraction in log space instead.
_LOG_TAIL_FLOOR = math.log(1e-280)


def log_beta_mass(a, b, lo, lo_c, hi, hi_c):
    """log of the Beta(a, b) mass of (lo, hi), for arrays.

    Each bound comes with its complement, lo_c = 1 - lo and hi_c = 1 - hi,
    so that an upper tail keeps full precision.  The mass is taken from the
    tail on the region's side of the mean: log L(hi) + log1p(-exp(log L(lo)
    - log L(hi))) with L(x) = I_x(a, b) below it, and the same form in the
    upper tail, the lower tail of Beta(b, a) at 1 - x, otherwise.  The whole
    of [0, 1] has log mass 0, and an empty region -inf.
    """
    if np.all((lo <= 0.0) & (hi >= 1.0)):
        out = np.zeros(np.broadcast(a, b, lo, hi).shape)
    else:
        lower = hi * (a + b) <= a
        p, q = np.where(lower, a, b), np.where(lower, b, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            near = _log_tail(p, q, np.where(lower, hi, lo_c), np.where(lower, hi_c, lo))
            # a far tail below the floor moves the mass only if the near one
            # is within about 40 (e^-40 < 2^-53) of it
            far = _log_tail(p, q, np.where(lower, lo, hi_c), np.where(lower, lo_c, hi),
                            near < _LOG_TAIL_FLOOR + 40.0)
            out = near + np.log1p(-np.exp(np.fmin(far - near, 0.0)))
    return out if np.ndim(out) else float(out)


def _log_tail(a, b, x, xc, wanted=True):
    """log I_x(a, b) given xc = 1 - x: log(betainc), or, where that is below
    the floor and wanted, the log prefactor x^a (1 - x)^b / (a B(a, b)) plus
    the log of its continued fraction by the modified Lentz method (Numerical
    Recipes, 3rd ed., section 6.4), which converges in a few terms there."""
    from scipy.special import betainc, betaln
    out = np.log(betainc(a, b, x))
    deep = (out < _LOG_TAIL_FLOOR) & (x > 0.0) & wanted
    if not deep.any():
        return out
    out, deep, a, b, x, xc = np.broadcast_arrays(out, deep, a, b, x, xc)
    out, a, b, x, xc = out.copy(), a[deep], b[deep], x[deep], xc[deep]

    def away_from_zero(v):
        return np.where(np.abs(v) < 1e-300, 1e-300, v)

    c = np.ones_like(x)
    d = 1.0 / away_from_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1001):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / away_from_zero(1.0 + num * d)
            c = away_from_zero(1.0 + num / c)
            step = c * d
            h = h * step
        if np.all(np.abs(step - 1.0) <= 1e-15):
            out[deep] = (a * np.log(x) + b * np.log(xc) - np.log(a) - betaln(a, b)
                         + np.log(h))
            return out
    raise NonConvergedError("incomplete beta continued fraction not converged "
                            f"after {m} terms")


_LOG_2PI = math.log(2.0 * math.pi)


def normal_log_pdf_scalar(x: float, mean: float = 0.0, variance: float = 1.0) -> float:
    """log of the normal density with the given mean and variance, for one
    float, without numpy."""
    if not variance > 0:
        raise DomainError("normal_log_pdf_scalar requires variance > 0")
    d = x - mean
    return -0.5 * (d * d / variance + math.log(variance) + _LOG_2PI)


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
    from scipy.special import ndtri
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out
