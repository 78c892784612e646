"""Hot numeric kernels of the multiple-testing mixture.

The pairwise mixture-marginal accumulations behind the multiple-testing
factor and the simulation harness are O(m^2) per batch (per replicate) and
dominate runtime at scale.  Both are vectorized numpy.  The batch kernel
walks the m x m pairwise terms in tiles of whole rows holding about
``_TILE_ELEMENTS`` entries each, so its working memory is O(m * tile)
rather than O(m^2).  ``_log_ndtr_scalar`` and ``_log_mass_scalar`` are the
scalar reference that ``multitest.cross_marginal`` builds single terms
from.

Region encoding: kind 0 point, 1 below (-inf, a), 2 above (a, inf),
3 interval (a, b), 4 full line.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

__all__ = [
    "KIND_POINT", "KIND_BELOW", "KIND_ABOVE", "KIND_INTERVAL", "KIND_FULL",
    "active_backend", "mixture_log_marginals", "replicate_mixture_log_marginals",
]

KIND_POINT, KIND_BELOW, KIND_ABOVE, KIND_INTERVAL, KIND_FULL = 0, 1, 2, 3, 4

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Entries in one (rows x m) working array of the batch kernel.  2**16
# float64 values (512 KiB) stay within a typical L2 cache; at m = 2000 on a
# 2-core Xeon, tiles of 2**14..2**16 entries ran fastest and 2**20 lost most
# of the gain.
_TILE_ELEMENTS = 1 << 16


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def _log_ndtr_scalar(z):
    """log Phi(z) with an asymptotic branch far into the lower tail."""
    if z > 6.0:
        return math.log1p(-0.5 * math.erfc(z * _SQRT1_2))
    if z > -37.0:
        return math.log(0.5 * math.erfc(-z * _SQRT1_2))
    zi = 1.0 / z
    zi2 = zi * zi
    series = 1.0 + zi2 * (-1.0 + zi2 * (3.0 + zi2 * (-15.0 + zi2 * 105.0)))
    return -0.5 * z * z - math.log(-z) - 0.5 * _LOG_2PI + math.log(series)


def _log_mass_scalar(kind, a, b, mu, sd):
    """log of the N(mu, sd^2) mass of an encoded region."""
    if kind == KIND_FULL:
        return 0.0
    if kind == KIND_BELOW:
        return _log_ndtr_scalar((a - mu) / sd)
    if kind == KIND_ABOVE:
        return _log_ndtr_scalar((mu - a) / sd)
    alpha = (a - mu) / sd
    beta = (b - mu) / sd
    if alpha + beta > 0.0:
        alpha, beta = -beta, -alpha
    lb = _log_ndtr_scalar(beta)
    la = _log_ndtr_scalar(alpha)
    diff = la - lb
    if diff >= 0.0:
        return -math.inf
    return lb + math.log1p(-math.exp(diff))


def _log_mass(kind, a, b, mu, sd):
    """Elementwise log of the N(mu, sd^2) mass of an encoded non-point
    region: the array form of ``_log_mass_scalar``."""
    if kind == KIND_FULL:
        return np.zeros(np.broadcast(mu, sd).shape)
    if kind == KIND_BELOW:
        return log_ndtr((a - mu) / sd)
    if kind == KIND_ABOVE:
        return log_ndtr((mu - a) / sd)
    alpha = (a - mu) / sd
    beta = (b - mu) / sd
    flip = alpha + beta > 0.0
    lb = log_ndtr(np.where(flip, -alpha, beta))
    la = log_ndtr(np.where(flip, -beta, alpha))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = la - lb
        return np.where(diff < 0.0,
                        lb + np.log1p(-np.exp(np.minimum(diff, -1e-300))), -np.inf)


def _mixture_kernel_np(x, var, kind, a, b, pi_h, own_bias, out):
    if kind == KIND_POINT:
        out[:] = -0.5 * ((x - a) ** 2 / var + np.log(var) + _LOG_2PI)
        return
    m = x.shape[0]
    log_pi = math.log(pi_h)
    den = np.exp(_log_mass(kind, a, b, x, np.sqrt(var)))
    den += pi_h * (den.sum() - den)
    rows = max(1, _TILE_ELEMENTS // m)
    for i0 in range(0, m, rows):
        i = np.arange(i0, min(i0 + rows, m))
        xi, vi = x[i, None], var[i, None]
        v = vi + var
        terms = -0.5 * ((xi - x) ** 2 / v + np.log(v) + _LOG_2PI)
        if kind != KIND_FULL:
            terms += _log_mass(kind, a, b, (xi * var + x * vi) / v,
                               np.sqrt(vi * var / v))
        diag = (i - i0, i)
        own = terms[diag] - own_bias
        terms += log_pi
        terms[diag] = own
        best = terms.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            terms -= best
        np.exp(terms, out=terms)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.where(np.isfinite(best[:, 0]),
                           best[:, 0] + np.log(terms.sum(axis=1)), -math.inf)
        out[i] = num - np.log(den[i])


def _replicate_kernel_np(x, centers, var, pi_h, own_log_weight, out):
    n_rep, m = x.shape
    v = 2.0 * var
    logw = np.where(np.eye(m, dtype=bool), own_log_weight, math.log(pi_h))
    log_norm = math.log1p(pi_h * (m - 1))
    chunk = max(1, int(2_000_000 // max(m * m, 1)))
    for r0 in range(0, n_rep, chunk):
        xs = x[r0:r0 + chunk]
        cs = centers[r0:r0 + chunk]
        terms = (-0.5 * ((xs[:, :, None] - cs[:, None, :]) ** 2 / v
                         + math.log(v) + _LOG_2PI) + logw)
        best = terms.max(axis=2, keepdims=True)
        out[r0:r0 + chunk] = (best[:, :, 0]
                              + np.log(np.sum(np.exp(terms - best), axis=2))
                              - log_norm)


def mixture_log_marginals(x, standard_errors, kind, a, b, pi_h, own_bias):
    """Per-test log mixture marginal of one region for a batch of normal
    statistics.  The own-data term is down-weighted by exp(-own_bias); the
    other tests' contributions carry weight pi_h."""
    x = np.ascontiguousarray(x, dtype=float)
    var = np.ascontiguousarray(np.square(standard_errors, dtype=float))
    out = np.empty_like(x)
    af = float(a) if a is not None else 0.0
    bf = float(b) if b is not None else 0.0
    _mixture_kernel_np(x, var, kind, af, bf, float(pi_h), float(own_bias), out)
    return out


def replicate_mixture_log_marginals(x, centers, variance, pi_h, own_log_weight):
    """Full-line mixture log marginals for stacked replicate batches.

    x and centers are (replicates, m); the shared per-test sampling variance
    is ``variance``.  own_log_weight is 0 for the raw marginal and
    -expected_bias for the adjusted one.
    """
    x = np.ascontiguousarray(x, dtype=float)
    centers = np.ascontiguousarray(centers, dtype=float)
    out = np.empty_like(x)
    _replicate_kernel_np(x, centers, float(variance), float(pi_h),
                         float(own_log_weight), out)
    return out
