"""Hot numeric kernels of the multiple-testing mixture.

The pairwise mixture-marginal accumulations behind the multiple-testing
factor and the simulation harness are O(m^2) per batch (per replicate) and
dominate runtime at scale.  Both are vectorized numpy.  The batch kernel
walks the m x m pairwise terms in tiles of whole rows holding about
``_TILE_ELEMENTS`` entries each, so its working memory is O(m * tile)
rather than O(m^2).

Each tile is summed in the linear domain: shifted by the row max of the
Gaussian part only, every pair's term is a product of exp, 1/sqrt(v) and a
region mass from ``ndtr``, which costs far less than ``log_ndtr`` and the
pairwise posterior mean and sd it would need.  A row whose region lies
beyond the tail of every posterior underflows there; it alone is recomputed
by the log-domain tile (``_log_rows``), so results match the log-domain
sum over the whole range.  ``_log_mass_scalar``, on
``numerics.special.log_ndtr_scalar``, is the scalar reference that
``multitest.cross_marginal`` builds single terms from.

Region encoding: kind 0 point, 1 below (-inf, a), 2 above (a, inf),
3 interval (a, b), 4 full line.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr

from ebfkit.numerics.special import log_ndtr_scalar

__all__ = [
    "KIND_POINT", "KIND_BELOW", "KIND_ABOVE", "KIND_INTERVAL", "KIND_FULL",
    "active_backend", "mixture_log_marginals", "replicate_mixture_log_marginals",
]

KIND_POINT, KIND_BELOW, KIND_ABOVE, KIND_INTERVAL, KIND_FULL = 0, 1, 2, 3, 4

_LOG_2PI = math.log(2.0 * math.pi)

# Entries in one (rows x m) working array of the batch kernel.  2**16
# float64 values (512 KiB) stay within a typical L2 cache; at m = 2000 on a
# 2-core Xeon, tiles of 2**14..2**16 entries ran fastest and 2**20 lost most
# of the gain.
_TILE_ELEMENTS = 1 << 16

# A row of the linear-domain tile whose scaled sum falls below this has lost
# its terms to underflow and is recomputed in the log domain.  Only rows
# whose region lies beyond the tail of every posterior get there.
_LINEAR_FLOOR = 1e-280


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def _log_mass_scalar(kind, a, b, mu, sd):
    """log of the N(mu, sd^2) mass of an encoded region."""
    if kind == KIND_FULL:
        return 0.0
    if kind == KIND_BELOW:
        return log_ndtr_scalar((a - mu) / sd)
    if kind == KIND_ABOVE:
        return log_ndtr_scalar((mu - a) / sd)
    alpha = (a - mu) / sd
    beta = (b - mu) / sd
    if alpha + beta > 0.0:
        alpha, beta = -beta, -alpha
    lb = log_ndtr_scalar(beta)
    la = log_ndtr_scalar(alpha)
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


def _log_rows(x, var, kind, a, b, log_pi, own_bias, i):
    """Log-domain numerators of rows i: log sum_j w_ij N(x_i; x_j, v_i + v_j)
    times the mass test j's posterior, updated by x_i, puts on the region."""
    xi, vi = x[i, None], var[i, None]
    v = vi + var
    terms = -0.5 * ((xi - x) ** 2 / v + np.log(v) + _LOG_2PI)
    if kind != KIND_FULL:
        terms += _log_mass(kind, a, b, (xi * var + x * vi) / v,
                           np.sqrt(vi * var / v))
    diag = (np.arange(i.size), i)
    own = terms[diag] - own_bias
    terms += log_pi
    terms[diag] = own
    best = terms.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        terms -= best
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(best[:, 0]),
                        best[:, 0] + np.log(terms.sum(axis=1)), -math.inf)


def _linear_rows(x, sd, var, kind, za, zb, log_pi, own_bias, i):
    """The numerators of ``_log_rows`` in the linear domain; NaN marks a row
    whose scaled sum fell below ``_LINEAR_FLOOR``.

    With r = 1 / sqrt(v_i + v_j) and t = (x_i - x_j) r, a pair's term is
    w_ij exp(-t^2 / 2) r mass_ij / sqrt(2 pi).  Each row is shifted by the max
    of its Gaussian part only.  The mass is a standard normal CDF at
    (sd_j z_i + sd_i z_j) r, where z_k standardizes a bound by test k's own
    posterior, so the pairwise posterior mean and sd are never formed.
    """
    vi = var[i, None]
    r = vi + var
    np.sqrt(r, out=r)
    np.reciprocal(r, out=r)
    g = x[i, None] - x
    g *= r
    np.square(g, out=g)
    g *= -0.5
    g += log_pi
    g[np.arange(i.size), i] = -own_bias  # t_ii = 0
    shift = g.max(axis=1)
    g -= shift[:, None]
    np.exp(g, out=g)
    g *= r
    if kind != KIND_FULL:
        sdi = sd[i, None]
        z = za[i, None] * sd
        z += sdi * za
        z *= r
        if kind == KIND_INTERVAL:
            # za and zb hold the centre c and half-width h of the standardized
            # interval; flipped into the lower tail it is (-|c| - h, -|c| + h)
            h = zb[i, None] * sd
            h += sdi * zb
            h *= r
            np.abs(z, out=z)
            np.negative(z, out=z)
            hi = z + h
            z -= h
            ndtr(hi, out=hi)
            hi -= ndtr(z, out=z)
            g *= hi
        else:
            g *= ndtr(z, out=z)
    total = g.sum(axis=1)
    with np.errstate(divide="ignore"):
        num = shift + np.log(total) - 0.5 * _LOG_2PI
    num[~(total >= _LINEAR_FLOOR)] = np.nan
    return num


def _mixture_kernel_np(x, var, kind, a, b, pi_h, own_bias, out):
    if kind == KIND_POINT:
        out[:] = -0.5 * ((x - a) ** 2 / var + np.log(var) + _LOG_2PI)
        return
    m = x.shape[0]
    log_pi = math.log(pi_h)
    sd = np.sqrt(var)
    den = np.exp(_log_mass(kind, a, b, x, sd))
    den += pi_h * (den.sum() - den)
    # per-test standardized bounds, oriented so the pair mass is ndtr(z_ij)
    za = zb = None
    if kind == KIND_BELOW:
        za = (a - x) / sd
    elif kind == KIND_ABOVE:
        za = (x - a) / sd
    elif kind == KIND_INTERVAL:
        za = (0.5 * (a + b) - x) / sd
        zb = 0.5 * (b - a) / sd
    rows = max(1, _TILE_ELEMENTS // m)
    for i0 in range(0, m, rows):
        i = np.arange(i0, min(i0 + rows, m))
        out[i] = _linear_rows(x, sd, var, kind, za, zb, log_pi, own_bias, i)
    deep = np.flatnonzero(np.isnan(out))
    for k0 in range(0, deep.size, rows):
        i = deep[k0:k0 + rows]
        out[i] = _log_rows(x, var, kind, a, b, log_pi, own_bias, i)
    out -= np.log(den)


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
