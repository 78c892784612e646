"""Hot numeric kernels of the multiple-testing mixture.

The pairwise mixture-marginal accumulations behind the multiple-testing
factor and the simulation harness are O(m^2) per batch (per replicate) and
dominate runtime at scale.  Both are vectorized numpy.

A pair's term in the batch kernel is symmetric in (i, j), so it is computed
once per pair: the kernel walks the upper triangle in tiles of rows
[i0, i1) against columns [i0, m), each of at most ``_TILE_ELEMENTS``
entries or one row, so its working memory is O(tile + m) rather than
O(m^2).  A tile's row sums go to its own rows, and the column sums of its
part right of the diagonal block go to the later rows.

One walk serves one or two non-point regions, so a test's two hypotheses
cost one pass over the pairs (``paired_mixture_log_marginals``).  Each
tile builds the Gaussian factor g = exp(-t^2 / 2) r once, with
r = 1 / sqrt(v_i + v_j) and t = (x_i - x_j) r, and every region takes its
terms from it: g itself on the full line, g times a region mass from
``ndtr`` otherwise.  A walk imports ``ndtr`` and ``log_ndtr`` from
scipy.special only if it has such a mass, so a full-line or point batch
never loads scipy.  For below:a with above:a the two masses are q and
1 - q, so one q = ndtr(-|z|) gives both: the small side is g q and the
large side g - g q >= g / 2, which does not cancel.  A point region is a
closed-form density and takes no walk.

Each tile is summed in the linear domain with no row shift: every term is
a product of exp(-t^2 / 2) <= 1, r and a mass, which costs far less than
``log_ndtr`` and the pairwise posterior mean and sd it would need.  The
own term is read off the tile's diagonal, and each region's weights are
applied after the sum: e^-own_bias on the own term, pi_h on the others.  A
row whose region lies beyond the tail of every posterior underflows there;
it alone is recomputed by the log-domain tile (``_log_rows``), so results
match the log-domain sum over the whole range.  The denominator is summed
in log space, so it stays finite when every test's own region mass is
below the smallest double.  ``normal_ebf._log_mass`` is the scalar
reference that ``multitest.cross_marginal`` builds single terms from.

A walk of at least ``_SPLIT_TILES`` tiles runs on two threads.  Its tiles
are cut into ``_RUNS`` contiguous runs with about equal pair counts; the
calling thread and a worker started for the walk each take the next run
that neither has taken, until none is left, and the worker keeps the
caller's numpy error state.  numpy's ufuncs and ``ndtr`` release the GIL,
so the threads run on separate cores; when one of them loses its core,
the other takes the runs that are left.  Each run writes the own terms of
its own rows and adds into its own cross array, and the caller adds those
arrays in run order once both threads end.  The cuts depend on m and the
tile size alone, so the result is the same bits from run to run, whichever
thread walks which run.  A shorter walk is one pass in the caller, as
before: it starts no thread.

Region encoding: kind 0 point, 1 below (-inf, a), 2 above (a, inf),
3 interval (a, b), 4 full line.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "KIND_POINT", "KIND_BELOW", "KIND_ABOVE", "KIND_INTERVAL", "KIND_FULL",
    "active_backend", "mixture_log_marginals", "paired_mixture_log_marginals",
    "replicate_mixture_log_marginals",
]

KIND_POINT, KIND_BELOW, KIND_ABOVE, KIND_INTERVAL, KIND_FULL = 0, 1, 2, 3, 4

_LOG_2PI = math.log(2.0 * math.pi)

# Entries in one (rows x m) working array of the batch kernel.  A tile of
# two regions holds about five such arrays; at 2**14 float64 values
# (128 KiB) each they stay within a typical L2 cache.  On a 2-core Xeon
# with 2 MiB of L2 per core, 2**14 ran a below/above pair at m = 300-4000
# about 20% faster than 2**16, and 2**20 lost most of the gain of tiling.
_TILE_ELEMENTS = 1 << 14

# A walk of this many tiles or more runs on two threads; see the module
# docstring.  At the default tile size that is m >= 442.  On a 2-core VM
# with both cores free, two threads ran a walk with a region mass (ndtr)
# 1.3-1.4x as fast at 8 tiles and 1.1-1.35x at 4 (m = 300); a walk of the
# full line alone, with no ndtr, ran 0.62x as fast at 4 tiles, 0.88x at 8
# and broke even between 13 and 17.  8 keeps the full line at m = 300 and
# the CLI's batches (m <= 200) in one pass.
_SPLIT_TILES = 8

# A split walk is cut into this many runs of tiles, which its two threads
# take in turn, so a thread whose core is taken away holds up the walk by
# one run at most.  With a busy-loop process beside it, an m = 1000
# below/above walk in 8 runs took 1.04x the time of one pass, and in two
# fixed halves 1.17x; with both cores free, 2 to 16 runs timed within 7%.
_RUNS = 8

# A row of the linear-domain tile whose scaled sum falls below this has lost
# its terms to underflow and is recomputed in the log domain.  Only rows
# whose region lies beyond the tail of every posterior get there.
_LINEAR_FLOOR = 1e-280


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def _log_mass(kind, a, b, mu, sd, log_ndtr):
    """Elementwise log of the N(mu, sd^2) mass of an encoded non-point
    region: the array form of ``normal_ebf._log_mass``."""
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


def _log_rows(x, var, kind, a, b, log_pi, own_bias, log_ndtr, i):
    """Log-domain numerators of rows i: log sum_j w_ij N(x_i; x_j, v_i + v_j)
    times the mass test j's posterior, updated by x_i, puts on the region."""
    xi, vi = x[i, None], var[i, None]
    v = vi + var
    terms = -0.5 * ((xi - x) ** 2 / v + np.log(v) + _LOG_2PI)
    if kind != KIND_FULL:
        terms += _log_mass(kind, a, b, (xi * var + x * vi) / v,
                           np.sqrt(vi * var / v), log_ndtr)
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


def _standardized_bounds(kind, a, b, x, sd):
    """Per-test standardized bounds (za, zb) of a non-point region, oriented
    so that the pair mass is ndtr(z_ij), or ndtr(hi) - ndtr(lo) for an
    interval; (None, None) for the full line."""
    if kind == KIND_BELOW:
        return (a - x) / sd, None
    if kind == KIND_ABOVE:
        return (x - a) / sd, None
    if kind == KIND_INTERVAL:
        # the standardized centre c and half-width h of the interval
        return (0.5 * (a + b) - x) / sd, 0.5 * (b - a) / sd
    return None, None


def _pair_bound(sd, z, r, i0, i1):
    """(sd_j z_i + sd_i z_j) r over the tile: a per-test standardized bound
    carried to the pair's posterior, symmetric in (i, j)."""
    out = z[i0:i1, None] * sd[i0:]
    out += sd[i0:i1, None] * z[i0:]
    out *= r
    return out


def _pair_terms(x, sd, var, bounds, complementary, ndtr, i0, i1):
    """sqrt(2 pi) times the unweighted pair terms of each region, rows
    i0..i1-1 against columns i0..m-1: g mass_ij, with the Gaussian factor
    g = exp(-t^2 / 2) r, r = 1 / sqrt(v_i + v_j) and t = (x_i - x_j) r,
    built once and shared by the regions.

    The mass is a standard normal CDF at a pair bound (``_pair_bound``), so
    the pairwise posterior mean and sd are never formed.  For a
    complementary pair, below:a with above:a, the two masses are q and
    1 - q at one q = ndtr(-|z|): the smaller side is g q and the larger
    g - g q >= g / 2, so the subtraction does not cancel; the sign of z
    says which region is which side.  Every factor is symmetric in (i, j).
    """
    r = var[i0:i1, None] + var[i0:]
    np.sqrt(r, out=r)
    np.reciprocal(r, out=r)
    g = x[i0:i1, None] - x[i0:]
    g *= r
    np.square(g, out=g)
    g *= -0.5
    np.exp(g, out=g)
    g *= r
    if complementary:
        z = _pair_bound(sd, bounds[0][0], r, i0, i1)
        first_large = z >= 0.0
        np.abs(z, out=z)
        np.negative(z, out=z)
        small = ndtr(z, out=z)
        small *= g
        # the gap g - 2 g q >= 0 is added to the large side only, so each
        # small side is g q exactly
        gap = g
        gap -= small
        gap -= small
        first = gap * first_large
        gap -= first
        first += small
        gap += small
        return first, gap
    terms = []
    for za, zb in bounds:
        if za is None:
            terms.append(g)
            continue
        z = _pair_bound(sd, za, r, i0, i1)
        if zb is None:
            mass = ndtr(z, out=z)
        else:
            # the interval flipped into the lower tail, (-|c| - h, -|c| + h)
            h = _pair_bound(sd, zb, r, i0, i1)
            np.abs(z, out=z)
            np.negative(z, out=z)
            mass = z + h
            z -= h
            ndtr(mass, out=mass)
            mass -= ndtr(z, out=z)
        mass *= g
        terms.append(mass)
    return terms


def _accumulate(terms, own, cross, i0, i1):
    """Add one tile's terms to each region's own and cross sums.  The
    diagonal block holds both halves of its pairs, so its row sums cover
    them; each term right of it also belongs to its column's row.  Every
    own term is read before any diagonal is zeroed, since two regions may
    share one array."""
    diag = np.arange(i1 - i0)
    for k, t in enumerate(terms):
        own[k, i0:i1] = t[diag, diag]
    for k, t in enumerate(terms):
        t[diag, diag] = 0.0
        cross[k, i0:i1] += t.sum(axis=1)
        cross[k, i1:] += t[:, i1 - i0:].sum(axis=0)


def _finish(x, var, sd, region, pi_h, log_ndtr, own, cross, out):
    """log marginals of one region from its own and cross sums."""
    kind, a, b, own_bias = region
    total = math.exp(-own_bias) * own + pi_h * cross
    with np.errstate(divide="ignore"):
        np.log(total, out=out)
    out -= 0.5 * _LOG_2PI
    # rows whose region lies beyond the tail of every posterior underflow
    # here; they alone are recomputed in the log domain
    deep = np.flatnonzero(~(total >= _LINEAR_FLOOR))
    rows = max(1, _TILE_ELEMENTS // x.shape[0])
    for k0 in range(0, deep.size, rows):
        i = deep[k0:k0 + rows]
        out[i] = _log_rows(x, var, kind, a, b, math.log(pi_h), own_bias, log_ndtr, i)
    # denominator mass_i + pi_h sum_{j != i} mass_j, in log space so that
    # masses below the smallest double still give a finite value
    lmass = _log_mass(kind, a, b, x, sd, log_ndtr)
    top = lmass.max()
    with np.errstate(invalid="ignore"):  # NaN if every mass is 0 even in log space
        den = np.exp(lmass - top)
    den += pi_h * (den.sum() - den)
    out -= top + np.log(den)


def _tiles(m):
    """Row ranges [i0, i1) of the walk's tiles, each of at most
    ``_TILE_ELEMENTS`` entries of rows i0..i1-1 against columns i0..m-1,
    or one row."""
    tiles = []
    i0 = 0
    while i0 < m:
        i1 = min(m, i0 + max(1, _TILE_ELEMENTS // (m - i0)))
        tiles.append((i0, i1))
        i0 = i1
    return tiles


def _runs(m, tiles):
    """The tiles cut into up to ``_RUNS`` contiguous runs of about equal
    pair counts; the cuts depend on m and the tile size alone."""
    pairs = np.cumsum([(i1 - i0) * (m - i0) for i0, i1 in tiles])
    cuts = np.searchsorted(pairs, pairs[-1] * np.arange(1, _RUNS) / _RUNS) + 1
    runs = [tiles[c0:c1] for c0, c1 in zip([0, *cuts], [*cuts, len(tiles)])]
    return [run for run in runs if run]


def _walk_tiles(x, sd, var, bounds, complementary, ndtr, tiles, own, cross):
    for i0, i1 in tiles:
        # a temporary, so that a walk never holds two of its tiles at once
        _accumulate(_pair_terms(x, sd, var, bounds, complementary, ndtr, i0, i1),
                    own, cross, i0, i1)


def _walk_split(x, sd, var, bounds, complementary, ndtr, tiles, own, cross):
    """The walk on two threads: the caller and a worker started for the
    walk each take the next run of tiles that neither has taken, until none
    is left.  The worker walks under the caller's numpy error state.  Each
    run writes ``own`` on its own rows and adds into its own cross array,
    and these are added to ``cross`` in run order once both threads end, so
    the sums do not depend on which thread walked which run.  A run's
    exception reaches the caller."""
    runs = _runs(x.shape[0], tiles)
    crosses = np.zeros((len(runs), *cross.shape))
    queue = iter(range(len(runs)))  # shared: next() on it is atomic under the GIL
    err = np.geterr()
    failed = []

    def take():
        for k in queue:
            _walk_tiles(x, sd, var, bounds, complementary, ndtr, runs[k], own, crosses[k])

    def work():
        try:
            with np.errstate(**err):
                take()
        except BaseException as exc:
            failed.append(exc)

    worker = threading.Thread(target=work, name="ebfkit-walk")
    worker.start()
    try:
        take()
    finally:
        worker.join()
    if failed:
        raise failed[0]
    for part in crosses:
        cross += part


def _mixture_walk(x, var, regions, pi_h, outs):
    """Log marginals of one or two non-point regions, each (kind, a, b,
    own_bias), from one walk over the upper triangle of pairs.

    The walk goes in tiles of rows i0..i1-1 against columns i0..m-1, and
    every region's terms in a tile share its Gaussian factor.  The own
    terms are taken off the diagonal before summing, so each region's
    weights can be applied to its two sums afterwards.  A walk of at least
    ``_SPLIT_TILES`` tiles runs on two threads in fixed runs of tiles.
    """
    m = x.shape[0]
    sd = np.sqrt(var)
    bounds = [_standardized_bounds(kind, a, b, x, sd) for kind, a, b, _ in regions]
    complementary = (len(regions) == 2
                     and {regions[0][0], regions[1][0]} == {KIND_BELOW, KIND_ABOVE}
                     and regions[0][1] == regions[1][1])
    ndtr = log_ndtr = None  # a walk of the full line alone loads no scipy
    if any(kind != KIND_FULL for kind, *_ in regions):
        from scipy.special import log_ndtr, ndtr
    own = np.empty((len(regions), m))
    cross = np.zeros_like(own)
    tiles = _tiles(m)
    walk = _walk_tiles if len(tiles) < _SPLIT_TILES else _walk_split
    walk(x, sd, var, bounds, complementary, ndtr, tiles, own, cross)
    for k, region in enumerate(regions):
        _finish(x, var, sd, region, pi_h, log_ndtr, own[k], cross[k], outs[k])


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


def _log_marginals(x, standard_errors, regions, pi_h):
    """Log marginals of each region, (kind, a, b, own_bias): point regions
    in closed form, the others from one walk over the pairs."""
    x = np.ascontiguousarray(x, dtype=float)
    var = np.ascontiguousarray(np.square(standard_errors, dtype=float))
    regions = [(kind, 0.0 if a is None else float(a), 0.0 if b is None else float(b),
                float(own_bias)) for kind, a, b, own_bias in regions]
    outs = [np.empty_like(x) for _ in regions]
    if x.shape[0] == 0:
        return outs
    walked, walked_outs = [], []
    for region, out in zip(regions, outs):
        if region[0] == KIND_POINT:
            out[:] = -0.5 * ((x - region[1]) ** 2 / var + np.log(var) + _LOG_2PI)
        else:
            walked.append(region)
            walked_outs.append(out)
    if walked:
        _mixture_walk(x, var, walked, float(pi_h), walked_outs)
    return outs


def mixture_log_marginals(x, standard_errors, kind, a, b, pi_h, own_bias):
    """Per-test log mixture marginal of one region for a batch of normal
    statistics.  The own-data term is down-weighted by exp(-own_bias); the
    other tests' contributions carry weight pi_h."""
    return _log_marginals(x, standard_errors, [(kind, a, b, own_bias)], pi_h)[0]


def paired_mixture_log_marginals(x, standard_errors, h0, h1, pi_h):
    """Per-test log mixture marginals of two regions, h0 and h1, each given
    as (kind, a, b, own_bias), from one walk over the pairs whose tiles
    build the Gaussian factor once for both.  The same numbers as two
    ``mixture_log_marginals`` calls; returns (h0's, h1's)."""
    m0, m1 = _log_marginals(x, standard_errors, [h0, h1], pi_h)
    return m0, m1


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
