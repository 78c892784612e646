"""Reference values the benchmark checks ebfkit's outputs against.

Everything here is written from the formulas in the package docstrings and
the paper, with numpy and scipy.special only, so a check does not call the
code path it checks.  The one exception is named in the multiple-testing
oracle: it reuses ebfkit's scalar ``cross_marginal`` for the borrowed-prior
terms, which is a separate code path from the vectorised mixture kernel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaln, chdtri, gammaln, log_ndtr, logsumexp, ndtri

LOG2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)
EVIDENCE_BASE = 2.0 + math.sqrt(3.0)


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def close(label, got, want, rtol=1e-9, atol=1e-9):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol,
                                                  equal_nan=True):
        worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.nan
        raise CheckFailed(f"{label}: got {got.ravel()[:4]}, want {want.ravel()[:4]} "
                          f"(max abs diff {worst:.3g})")


def require(label, condition):
    if not condition:
        raise CheckFailed(label)


# ---------------------------------------------------------------- normal

def _log_phi_ratio(z):
    return float(log_ndtr(z) - log_ndtr(z * math.sqrt(2.0)))


def normal_two_sided(z):
    """log EBF01 = log(sqrt 2 exp(-(z^2 - 1)/2))."""
    return 0.5 * LOG2 - 0.5 * (z * z - 1.0)


def normal_one_sided(z, negative_possible=True):
    bias1 = 0.25 if negative_possible else 0.5
    return _log_phi_ratio(z) + 0.5 * LOG2 - 0.5 * z * z + bias1


def normal_directional(z):
    s2 = math.sqrt(2.0)
    return float(log_ndtr(-z * s2) - log_ndtr(z * s2) + log_ndtr(z) - log_ndtr(-z))


def normal_chi_squared(z2, d):
    return 0.5 * d * LOG2 - 0.5 * (z2 - d)


def log_normal_mass(kind, a, b, mu, sd):
    """log N(mu, sd^2) mass of a region ('full', 'below', 'above', 'interval')."""
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if kind == "full":
        return np.zeros(np.broadcast(mu, sd).shape)
    if kind == "below":
        return log_ndtr((a - mu) / sd)
    if kind == "above":
        return log_ndtr((mu - a) / sd)
    lo, hi = (a - mu) / sd, (b - mu) / sd
    flip = lo + hi > 0.0  # keep both bounds in the lower tail
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    l_hi, l_lo = log_ndtr(hi), log_ndtr(lo)
    return l_hi + np.log1p(-np.exp(l_lo - l_hi))


_REGION_BIAS = {"point": 0.0, "interval": 0.0, "below": 0.25, "above": 0.25, "full": 0.5}


def normal_region_log_marginal(x, sigma, region):
    """Bias-corrected log marginal of a mean region (region = (kind, a, b))."""
    kind, a, b = region
    if kind == "point":
        return -0.5 * ((x - a) ** 2 / sigma ** 2 + math.log(sigma ** 2) + LOG_2PI)
    own = -0.5 * (math.log(2.0 * sigma ** 2) + LOG_2PI)
    return float(own + log_normal_mass(kind, a, b, x, sigma / math.sqrt(2.0))
                 - log_normal_mass(kind, a, b, x, sigma) - _REGION_BIAS[kind])


def normal_regions(x, sigma, h0, h1):
    return (normal_region_log_marginal(x, sigma, h0)
            - normal_region_log_marginal(x, sigma, h1))


# ---------------------------------------------------------------- P-values

def pvalue_log_marginal(p):
    """log M(p), M(p) = (t^2/4 + t/2 + 1/2)/(t + 1) with t = -1/log(1-p)."""
    p = np.asarray(p, dtype=float)
    t = -1.0 / np.log1p(-p)
    return np.log(0.25 * t * t + 0.5 * t + 0.5) - np.log1p(t)


def pvalue_ebf01_log(p):
    """log of (5/2)/M(p)."""
    return math.log(2.5) - pvalue_log_marginal(p)


# ---------------------------------------------------------------- calibration

def calibration_rows_check(rows):
    for row in rows:
        u = row["units"]
        target = u * math.log(EVIDENCE_BASE)
        close("calibrate ebf10", row["ebf10"], EVIDENCE_BASE ** u)
        z2 = ndtri(1.0 - row["p_normal_2_sided"] / 2.0) ** 2
        close("calibrate normal p", 0.5 * (z2 - 1.0) - 0.5 * LOG2, target, 1e-7, 1e-7)
        for d, key in ((2, "p_chi2_2df"), (3, "p_chi2_3df")):
            z2 = chdtri(d, row[key])
            close(f"calibrate chi2 {d}", 0.5 * (z2 - d) - 0.5 * d * LOG2, target,
                  1e-7, 1e-7)
        close("calibrate nonparametric", row["p_nonparametric"],
              1.0 / (10.0 * EVIDENCE_BASE ** u))


def curve_rows_check(rows):
    p = np.array([r["p"] for r in rows])
    z = ndtri(1.0 - p / 2.0)
    close("curve normal", [r["neg_log10_ebf01_normal"] for r in rows],
          -normal_two_sided(z) / math.log(10.0), 1e-8, 1e-8)
    close("curve nonparametric", [r["neg_log10_ebf01_nonparametric"] for r in rows],
          -pvalue_ebf01_log(p) / math.log(10.0))
    close("curve brc", [r["neg_log10_brc"] for r in rows],
          0.5 * (z * z + 1.0) / math.log(10.0), 1e-8, 1e-8)
    sellke = np.where(p < math.exp(-1.0),
                      -np.log10(-math.e * p * np.log(np.minimum(p, 0.5))), np.nan)
    close("curve sellke", [r["neg_log10_sellke_bound"] for r in rows], sellke)


# ---------------------------------------------------------------- t and F

def t_log_pdf(t, df):
    return (gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * math.log(df * math.pi)
            - (df + 1.0) / 2.0 * math.log1p(t * t / df))


def t_log_full_marginal(df):
    """log c(df), the full-line t marginal."""
    return (2.0 * gammaln((df + 1.0) / 2.0) + gammaln(df + 0.5)
            - 0.5 * math.log(df * math.pi)
            - 2.0 * gammaln(df / 2.0) - gammaln(df + 1.0))


def t_point_full(t, df, bias_full):
    """log EBF01 of point:0 against the full line."""
    return t_log_pdf(t, df) - (t_log_full_marginal(df) - bias_full)


def f_log_pdf(x, d1, d2):
    return (0.5 * d1 * math.log(d1 / d2) + (0.5 * d1 - 1.0) * math.log(x)
            - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2) - betaln(0.5 * d1, 0.5 * d2))


def f_point_full(x, d1, d2, bias_full):
    """log EBF01 of scale 1 against the whole scale axis."""
    log_kf = betaln(d1, d2) - 2.0 * betaln(0.5 * d1, 0.5 * d2)
    return f_log_pdf(x, d1, d2) - (log_kf - math.log(x) - bias_full)


T_BIAS_RANGE = (0.5, 2.0 * LOG2)


# ---------------------------------------------------------------- counts

def _log_choose(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _log_beta_mass(region, a, b):
    kind, ra, rb = region
    lo, hi = {"full": (0.0, 1.0), "below": (0.0, ra), "above": (ra, 1.0),
              "interval": (ra, rb)}[kind]
    cdf = betainc(a, b, hi) - betainc(a, b, lo)
    sf = betainc(b, a, 1.0 - lo) - betainc(b, a, 1.0 - hi)
    return math.log(max(cdf, sf))


def count_log_marginal(x, n, model, alpha, region):
    """Uncorrected log marginal of a region of the success probability."""
    kind = region[0]
    lc = _log_choose(n, x) if model == "binomial" else _log_choose(n - 1, x - 1)
    if kind == "point":
        p0 = region[1]
        return lc + x * math.log(p0) + (n - x) * math.log1p(-p0)
    f = n - x
    return (lc + betaln(2 * x + alpha, 2 * f + alpha) - betaln(x + alpha, f + alpha)
            + _log_beta_mass(region, 2 * x + alpha, 2 * f + alpha)
            - _log_beta_mass(region, x + alpha, f + alpha))


def binom_full_bias(n, alpha=1.0):
    """Exact expected bias of the unrestricted binomial marginal, summed
    over the (observed, replicate) lattice with a loop per observed count."""
    x = np.arange(n + 1, dtype=float)
    f = n - x
    lc = _log_choose(n, x)
    log_own = betaln(2 * x + alpha, 2 * f + alpha) - betaln(x + alpha, f + alpha)
    total = 0.0
    for i in range(n + 1):
        s_x, s_f = x[i] + x, f[i] + f
        log_cross = betaln(s_x + alpha, s_f + alpha) - betaln(x + alpha, f + alpha)
        log_w = lc[i] + lc + betaln(s_x + alpha, s_f + alpha) - betaln(alpha, alpha)
        total += float(np.sum(np.exp(log_w) * (log_own[i] - log_cross)))
    return total


# ---------------------------------------------------------------- multitest

def mixture_log_marginal_row(batch, i, region, cross_marginal):
    """log mixture marginal of test i, region = (kind, a, b), with the
    borrowed-prior terms from ebfkit's scalar ``cross_marginal`` and the
    own term and masses from the formulas above."""
    kind, a, b = region
    x, se = batch.estimates, batch.standard_errors
    if kind == "point":
        return -0.5 * ((x[i] - a) ** 2 / se[i] ** 2 + math.log(se[i] ** 2) + LOG_2PI)
    own = (-0.5 * (math.log(2.0 * se[i] ** 2) + LOG_2PI)
           + float(log_normal_mass(kind, a, b, x[i], se[i] / math.sqrt(2.0)))
           - _REGION_BIAS[kind])
    hyp = _as_region(region)
    cross = [cross_marginal(batch, i, j, hyp) for j in range(x.size) if j != i]
    log_pi = math.log(batch.pi_h)
    num = logsumexp(np.concatenate([[own], np.asarray(cross) + log_pi]))
    mass = np.exp(log_normal_mass(kind, a, b, x, se))
    den = mass[i] + batch.pi_h * (mass.sum() - mass[i])
    return float(num - math.log(den))


def _as_region(region):
    from ebfkit.core import HypothesisRegion
    kind, a, b = region
    if kind == "full":
        return HypothesisRegion.full()
    if kind == "interval":
        return HypothesisRegion.interval(a, b)
    return HypothesisRegion(kind, float(a))


# ---------------------------------------------------------------- simulation

def replicate_mixture(x, centers, var, pi_h, own_log_weight):
    """Full-line mixture log marginals for (replicates, m) arrays."""
    m = x.shape[1]
    v = 2.0 * var
    terms = -0.5 * ((x[:, :, None] - centers[:, None, :]) ** 2 / v + math.log(v) + LOG_2PI)
    weights = np.full((m, m), math.log(pi_h))
    np.fill_diagonal(weights, own_log_weight)
    return logsumexp(terms + weights, axis=2) - math.log1p(pi_h * (m - 1))
