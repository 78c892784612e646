"""Seeded Monte Carlo studies of the single- and multiple-test factors.

Three mean configurations are studied for batches of m normal tests:
scenario 1 sets every mean to zero, scenario 2 redraws means from N(0, 1)
per replicate, scenario 3 fixes them to an evenly spaced grid over [-5, 5]
(endpoints included).  Sample size enters only through the standard error
1/sqrt(n) of each summary statistic, so replicates draw the statistics
directly.  Every estimate is reported with its Monte Carlo standard error,
and identical specifications (including the seed) reproduce identical
tables: each (scenario, m) cell draws from its own keyed stream, so results
do not depend on evaluation order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ebfkit import _kernels
from ebfkit.exceptions import DomainError
from ebfkit.numerics import RngStream, noncentral_chi2_cdf
from ebfkit.numerics.rng import _MASK64

__all__ = [
    "ScenarioSpec",
    "run_bias_experiment",
    "run_mse_experiment",
    "run_largescale",
    "sensitivity_curves",
    "DEFAULT_REPLICATES",
    "PAPER_SCALE_REPLICATES",
]

DEFAULT_REPLICATES = 2000
PAPER_SCALE_REPLICATES = 10000

_FULL_LINE_BIAS = 0.5  # unrestricted normal mean hypothesis


def _check_pi_h(pi_h: float) -> None:
    if not 0.0 < pi_h <= 1.0:  # the MultiTestBatch rule; NaN fails it too
        raise DomainError(f"pi_h must lie in (0, 1], got {pi_h!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the bias/error experiments."""

    scenario: int
    m: int
    replicates: int = DEFAULT_REPLICATES
    n: int = 100           # per-test sample size; standard error = 1/sqrt(n)
    seed: int = 2024
    pi_h: float = 1.0

    def __post_init__(self):
        if self.scenario not in (1, 2, 3):
            raise DomainError("scenario must be 1, 2, or 3")
        if self.m < 1 or self.replicates < 1 or self.n < 1:
            raise DomainError("m, replicates, and n must be positive")
        _check_pi_h(self.pi_h)

    def stream(self, role: int) -> RngStream:
        index = (self.scenario * 1_000_003 + self.m * 1_009 + role) & _MASK64
        return RngStream(self.seed, index)


def _draw_batches(spec: ScenarioSpec):
    """Observed statistics, independent replicate statistics, and their
    shared standard error."""
    eta = 1.0 / math.sqrt(spec.n)
    r, m = spec.replicates, spec.m
    if spec.scenario == 1:
        means = np.zeros((r, m))
    elif spec.scenario == 2:
        means = spec.stream(0).standard_normal((r, m))
    else:
        means = np.broadcast_to(np.linspace(-5.0, 5.0, m), (r, m)).copy()
    x = means + eta * spec.stream(1).standard_normal((r, m))
    y = means + eta * spec.stream(2).standard_normal((r, m))
    return x, y, eta


def _experiment_errors(spec: ScenarioSpec):
    """Per-replicate, per-test errors of the log marginal for the
    unrestricted alternative, against the replicate-prior marginal.

    Returns (raw mixture error, adjusted mixture error, adjusted single-test
    error) arrays of shape (replicates, m).
    """
    x, y, eta = _draw_batches(spec)
    var = eta * eta
    raw = _kernels.replicate_mixture_log_marginals(x, x, var, spec.pi_h, 0.0)
    adj = _kernels.replicate_mixture_log_marginals(x, x, var, spec.pi_h,
                                                   -_FULL_LINE_BIAS)
    ref = _kernels.replicate_mixture_log_marginals(x, y, var, spec.pi_h, 0.0)
    # single test: own term only, reference from own replicate
    single = (x - y) ** 2 / (4.0 * var) - _FULL_LINE_BIAS
    return raw - ref, adj - ref, single


def _with_se(values: np.ndarray) -> tuple[float, float]:
    flat = values.reshape(values.shape[0], -1).mean(axis=1)
    return float(flat.mean()), float(flat.std(ddof=1) / math.sqrt(flat.size))


def run_bias_experiment(spec: ScenarioSpec) -> dict:
    """Mean over-statement of the log marginal with and without the
    own-term adjustment."""
    err_raw, err_adj, _ = _experiment_errors(spec)
    unadj, se_u = _with_se(err_raw)
    adj, se_a = _with_se(err_adj)
    return {
        "scenario": spec.scenario, "m": spec.m, "replicates": spec.replicates,
        "unadjusted_bias": unadj, "unadjusted_se": se_u,
        "adjusted_bias": adj, "adjusted_se": se_a,
    }


def run_mse_experiment(spec: ScenarioSpec) -> dict:
    """Mean squared error of the adjusted log marginal, single against
    multiple."""
    _, err_adj, err_single = _experiment_errors(spec)
    single, se_s = _with_se(err_single ** 2)
    multiple, se_m = _with_se(err_adj ** 2)
    return {
        "scenario": spec.scenario, "m": spec.m, "replicates": spec.replicates,
        "single_mse": single, "single_se": se_s,
        "multiple_mse": multiple, "multiple_se": se_m,
    }


def run_largescale(m0: int, m1: int, seed: int = 2024,
                   pi_values=(1.0, 0.01)) -> dict:
    """One batch of m0 null and m1 signal tests with unit standard errors.

    Returns per-test records (single- and multiple-test log factors against
    the null for each pi value), signal mean ranks, and true-positive
    proportion curves on a shared threshold grid covering the strongest 200
    tests.
    """
    if m0 < 0 or m1 < 0 or m0 + m1 < 1:
        raise DomainError("need at least one test")
    if len(pi_values) == 0:
        raise DomainError("pi_values needs at least one prior probability")
    for pi in pi_values:
        _check_pi_h(pi)
    m = m0 + m1
    stream = RngStream(seed, 777)
    means = np.concatenate([np.zeros(m0), stream.standard_normal(m1)])
    x = means + stream.substream(1).standard_normal(m)
    is_signal = np.concatenate([np.zeros(m0, bool), np.ones(m1, bool)])

    # single-test two-sided factor against the point null, unit variance
    single = -(0.5 * math.log(2.0) - 0.5 * (x * x - 1.0))

    # one replicate with unit variances is the batch kernel's full-line walk
    ones = np.ones(m)
    logm0 = -0.5 * (x * x + math.log(2.0 * math.pi))
    multi = {pi: _kernels.mixture_log_marginals(x, ones, _kernels.KIND_FULL, None, None,
                                                pi, _FULL_LINE_BIAS) - logm0
             for pi in pi_values}

    def mean_rank(score):
        order = np.argsort(-score, kind="stable")
        rank = np.empty(m)
        rank[order] = np.arange(1, m + 1)
        return float(rank[is_signal].mean()) if m1 else float("nan")

    primary = multi[pi_values[0]]
    top = min(200, m)
    lo = min(np.partition(single, m - top)[m - top],
             np.partition(primary, m - top)[m - top])
    hi = max(single.max(), primary.max())
    thresholds = np.linspace(lo, hi, 200, endpoint=False)

    def tpp(score):
        props = np.empty(thresholds.size)
        counts = np.empty(thresholds.size, dtype=int)
        for k, t in enumerate(thresholds):
            sel = score > t
            counts[k] = int(sel.sum())
            props[k] = float(is_signal[sel].mean()) if counts[k] else 0.0
        return props, counts

    tpp_single, n_single = tpp(single)
    tpp_multi, n_multi = tpp(primary)
    return {
        "ids": np.arange(m),
        "mu": means,
        "z": x,
        "is_signal": is_signal,
        "single_ebf10_log": single,
        "multi_ebf10_log": {pi: vals for pi, vals in multi.items()},
        "mean_rank_single": mean_rank(single),
        "mean_rank_multi": mean_rank(primary),
        "thresholds": thresholds,
        "tpp_single": tpp_single,
        "tpp_multi": tpp_multi,
        "n_selected_single": n_single,
        "n_selected_multi": n_multi,
    }


def sensitivity_curves(n: int, mu_over_sigma_grid) -> list[dict]:
    """Probability that each factor favours the alternative, as the true
    standardized mean varies at fixed sample size n.

    The squared standardized statistic follows a noncentral chi-square law
    with one degree of freedom and noncentrality n (mu/sigma)^2.  The
    corrected factor favours the alternative when z^2 > 1 + log 2; the
    unit-information factor when z^2 > (n+1) log(n+1) / n.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    ebf_threshold = 1.0 + math.log(2.0)
    ui_threshold = (n + 1.0) * math.log(n + 1.0) / n
    rows = []
    for ratio in np.atleast_1d(np.asarray(mu_over_sigma_grid, dtype=float)):
        ncp = n * ratio * ratio
        p_ebf_h1 = 1.0 - noncentral_chi2_cdf(ebf_threshold, 1, ncp)
        p_ui_h1 = 1.0 - noncentral_chi2_cdf(ui_threshold, 1, ncp)
        rows.append({
            "mu_over_sigma": float(ratio),
            "p_ebf_favours_h1": p_ebf_h1,
            "p_ui_favours_h1": p_ui_h1,
            "p_ebf_favours_h0_null": noncentral_chi2_cdf(ebf_threshold, 1, 0.0),
            "p_ui_favours_h0_null": noncentral_chi2_cdf(ui_threshold, 1, 0.0),
        })
    return rows
