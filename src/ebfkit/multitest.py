"""Empirical Bayes factors for batches of related tests.

Each test i observes a normal summary statistic x_i with known standard
error.  Instead of re-using only its own posterior, each test borrows the
other tests' posteriors through an exchangeable mixture with weight pi_h on
the foreign components.  The marginal likelihood of a region H for test i is

          e^{-b_H} own_i + pi_h * sum_{j != i} cross_ij
    M_i = -----------------------------------------------
          mass_i + pi_h * sum_{j != i} mass_j

where own_i is the single-test region integral, cross_ij reuses test j's
posterior as test i's prior (independent data, so it needs no correction),
mass_j is the posterior mass j puts on H, and b_H is the single-test bias
of the region.  At m = 1 this reduces exactly to the single-test factor.
Only the down-weighting of the own term corrects for double use of the
data; it is a heuristic rather than an exact bias, validated empirically by
the simulation harness.

With pi_h -> 0 the foreign terms vanish and each test recovers its
single-test factor; in large batches the factor is typically insensitive to
pi_h except very near 0, so the default pi_h = 1 is a serviceable choice
when the true fraction of non-null tests is unknown.

The numerators are O(m^2) sums over pairs of tests.  When neither
hypothesis is a point, both are taken in one walk over the pairs
(``_kernels.paired_mixture_log_marginals``): each tile's Gaussian factor
is built once for both regions, and a complementary pair below:a /
above:a gets both region masses from one ``ndtr`` per pair, as q and
1 - q.  A point hypothesis is a closed-form density, so it is computed on
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ebfkit import _kernels
from ebfkit import normal_ebf
from ebfkit.core import EvidenceReport, HypothesisRegion
from ebfkit.exceptions import DegenerateRegionError, DomainError, UnsupportedFamilyError
from ebfkit.numerics.special import normal_log_pdf_scalar

__all__ = ["MultiTestBatch", "cross_marginal", "multi_ebf", "ranked_summary"]

_KIND_CODE = {
    "point": _kernels.KIND_POINT,
    "below": _kernels.KIND_BELOW,
    "above": _kernels.KIND_ABOVE,
    "interval": _kernels.KIND_INTERVAL,
    "full": _kernels.KIND_FULL,
}


@dataclass(frozen=True)
class MultiTestBatch:
    """Ordered batch of (id, estimate, standard error) normal statistics
    sharing one region pair and one mixture weight pi_h."""

    ids: tuple
    estimates: np.ndarray
    standard_errors: np.ndarray
    h0: HypothesisRegion
    h1: HypothesisRegion
    pi_h: float = 1.0
    family: str = "normal"

    def __post_init__(self):
        if self.family != "normal":
            raise UnsupportedFamilyError(
                "the multiple-testing factor is defined for normal summary "
                f"statistics with known standard errors, not {self.family!r}")
        est = np.ascontiguousarray(self.estimates, dtype=float)
        se = np.ascontiguousarray(self.standard_errors, dtype=float)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "standard_errors", se)
        if est.ndim != 1 or est.shape != se.shape or est.size < 1:
            raise DomainError("estimates and standard errors must be equal-length, nonempty")
        if len(self.ids) != est.size:
            raise DomainError("ids must match the number of tests")
        if not (np.all(np.isfinite(est)) and np.all(np.isfinite(se))):
            raise DomainError("estimates and standard errors must be finite")
        if np.any(se <= 0):
            raise DomainError("standard errors must be positive")
        if not 0.0 < self.pi_h <= 1.0:
            raise DomainError("pi_h must lie in (0, 1]")

    @property
    def size(self) -> int:
        return self.estimates.size

    @staticmethod
    def from_arrays(estimates, standard_errors, h0, h1, pi_h=1.0, ids=None):
        est = np.asarray(estimates, dtype=float)
        if ids is None:
            ids = tuple(range(est.size))
        return MultiTestBatch(tuple(ids), est, np.asarray(standard_errors, dtype=float),
                              h0, h1, pi_h)


def cross_marginal(batch: MultiTestBatch, i: int, j: int,
                   region: HypothesisRegion) -> float:
    """log integral of test i's likelihood against test j's posterior over a
    region: the borrowed-prior numerator term of the mixture marginal."""
    for name, k in (("i", i), ("j", j)):
        if not 0 <= k < batch.size:
            raise DomainError(f"test index {name} = {k!r} is outside 0..{batch.size - 1}")
    if i == j:
        raise DomainError("cross_marginal needs two distinct tests")
    if region.kind == "point":
        raise DomainError("a point region has no cross terms; its marginal "
                          "is the plain density")
    xi, xj = float(batch.estimates[i]), float(batch.estimates[j])
    vi, vj = float(batch.standard_errors[i]) ** 2, float(batch.standard_errors[j]) ** 2
    v = vi + vj
    log_pdf = normal_log_pdf_scalar(xi, xj, v)
    if region.kind == "full":
        return log_pdf
    post_var = vi * vj / v
    post_mean = (xi * vj + xj * vi) / v
    return log_pdf + normal_ebf._log_mass(region, post_mean, math.sqrt(post_var))


def _region_args(region: HypothesisRegion):
    kind = _KIND_CODE[region.kind]
    if region.kind == "interval":
        return kind, region.a, region.b
    return kind, region.a, None


def multi_ebf(batch: MultiTestBatch) -> list[EvidenceReport]:
    """One evidence report per test from the mixture marginals.

    Two non-point regions share one walk over the pairs; a point region's
    marginal is a closed-form density with nothing to share.
    """
    b0, b1 = normal_ebf.region_bias(batch.h0), normal_ebf.region_bias(batch.h1)
    r0 = (*_region_args(batch.h0), b0.value)
    r1 = (*_region_args(batch.h1), b1.value)
    x, se, pi_h = batch.estimates, batch.standard_errors, batch.pi_h
    if "point" in (batch.h0.kind, batch.h1.kind):
        m0, m1 = (_kernels.mixture_log_marginals(x, se, kind, a, b, pi_h, own_bias)
                  for kind, a, b, own_bias in (r0, r1))
    else:
        m0, m1 = _kernels.paired_mixture_log_marginals(x, se, r0, r1, pi_h)
    if not (np.all(np.isfinite(m0)) and np.all(np.isfinite(m1))):
        raise DegenerateRegionError("a mixture marginal underflowed to zero mass")
    h0, h1 = batch.h0, batch.h1
    return [EvidenceReport(d, "normal-multi", h0, h1, b0, b1)
            for d in (m0 - m1).tolist()]


def ranked_summary(reports: list[EvidenceReport], ids=None) -> list[dict]:
    """Tests ordered by evidence against the null; ties keep input order."""
    if not reports:
        raise DomainError("ranked_summary needs at least one report")
    if ids is None:
        ids = range(len(reports))
    elif len(ids) != len(reports):
        raise DomainError(f"ranked_summary got {len(ids)} ids for "
                          f"{len(reports)} reports")
    score = np.array([r.ebf10_log for r in reports])
    order = np.argsort(-score, kind="stable").tolist()
    score = score.tolist()
    return [{"id": ids[idx], "ebf10_log": score[idx], "rank": rank}
            for rank, idx in enumerate(order, start=1)]
