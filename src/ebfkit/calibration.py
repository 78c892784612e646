"""The evidence-unit scale and P-value calibrations.

One unit of evidence is a Bayes factor of (sqrt(3)+1)/(sqrt(3)-1) = 2+sqrt(3)
(= 3.73 to three figures): the odds update whose log sits exactly where the
third derivative of the logistic curve vanishes, i.e. the steepest change in
how strongly further evidence moves belief.  The module also provides the
classical comparator quantities: the -e p log p lower bound, the
-e (1-p) log(1-p) lower bound, the posterior-predictive reference criterion
exp(-(z^2+1)/2), and the unit-information Bayes factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ebfkit.core import EVIDENCE_BASE, LOG_EVIDENCE_BASE
from ebfkit.exceptions import DomainError, UnsupportedFamilyError
from ebfkit.numerics import chi2_sf, normal_quantile
from ebfkit.pvalue_ebf import ebf_pvalue

__all__ = [
    "EvidenceUnits",
    "units_of_evidence",
    "bf10_for_units",
    "logistic_boundary_check",
    "p_for_units",
    "calibration_table",
    "sellke_bound",
    "held_ott_bound",
    "brc",
    "unit_information_bf",
    "calibration_curve",
]

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class EvidenceUnits:
    units: float
    base: float = EVIDENCE_BASE


def units_of_evidence(bf10: float) -> EvidenceUnits:
    """log of a Bayes factor against the null, in base 2+sqrt(3)."""
    if not 0.0 < bf10 < math.inf:
        raise DomainError(f"Bayes factor bf10 must be positive and finite, got {bf10!r}")
    return EvidenceUnits(math.log(bf10) / LOG_EVIDENCE_BASE)


def bf10_for_units(units: float) -> float:
    if not math.isfinite(units):
        raise DomainError(f"units must be finite, got {units!r}")
    return EVIDENCE_BASE ** units


def _logistic_third_derivative(x: float) -> float:
    s = 1.0 / (1.0 + math.exp(-x))
    return s * (1.0 - s) * (1.0 - 6.0 * s + 6.0 * s * s)


def logistic_boundary_check() -> float:
    """Return log(2+sqrt(3)) after verifying it zeroes the logistic third
    derivative to 1e-12."""
    x = LOG_EVIDENCE_BASE
    if abs(_logistic_third_derivative(x)) > 1e-12:
        raise AssertionError("third-derivative zero check failed")
    return x


_FAMILIES = ("normal-2-sided", "chi2", "nonparametric")


def p_for_units(family: str, units: float, d: int = 1) -> float:
    """P-value at which a family's factor reaches ``units`` units against the
    null.

    normal-2-sided and chi2 invert the closed forms by bracketed
    root-finding on z^2 and map through the chi-square survival function;
    nonparametric inverts the 10p rule.
    """
    if not 0.0 < units < math.inf:
        raise DomainError(f"units must be positive and finite, got {units!r}")
    log_bf10 = units * LOG_EVIDENCE_BASE
    if family == "normal-2-sided":
        d = 1
    elif family == "chi2":
        if not 1 <= d < math.inf:
            raise DomainError(f"chi2 family needs a finite dimension d >= 1, got {d!r}")
    elif family == "nonparametric":
        return 1.0 / (10.0 * math.exp(log_bf10))
    else:
        raise UnsupportedFamilyError(
            f"family must be one of {_FAMILIES}, got {family!r}")

    # log EBF10(z2) = (z2 - d)/2 - (d/2) log 2 is strictly increasing in z2
    def g(z2):
        return 0.5 * (z2 - d) - 0.5 * d * LOG2 - log_bf10

    hi = d + d * LOG2 + 2.0 * log_bf10 + 10.0
    z2 = brentq(g, 0.0, hi, xtol=1e-12, rtol=8.9e-16)
    return chi2_sf(z2, d)


def calibration_table(units=(1.0, 2.0, 3.0, 4.0)) -> list[dict]:
    """P-value calibration rows for the first few units of evidence."""
    rows = []
    for u in units:
        rows.append({
            "units": u,
            "ebf10": bf10_for_units(u),
            "p_normal_2_sided": p_for_units("normal-2-sided", u),
            "p_chi2_2df": p_for_units("chi2", u, d=2),
            "p_chi2_3df": p_for_units("chi2", u, d=3),
            "p_nonparametric": p_for_units("nonparametric", u),
        })
    return rows


def sellke_bound(p: float) -> float:
    """-e p log p, a lower bound on the factor in favour of the null,
    valid for p < 1/e."""
    if not 0.0 < p < math.exp(-1.0):
        raise DomainError("the -e p log p bound requires 0 < p < exp(-1)")
    return -math.e * p * math.log(p)


def held_ott_bound(p: float) -> float:
    """-e (1-p) log(1-p), the smaller lower bound from the Beta(1, beta)
    alternative family."""
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie in (0, 1)")
    return -math.e * (1.0 - p) * math.log1p(-p)


def brc(z: float) -> float:
    """Posterior-predictive reference criterion exp(-(z^2 + 1)/2)."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    return math.exp(-0.5 * (z * z + 1.0))


def unit_information_bf(z: float, n: int) -> float:
    """sqrt(n+1) exp(-z^2 n / (2(n+1))), the minimally-informative-prior
    factor in favour of the null at sample size n."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if not 1 <= n < math.inf:
        raise DomainError(f"sample size n must be finite and >= 1, got {n!r}")
    return math.sqrt(n + 1.0) * math.exp(-0.5 * z * z * n / (n + 1.0))


def calibration_curve(p_grid) -> list[dict]:
    """Comparison-curve data for the two-sided normal test.

    For each p: the normal-theory factor at the matching |z|, the
    nonparametric factor, the -e p log p bound, and the reference criterion,
    all reported as -log10 of the factor in favour of the null.
    """
    rows = []
    for p in np.atleast_1d(np.asarray(p_grid, dtype=float)):
        if not 0.0 < p < 1.0:
            raise DomainError("p grid must lie in (0, 1)")
        z = normal_quantile(1.0 - p / 2.0)
        ebf01_normal = math.exp(0.5 * LOG2 - 0.5 * (z * z - 1.0))
        ebf01_nonpar = math.exp(ebf_pvalue(float(p)).ebf01_log)
        row = {
            "p": float(p),
            "neg_log10_p": -math.log10(p),
            "neg_log10_ebf01_normal": -math.log10(ebf01_normal),
            "neg_log10_ebf01_nonparametric": -math.log10(ebf01_nonpar),
            "neg_log10_sellke_bound": (-math.log10(sellke_bound(float(p)))
                                       if p < math.exp(-1.0) else float("nan")),
            "neg_log10_brc": -math.log10(brc(z)),
        }
        rows.append(row)
    return rows
