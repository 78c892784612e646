"""Shared domain vocabulary for all test engines.

A hypothesis is a region of a scalar parameter domain.  Engines turn data
plus a region into a posterior marginal likelihood held in natural-log
scale, correct it for the overfitting bias of re-using the data as its own
prior, and pair two corrected marginals into an evidence report.

All four types are frozen.  The hot paths build one ``EvidenceReport`` per
test and read a region's endpoints once per marginal, so the report fills
its fields straight into the instance dict and a region keeps its
whole-line endpoints (``line_bounds``) after first use; neither changes
what ``==``, ``hash``, ``repr`` or pickling see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from ebfkit.exceptions import ContractError, DomainError

__all__ = [
    "EVIDENCE_BASE",
    "LOG_EVIDENCE_BASE",
    "BIAS_CACHE_SIZE",
    "HypothesisRegion",
    "LogMarginal",
    "BiasValue",
    "EvidenceReport",
    "make_report",
]

# One unit of evidence multiplies the odds by (sqrt(3)+1)/(sqrt(3)-1) = 2+sqrt(3),
# the point where the third derivative of the logistic curve vanishes.
EVIDENCE_BASE = 2.0 + math.sqrt(3.0)
LOG_EVIDENCE_BASE = math.log(EVIDENCE_BASE)

# Distinct arguments whose expected bias each engine keeps (an LRU bound).
BIAS_CACHE_SIZE = 256

_KINDS = ("point", "below", "above", "interval", "full")

# bounds()'s default domain; compared by identity, so an equal tuple passed
# explicitly takes the clipping path and gets the same endpoints
_WHOLE_LINE = (-math.inf, math.inf)


@dataclass(frozen=True)
class HypothesisRegion:
    """A subset of a scalar parameter domain.

    kind is one of:
      point     -- a single value {a}
      below     -- the half-line (-inf, a)
      above     -- the half-line (a, inf)
      interval  -- the bounded interval (a, b), a < b
      full      -- the whole parameter domain

    Engines clip regions to their natural domain (e.g. [0, 1] for a
    probability, (0, inf) for a scale parameter).
    """

    kind: str
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown region kind {self.kind!r}")
        if self.kind in ("point", "below", "above"):
            if self.a is None or not math.isfinite(self.a):
                raise DomainError(f"{self.kind} region needs one finite endpoint")
            if self.b is not None:
                raise DomainError(f"{self.kind} region takes a single endpoint")
        elif self.kind == "interval":
            if self.a is None or self.b is None or not (
                    math.isfinite(self.a) and math.isfinite(self.b)):
                raise DomainError("interval region needs two finite endpoints")
            if not self.a < self.b:
                raise DomainError("interval endpoints must be strictly ordered")
        elif self.a is not None or self.b is not None:
            raise DomainError("full region takes no endpoints")

    # ---- constructors -----------------------------------------------------
    @staticmethod
    def point(value: float) -> "HypothesisRegion":
        return HypothesisRegion("point", float(value))

    @staticmethod
    def below(bound: float) -> "HypothesisRegion":
        return HypothesisRegion("below", float(bound))

    @staticmethod
    def above(bound: float) -> "HypothesisRegion":
        return HypothesisRegion("above", float(bound))

    @staticmethod
    def interval(a: float, b: float) -> "HypothesisRegion":
        return HypothesisRegion("interval", float(a), float(b))

    @staticmethod
    def full() -> "HypothesisRegion":
        return HypothesisRegion("full")

    # ---- geometry ---------------------------------------------------------
    def bounds(self, domain=_WHOLE_LINE) -> tuple[float, float]:
        """Endpoints after clipping to the family's parameter domain."""
        if domain is _WHOLE_LINE:
            return self.line_bounds
        return self._clipped(domain)

    @cached_property
    def line_bounds(self) -> tuple[float, float]:
        """Endpoints on the whole real line, ``bounds()`` with the default
        domain; computed on first use and kept in the instance dict, which
        the field-wise ``==``, ``hash`` and ``repr`` never read."""
        return self._clipped(_WHOLE_LINE)

    def _clipped(self, domain) -> tuple[float, float]:
        lo, hi = domain
        if self.kind == "point":
            if not lo <= self.a <= hi:
                raise DomainError(f"point {self.a} outside parameter domain {domain}")
            return self.a, self.a
        if self.kind == "below":
            a, b = lo, self.a
        elif self.kind == "above":
            a, b = self.a, hi
        elif self.kind == "interval":
            a, b = self.a, self.b
        else:
            a, b = lo, hi
        a, b = max(a, lo), min(b, hi)
        if not a < b:
            raise DomainError(f"region {self} has empty intersection with {domain}")
        return a, b

    def is_point(self) -> bool:
        return self.kind == "point"

    def covers_domain(self, domain=_WHOLE_LINE) -> bool:
        if self.kind == "full":
            return True
        if self.kind in ("below", "above", "interval"):
            a, b = self.bounds(domain)
            return a <= domain[0] and b >= domain[1]
        return False

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.a is not None:
            d["a"] = self.a
        if self.b is not None:
            d["b"] = self.b
        return d

    @staticmethod
    def parse(text: str) -> "HypothesisRegion":
        """Parse the CLI syntax 'point:V', 'below:V', 'above:V',
        'interval:A,B', or 'full'."""
        text = text.strip()
        if text == "full":
            return HypothesisRegion.full()
        try:
            kind, _, rest = text.partition(":")
            if kind == "interval":
                a, b = (float(v) for v in rest.split(","))
                return HypothesisRegion.interval(a, b)
            if kind in ("point", "below", "above"):
                return HypothesisRegion(kind, float(rest))
        except (ValueError, DomainError) as exc:
            raise DomainError(f"cannot parse region {text!r}: {exc}") from exc
        raise DomainError(f"cannot parse region {text!r}")


@dataclass(frozen=True)
class BiasValue:
    """Expected overfitting bias of a log posterior marginal likelihood, in nats."""

    value: float
    provenance: str  # "closed-form" | "exact-sum" | "quadrature"
    achieved_error: float = 0.0

    def __post_init__(self):
        # plain floats whatever the route computed them with (numpy scalars too)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "achieved_error", float(self.achieved_error))
        if not math.isfinite(self.value):
            raise DomainError(f"expected bias must be finite, got {self.value!r}")
        if not 0.0 <= self.achieved_error < math.inf:
            raise DomainError("achieved error must be finite and nonnegative, "
                              f"got {self.achieved_error!r}")
        if self.value < -1e-12:
            raise DomainError("expected bias is nonnegative for these families")
        if self.provenance not in ("closed-form", "exact-sum", "quadrature"):
            raise DomainError(f"unknown bias provenance {self.provenance!r}")

    @staticmethod
    def closed_form(value: float) -> "BiasValue":
        return BiasValue(value, "closed-form")

    @staticmethod
    def zero() -> "BiasValue":
        return BiasValue(0.0, "closed-form")

    def scaled(self, factor: float) -> "BiasValue":
        return replace(self, value=self.value * factor,
                       achieved_error=self.achieved_error * factor)

    def to_dict(self) -> dict:
        return {"value": self.value, "provenance": self.provenance,
                "achieved_error": self.achieved_error}


@dataclass(frozen=True)
class LogMarginal:
    """A posterior marginal likelihood in natural-log scale.

    ``corrected`` records whether the overfitting bias has been removed;
    ``bias_applied`` is the amount removed (0 both for uncorrected values and
    for hypotheses that carry no bias, such as points).
    """

    log_value: float
    family: str
    bias_applied: float = 0.0
    corrected: bool = False

    def __post_init__(self):
        if not math.isfinite(self.log_value):
            raise DomainError("log marginal likelihood must be finite")
        if not 0.0 <= self.bias_applied < math.inf:
            raise DomainError("applied bias must be nonnegative and finite")

    def correct(self, bias: BiasValue) -> "LogMarginal":
        """Remove the expected bias: multiply the marginal by exp(-bias)."""
        if self.corrected:
            raise ContractError("marginal already bias-corrected")
        return LogMarginal(self.log_value - bias.value, self.family,
                           bias_applied=bias.value, corrected=True)


def _exp(log_value: float) -> float:
    """math.exp that saturates to inf instead of raising (it already
    underflows to 0.0), so every finite log factor has a linear value."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# BiasValue is frozen, so reports built without biases share one zero
_ZERO_BIAS = BiasValue.zero()


@dataclass(frozen=True, init=False)
class EvidenceReport:
    """Evidence about a pair of hypotheses on the Bayes-factor scale.

    ``ebf01_log`` is the finite log empirical Bayes factor in favour of the
    first hypothesis; positive ``units_of_evidence`` favours the second one.

    Batches build one report per test, so ``__init__`` writes the fields
    into the instance dict instead of the frozen dataclass's six
    ``object.__setattr__`` calls; the fields, ``==``, ``hash``, ``repr``,
    ``dataclasses.replace``, pickling and the error on assignment are the
    dataclass's own.
    """

    ebf01_log: float
    family: str
    h0: HypothesisRegion | None = None
    h1: HypothesisRegion | None = None
    bias_h0: BiasValue = _ZERO_BIAS
    bias_h1: BiasValue = _ZERO_BIAS

    def __init__(self, ebf01_log: float, family: str,
                 h0: HypothesisRegion | None = None,
                 h1: HypothesisRegion | None = None,
                 bias_h0: BiasValue = _ZERO_BIAS,
                 bias_h1: BiasValue = _ZERO_BIAS):
        if not -math.inf < ebf01_log < math.inf:
            raise DomainError(f"log factor must be finite, got {ebf01_log!r}")
        d = self.__dict__
        d["ebf01_log"] = ebf01_log
        d["family"] = family
        d["h0"] = h0
        d["h1"] = h1
        d["bias_h0"] = bias_h0
        d["bias_h1"] = bias_h1

    @property
    def ebf01(self) -> float:
        return _exp(self.ebf01_log)

    @property
    def ebf10(self) -> float:
        return _exp(-self.ebf01_log)

    @property
    def ebf10_log(self) -> float:
        return -self.ebf01_log

    @property
    def log10_ebf10(self) -> float:
        return -self.ebf01_log / math.log(10.0)

    @property
    def units_of_evidence(self) -> float:
        return -self.ebf01_log / LOG_EVIDENCE_BASE

    def swapped(self) -> "EvidenceReport":
        """The same evidence with the hypotheses exchanged."""
        return EvidenceReport(-self.ebf01_log, self.family, self.h1, self.h0,
                              self.bias_h1, self.bias_h0)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "ebf01_log": self.ebf01_log,
            "ebf01": self.ebf01,
            "ebf10": self.ebf10,
            "log10_ebf10": self.log10_ebf10,
            "units_of_evidence": self.units_of_evidence,
            "h0": self.h0.to_dict() if self.h0 else None,
            "h1": self.h1.to_dict() if self.h1 else None,
            "bias_h0": self.bias_h0.to_dict(),
            "bias_h1": self.bias_h1.to_dict(),
        }


def make_report(log_m0: LogMarginal, log_m1: LogMarginal,
                h0: HypothesisRegion | None = None,
                h1: HypothesisRegion | None = None,
                bias_h0: BiasValue | None = None,
                bias_h1: BiasValue | None = None) -> EvidenceReport:
    """Evidence ratio of two bias-corrected marginal likelihoods."""
    if not (log_m0.corrected and log_m1.corrected):
        raise ContractError(
            "make_report requires bias-corrected marginals on both sides")
    if log_m0.family != log_m1.family:
        raise ContractError(
            f"marginals come from different families: "
            f"{log_m0.family!r} vs {log_m1.family!r}")
    return EvidenceReport(
        ebf01_log=log_m0.log_value - log_m1.log_value,
        family=log_m0.family,
        h0=h0, h1=h1,
        bias_h0=bias_h0 or BiasValue.closed_form(log_m0.bias_applied),
        bias_h1=bias_h1 or BiasValue.closed_form(log_m1.bias_applied),
    )
