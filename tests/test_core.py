"""Regions, marginals, bias values, and evidence reports."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from ebfkit.core import (
    EVIDENCE_BASE,
    BiasValue,
    EvidenceReport,
    HypothesisRegion,
    LogMarginal,
    make_report,
)
from ebfkit.exceptions import ContractError, DomainError


class TestHypothesisRegion:
    def test_constructors_and_bounds(self):
        assert HypothesisRegion.point(2.0).bounds() == (2.0, 2.0)
        assert HypothesisRegion.below(3.0).bounds() == (-math.inf, 3.0)
        assert HypothesisRegion.above(3.0).bounds() == (3.0, math.inf)
        assert HypothesisRegion.interval(-1.0, 1.0).bounds() == (-1.0, 1.0)
        assert HypothesisRegion.full().bounds() == (-math.inf, math.inf)

    def test_clipping_to_family_domain(self):
        unit = (0.0, 1.0)
        assert HypothesisRegion.below(0.5).bounds(unit) == (0.0, 0.5)
        assert HypothesisRegion.full().bounds(unit) == unit
        assert HypothesisRegion.below(0.5).covers_domain(unit) is False
        assert HypothesisRegion.below(1.0).covers_domain(unit) is True
        assert HypothesisRegion.interval(-2.0, 2.0).covers_domain(unit) is True

    def test_empty_after_clip_rejected(self):
        with pytest.raises(DomainError):
            HypothesisRegion.interval(2.0, 3.0).bounds((0.0, 1.0))
        with pytest.raises(DomainError):
            HypothesisRegion.point(1.5).bounds((0.0, 1.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            HypothesisRegion.interval(1.0, 1.0)
        with pytest.raises(DomainError):
            HypothesisRegion.interval(2.0, 1.0)
        with pytest.raises(DomainError):
            HypothesisRegion.point(math.inf)
        with pytest.raises(DomainError):
            HypothesisRegion("banana", 0.0)

    def test_parse_round_trip(self):
        for text, expect in [
            ("point:0.5", HypothesisRegion.point(0.5)),
            ("below:30", HypothesisRegion.below(30.0)),
            ("above:-2", HypothesisRegion.above(-2.0)),
            ("interval:0.2,0.8", HypothesisRegion.interval(0.2, 0.8)),
            ("full", HypothesisRegion.full()),
        ]:
            assert HypothesisRegion.parse(text) == expect

    def test_parse_rejects_garbage(self):
        for text in ("", "circle:1", "interval:3", "point:abc"):
            with pytest.raises(DomainError):
                HypothesisRegion.parse(text)


class TestBiasValue:
    def test_nonnegative(self):
        with pytest.raises(DomainError):
            BiasValue(-0.1, "closed-form")

    def test_scaled(self):
        half = BiasValue(0.5, "closed-form").scaled(0.5)
        assert half.value == 0.25

    def test_unknown_provenance(self):
        with pytest.raises(DomainError):
            BiasValue(0.1, "guesswork")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_value(self, value):
        with pytest.raises(DomainError, match="^expected bias must be finite"):
            BiasValue(value, "exact-sum")

    @pytest.mark.parametrize("err", [math.nan, math.inf, -1e-9])
    def test_rejects_bad_achieved_error(self, err):
        with pytest.raises(DomainError, match="^achieved error must be finite"):
            BiasValue(0.1, "quadrature", achieved_error=err)

    def test_numpy_scalars_become_floats(self):
        """Every route's value and error are plain floats, so ``to_dict``
        carries no numpy scalars."""
        b = BiasValue(np.float64(0.1), "exact-sum", achieved_error=np.float64(1e-7))
        assert type(b.value) is float and type(b.achieved_error) is float
        assert (b.value, b.achieved_error) == (0.1, 1e-7)
        assert all(type(v) is not np.float64 for v in b.to_dict().values())


class TestLogMarginal:
    def test_correct_applies_bias(self):
        m = LogMarginal(-1.0, "normal").correct(BiasValue(0.5, "closed-form"))
        assert m.log_value == -1.5
        assert m.corrected and m.bias_applied == 0.5

    def test_double_correction_rejected(self):
        m = LogMarginal(-1.0, "normal").correct(BiasValue.zero())
        with pytest.raises(ContractError):
            m.correct(BiasValue.zero())

    def test_requires_finite(self):
        with pytest.raises(DomainError):
            LogMarginal(math.inf, "normal")


def _corrected(value, family="normal"):
    return LogMarginal(value, family).correct(BiasValue.zero())


class TestMakeReport:
    def test_equal_marginals(self):
        r = make_report(_corrected(-2.0), _corrected(-2.0))
        assert r.ebf01 == pytest.approx(1.0)
        assert r.units_of_evidence == pytest.approx(0.0)

    def test_one_unit_against_the_alternative(self):
        """A marginal ratio of 3.73 in the null's favour is -1 unit (units
        are positive towards the alternative)."""
        r = make_report(_corrected(math.log(3.73)), _corrected(0.0))
        assert r.units_of_evidence == pytest.approx(-1.0, abs=1e-3)
        exact = make_report(_corrected(math.log(EVIDENCE_BASE)), _corrected(0.0))
        assert exact.units_of_evidence == pytest.approx(-1.0, abs=1e-14)

    def test_two_units_towards_the_alternative(self):
        r = make_report(_corrected(-math.log(13.9)), _corrected(0.0))
        assert r.units_of_evidence == pytest.approx(2.0, abs=2e-3)

    def test_rejects_uncorrected(self):
        with pytest.raises(ContractError):
            make_report(LogMarginal(-1.0, "normal"), _corrected(0.0))
        with pytest.raises(ContractError):
            make_report(_corrected(0.0), LogMarginal(-1.0, "normal"))

    def test_rejects_family_mix(self):
        with pytest.raises(ContractError):
            make_report(_corrected(0.0, "normal"), _corrected(0.0, "t"))


class TestEvidenceReport:
    def test_log_scale_consistency(self):
        """ebf01 * ebf10 = 1 holds exactly in log scale, and the linear
        views reproduce the log difference."""
        rng = np.random.default_rng(7)
        for diff in rng.uniform(-700, 700, size=50):
            r = EvidenceReport(diff, "normal")
            assert r.ebf10_log == -r.ebf01_log
            if abs(diff) < 500:
                assert math.log(r.ebf01) == pytest.approx(diff, abs=1e-10)

    def test_swap_antisymmetry(self):
        r = EvidenceReport(0.37, "normal", HypothesisRegion.point(0.0),
                           HypothesisRegion.full())
        s = r.swapped()
        assert s.ebf01_log == -r.ebf01_log
        assert s.units_of_evidence == -r.units_of_evidence
        assert s.h0 == r.h1 and s.h1 == r.h0

    def test_serialization_field_names(self):
        r = EvidenceReport(0.1, "normal", HypothesisRegion.point(0.0),
                           HypothesisRegion.full())
        d = r.to_dict()
        assert set(d) == {"family", "ebf01_log", "ebf01", "ebf10", "log10_ebf10",
                          "units_of_evidence", "h0", "h1", "bias_h0", "bias_h1"}
        assert d["h0"] == {"kind": "point", "a": 0.0}
        assert d["bias_h0"] == {"value": 0.0, "provenance": "closed-form",
                                "achieved_error": 0.0}

    @pytest.mark.parametrize("log_value", [709.79, 799.15, 1e5])
    def test_linear_fields_saturate_past_the_float_range(self, log_value):
        """Past exp's range the larger linear field reads inf and the smaller
        one exp's own (subnormal or 0.0) value, while the log fields stay
        exact, so serialising the report cannot fail."""
        for r, big, small in ((EvidenceReport(log_value, "normal"), "ebf01", "ebf10"),
                              (EvidenceReport(-log_value, "normal"), "ebf10", "ebf01")):
            d = r.to_dict()
            assert d[big] == math.inf and d[small] == math.exp(-log_value)
            assert d["ebf01_log"] == r.ebf01_log
            assert d["log10_ebf10"] == -r.ebf01_log / math.log(10.0)

    def test_units_formula(self):
        r = EvidenceReport(-1.5, "normal")
        assert r.units_of_evidence == pytest.approx(1.5 / math.log(2 + math.sqrt(3)))


_REPORT_FIELDS = ("ebf01_log", "family", "h0", "h1", "bias_h0", "bias_h1")


def _field_tuple(report):
    return tuple(getattr(report, name) for name in _REPORT_FIELDS)


def _sample_reports():
    p, f = HypothesisRegion.point(0.0), HypothesisRegion.full()
    half = BiasValue.closed_form(0.25)
    return [EvidenceReport(0.5, "normal"),
            EvidenceReport(0.5, "normal", p, f),
            EvidenceReport(0.5, "normal", p, f, BiasValue.zero(), BiasValue.zero()),
            EvidenceReport(0.5, "normal", p, f, BiasValue.zero(), BiasValue.closed_form(0.5)),
            EvidenceReport(-0.5, "normal", p, f),
            EvidenceReport(0.5, "t", p, f),
            EvidenceReport(0.5, "normal", f, p),
            EvidenceReport(0.5, "normal", p, f, half),
            EvidenceReport(0.5, "normal", p, f, bias_h1=half)]


class TestEvidenceReportSemantics:
    """The report keeps the frozen dataclass's behaviour: its fields, their
    order, ==, hash, repr, replace, pickling and immutability."""

    def test_fields_in_order(self):
        assert tuple(f.name for f in dataclasses.fields(EvidenceReport)) == _REPORT_FIELDS

    def test_default_biases(self):
        r = EvidenceReport(0.5, "normal")
        assert r.h0 is None and r.h1 is None
        assert r.bias_h0 == BiasValue.zero() and r.bias_h1 == BiasValue.zero()

    def test_keyword_and_positional_construction_agree(self):
        p, f = HypothesisRegion.point(0.0), HypothesisRegion.full()
        b0, b1 = BiasValue.zero(), BiasValue.closed_form(0.5)
        positional = EvidenceReport(0.5, "normal", p, f, b0, b1)
        keyword = EvidenceReport(bias_h1=b1, bias_h0=b0, h1=f, h0=p,
                                 family="normal", ebf01_log=0.5)
        assert positional == keyword
        assert _field_tuple(positional) == (0.5, "normal", p, f, b0, b1)
        with pytest.raises(TypeError):
            EvidenceReport(0.5)
        with pytest.raises(TypeError):
            EvidenceReport(0.5, "normal", colour="red")

    def test_eq_and_hash_are_field_wise(self):
        reports = _sample_reports()
        for r in reports:
            assert hash(r) == hash(_field_tuple(r))
            for other in reports:
                assert (r == other) == (_field_tuple(r) == _field_tuple(other))
        assert reports[1] == reports[2]
        assert reports[0] != _field_tuple(reports[0])

    def test_repr(self):
        for r in _sample_reports():
            body = ", ".join(f"{name}={getattr(r, name)!r}" for name in _REPORT_FIELDS)
            assert repr(r) == f"EvidenceReport({body})"

    def test_frozen(self):
        r = EvidenceReport(0.5, "normal")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.ebf01_log = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.colour = "red"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.family
        assert r.ebf01_log == 0.5

    def test_replace(self):
        r = _sample_reports()[3]
        assert dataclasses.replace(r) == r
        s = dataclasses.replace(r, ebf01_log=-2.0, h1=None)
        assert _field_tuple(s) == (-2.0,) + _field_tuple(r)[1:3] + (None,) + _field_tuple(r)[4:]

    def test_pickle_round_trip(self):
        for r in _sample_reports():
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is EvidenceReport
            assert back == r and hash(back) == hash(r) and repr(back) == repr(r)
            with pytest.raises(dataclasses.FrozenInstanceError):
                back.family = "t"


class TestRegionLineBounds:
    """Whole-line endpoints are kept on the region after first use; nothing
    that compares, hashes, prints or pickles a region sees them."""

    regions = [HypothesisRegion.point(0.5), HypothesisRegion.below(0.5),
               HypothesisRegion.above(-1.0), HypothesisRegion.interval(-0.5, 0.5),
               HypothesisRegion.full()]

    def test_line_bounds_are_the_default_bounds(self):
        for r in self.regions:
            # an equal tuple is not the default object, so it takes the clipping path
            assert r.line_bounds == r.bounds((-math.inf, math.inf))
            assert r.bounds() is r.line_bounds

    def test_eq_hash_repr_unaffected(self):
        for r in self.regions:
            fresh = HypothesisRegion(r.kind, r.a, r.b)
            before = (hash(r), repr(r))
            r.bounds()
            assert r == fresh and (hash(r), repr(r)) == before == (hash(fresh), repr(fresh))
            assert repr(r) == f"HypothesisRegion(kind={r.kind!r}, a={r.a!r}, b={r.b!r})"

    def test_pickle_round_trip(self):
        for r in self.regions:
            for touched in (False, True):
                region = HypothesisRegion(r.kind, r.a, r.b)
                if touched:
                    region.bounds()
                back = pickle.loads(pickle.dumps(region))
                assert back == region and hash(back) == hash(region)
                assert repr(back) == repr(region)
                assert back.bounds() == region.bounds()

    def test_replace_recomputes(self):
        r = HypothesisRegion.below(0.5)
        r.bounds()
        assert dataclasses.replace(r, a=2.0).bounds() == (-math.inf, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.line_bounds = (0.0, 1.0)

    def test_other_domains_still_clip(self):
        unit = (0.0, 1.0)
        for r in self.regions:
            r.bounds()
        point, below, above, interval, full = self.regions
        assert point.bounds(unit) == (0.5, 0.5)
        assert below.bounds(unit) == (0.0, 0.5)
        assert above.bounds(unit) == (0.0, 1.0)
        assert interval.bounds(unit) == (0.0, 0.5)
        assert full.bounds(unit) == unit
        assert full.bounds((0.0, math.inf)) == (0.0, math.inf)
        with pytest.raises(DomainError):
            HypothesisRegion.point(1.5).bounds(unit)
        with pytest.raises(DomainError):
            HypothesisRegion.interval(2.0, 3.0).bounds(unit)
        assert below.covers_domain() is False and full.covers_domain() is True
