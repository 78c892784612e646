"""Evidence units, calibration tables, and comparator bounds."""

import math

import numpy as np
import pytest

from ebfkit.calibration import (
    EvidenceUnits,
    _logistic_third_derivative,
    bf10_for_units,
    brc,
    calibration_curve,
    calibration_table,
    held_ott_bound,
    logistic_boundary_check,
    p_for_units,
    sellke_bound,
    unit_information_bf,
    units_of_evidence,
)
from ebfkit.core import EVIDENCE_BASE
from ebfkit.exceptions import DomainError, UnsupportedFamilyError

# frozen calibration targets: units -> (normal, chi2 2df, chi2 3df, nonparametric)
CALIBRATION_TARGETS = {
    1.0: (0.038, 0.049, 0.052, 0.027),
    2.0: (0.008, 0.013, 0.016, 0.007),
    3.0: (0.002, 0.004, 0.005, 0.002),
    4.0: (0.0005, 0.001, 0.001, 0.0005),
}


class TestUnits:
    def test_base_is_exact_expression(self):
        assert EVIDENCE_BASE == pytest.approx(2 + math.sqrt(3), rel=1e-16)
        assert EVIDENCE_BASE == pytest.approx(
            (math.sqrt(3) + 1) / (math.sqrt(3) - 1), rel=1e-14)
        assert round(EVIDENCE_BASE, 2) == 3.73

    def test_examples(self):
        assert units_of_evidence(3.73).units == pytest.approx(1.0, abs=6e-4)
        assert units_of_evidence(194.0).units == pytest.approx(4.0, abs=2e-4)
        assert units_of_evidence(1.0).units == 0.0

    def test_round_trip(self):
        for u in np.linspace(-10, 10, 41):
            assert units_of_evidence(EVIDENCE_BASE ** u).units == pytest.approx(
                u, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            units_of_evidence(0.0)

    def test_dataclass_carries_base(self):
        assert EvidenceUnits(1.0).base == EVIDENCE_BASE


class TestLogisticBoundary:
    def test_third_derivative_vanishes_at_boundary(self):
        x = logistic_boundary_check()
        assert x == pytest.approx(math.log(2 + math.sqrt(3)), rel=1e-15)
        assert abs(_logistic_third_derivative(x)) <= 1e-12
        assert abs(_logistic_third_derivative(-x)) <= 1e-12

    def test_nonzero_away_from_boundary(self):
        assert abs(_logistic_third_derivative(0.0)) > 0.05

    def test_even_symmetry(self):
        for x in (0.3, 1.0, 2.7):
            assert _logistic_third_derivative(-x) == pytest.approx(
                _logistic_third_derivative(x), rel=1e-12)


class TestPForUnits:
    def test_calibration_targets(self):
        for units, (p_norm, p_chi2_2, p_chi2_3, p_nonpar) in CALIBRATION_TARGETS.items():
            assert p_for_units("normal-2-sided", units) == pytest.approx(
                p_norm, abs=1e-3)
            assert p_for_units("chi2", units, d=2) == pytest.approx(
                p_chi2_2, abs=1e-3)
            assert p_for_units("chi2", units, d=3) == pytest.approx(
                p_chi2_3, abs=1e-3)
            assert p_for_units("nonparametric", units) == pytest.approx(
                p_nonpar, abs=1e-3)

    def test_nonparametric_closed_form(self):
        assert p_for_units("nonparametric", 2.0) == pytest.approx(0.0072, abs=5e-5)

    def test_inversion_consistency(self):
        """The returned P-value maps back to the requested factor."""
        from ebfkit.normal_ebf import ebf_two_sided
        from ebfkit.numerics import normal_quantile
        for u in (0.5, 1.0, 2.5):
            p = p_for_units("normal-2-sided", u)
            z = normal_quantile(1 - p / 2)
            assert ebf_two_sided(z).ebf10 == pytest.approx(
                EVIDENCE_BASE ** u, rel=1e-9)

    def test_chi2_inversion_consistency(self):
        """The chi2 P-value maps back through scipy's inverse survival
        function to a z^2 whose factor is the requested one."""
        from scipy.stats import chi2
        from ebfkit.normal_ebf import ebf_chi_squared
        for d in (1, 2, 3, 10, 100):
            for u in (1e-6, 0.5, 2.0, 10.0):
                z2 = chi2.isf(p_for_units("chi2", u, d=d), d)
                assert ebf_chi_squared(z2, d).ebf10_log == pytest.approx(
                    u * math.log(EVIDENCE_BASE), rel=1e-9, abs=1e-9)

    def test_rejects_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            p_for_units("wilcoxon", 1.0)
        with pytest.raises(DomainError):
            p_for_units("chi2", -1.0)

    def test_table_rows(self):
        rows = calibration_table()
        assert [r["units"] for r in rows] == [1.0, 2.0, 3.0, 4.0]
        assert rows[1]["ebf10"] == pytest.approx(13.93, abs=0.005)
        assert rows[3]["ebf10"] == pytest.approx(194.0, abs=0.01)


class TestBounds:
    def test_sellke_anchor(self):
        assert sellke_bound(0.05) == pytest.approx(1 / 2.45, abs=2e-3)

    def test_held_ott_anchor(self):
        assert held_ott_bound(0.05) == pytest.approx(1 / 7.55, abs=2e-4)

    def test_brc_at_zero(self):
        assert brc(0.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_ordering(self):
        """held-ott <= sellke <= 1 wherever the sellke bound exists."""
        for p in np.geomspace(1e-6, math.exp(-1) - 1e-9, 60):
            assert held_ott_bound(p) <= sellke_bound(p) <= 1.0 + 1e-12

    def test_sellke_domain(self):
        with pytest.raises(DomainError):
            sellke_bound(0.5)

    def test_unit_information(self):
        assert unit_information_bf(0.0, 99) == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(DomainError):
            unit_information_bf(1.0, 0)


class TestCurve:
    def test_row_at_005(self):
        rows = calibration_curve([0.05])
        assert len(rows) == 1
        row = rows[0]
        # two-sided z at p = 0.05 is 1.96; the factor is sqrt(2)exp(-1.4207)
        assert row["neg_log10_ebf01_normal"] == pytest.approx(
            -math.log10(0.341513), abs=1e-4)
        assert row["neg_log10_ebf01_nonparametric"] == pytest.approx(
            -math.log10(1 / 2.0545), abs=1e-3)
        assert row["neg_log10_sellke_bound"] == pytest.approx(
            -math.log10(1 / 2.4557), abs=1e-3)
        assert row["neg_log10_p"] == pytest.approx(-math.log10(0.05), rel=1e-12)

    def test_monotone_in_p(self):
        """Every curve's -log10 value grows as p falls."""
        grid = np.geomspace(1e-6, 0.3, 40)
        rows = calibration_curve(grid)
        for key in ("neg_log10_ebf01_normal", "neg_log10_ebf01_nonparametric",
                    "neg_log10_sellke_bound", "neg_log10_brc"):
            vals = np.array([r[key] for r in rows])
            assert np.all(np.diff(vals) < 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            calibration_curve([0.0])


class TestRejectsBadInput:
    """NaN, inf and out-of-domain input raise a DomainError naming it."""

    @pytest.mark.parametrize("bf10", [math.nan, math.inf, 0.0, -1.0])
    def test_units_of_evidence(self, bf10):
        with pytest.raises(DomainError, match="^Bayes factor bf10 must be"):
            units_of_evidence(bf10)

    @pytest.mark.parametrize("units", [math.nan, math.inf, -math.inf])
    def test_bf10_for_units(self, units):
        with pytest.raises(DomainError, match="^units must be"):
            bf10_for_units(units)

    @pytest.mark.parametrize("family, units, d, match", [
        ("normal-2-sided", math.nan, 1, "^units must be"),
        ("normal-2-sided", math.inf, 1, "^units must be"),
        ("nonparametric", 0.0, 1, "^units must be"),
        ("chi2", 1.0, math.nan, "dimension d"),
        ("chi2", 1.0, math.inf, "dimension d"),
        ("normal-2-sided", 1.0, math.nan, "has no dimension"),
        ("normal-2-sided", 1.0, 2, "has no dimension"),
        ("nonparametric", 1.0, math.inf, "has no dimension"),
    ])
    def test_p_for_units(self, family, units, d, match):
        with pytest.raises(DomainError, match=match):
            p_for_units(family, units, d)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_brc(self, z):
        with pytest.raises(DomainError, match="^z must be"):
            brc(z)

    @pytest.mark.parametrize("z, n, name", [
        (math.nan, 10, "z"), (math.inf, 10, "z"),
        (1.0, math.nan, "sample size n"), (1.0, math.inf, "sample size n"),
    ])
    def test_unit_information_bf(self, z, n, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            unit_information_bf(z, n)
