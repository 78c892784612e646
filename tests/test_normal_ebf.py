"""Normal-theory factors: closed forms, their quadrature oracles, and the
behaviour under a true point null."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from ebfkit.core import HypothesisRegion, make_report
from ebfkit.exceptions import DegenerateRegionError, DomainError, NonConvergedError
from ebfkit.normal_ebf import (
    _log_mass,
    bias_normal,
    deviance_criterion,
    ebf_chi_squared,
    ebf_directional,
    ebf_interval,
    ebf_one_sided,
    ebf_two_sided,
    normal_posterior_marginal,
    region_bias,
)
from ebfkit.numerics import RngStream, chi2_cdf, chi2_sf

LOG2 = math.log(2.0)


class TestBiasNormal:
    def test_two_sided_component(self):
        assert bias_normal(0, 1).value == 0.5

    def test_one_sided_component(self):
        assert bias_normal(1, 0).value == 0.25

    def test_mixed(self):
        assert bias_normal(2, 3).value == 2.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            bias_normal(0, 0)

    def test_region_rules(self):
        assert region_bias(HypothesisRegion.full()).value == 0.5
        assert region_bias(HypothesisRegion.above(1.0)).value == 0.25
        assert region_bias(HypothesisRegion.interval(0, 1)).value == 0.0
        assert region_bias(HypothesisRegion.point(0.0)).value == 0.0


class TestTwoSided:
    def test_stent_z(self):
        assert ebf_two_sided(1.281).ebf01 == pytest.approx(1.03, abs=0.005)

    def test_crossing_point(self):
        """The factor is exactly 1 at z^2 = 1 + log 2."""
        z = math.sqrt(1 + LOG2)
        assert ebf_two_sided(z).ebf01_log == pytest.approx(0.0, abs=1e-14)

    def test_at_zero(self):
        """sqrt(2 e) is the ceiling on evidence for the null."""
        assert ebf_two_sided(0.0).ebf01 == pytest.approx(math.sqrt(2 * math.e), rel=1e-14)

    def test_strictly_decreasing_in_magnitude(self):
        zs = np.linspace(0, 6, 200)
        vals = [ebf_two_sided(z).ebf01_log for z in zs]
        assert np.all(np.diff(vals) < 0)
        assert ebf_two_sided(-2.0).ebf01 == ebf_two_sided(2.0).ebf01


class TestOneSided:
    def test_discovery_threshold(self):
        """Five-sigma one-sided evidence is about 1.48e5 for the signal."""
        assert ebf_one_sided(5.0).ebf10 == pytest.approx(1.48e5, rel=0.005)

    def test_at_zero_negative_possible(self):
        assert ebf_one_sided(0.0).ebf01 == pytest.approx(
            math.sqrt(2.0) * math.exp(0.25), rel=1e-14)

    def test_at_zero_negative_impossible(self):
        assert ebf_one_sided(0.0, negative_possible=False).ebf01 == pytest.approx(
            math.sqrt(2.0 * math.e), rel=1e-14)


class TestDirectional:
    def test_symmetry_point(self):
        assert ebf_directional(0.0).ebf01 == pytest.approx(1.0, rel=1e-14)

    def test_antisymmetry(self):
        """EBF(z) * EBF(-z) = 1 for every z."""
        for z in np.linspace(-20, 20, 41):
            total = ebf_directional(z).ebf01_log + ebf_directional(-z).ebf01_log
            assert total == pytest.approx(0.0, abs=1e-10)

    def test_monotone_decreasing(self):
        zs = np.linspace(-4, 4, 81)
        vals = [ebf_directional(z).ebf01_log for z in zs]
        assert np.all(np.diff(vals) < 0)

    def test_stent_recast(self):
        """Threshold-shifted reading of the stent interval comparison."""
        z = (30.0 - 16.6) / 12.96
        assert ebf_directional(-z).ebf01 == pytest.approx(2.29, abs=0.005)

    def test_stable_far_beyond_eight(self):
        report = ebf_directional(40.0)
        assert math.isfinite(report.ebf01_log)
        assert report.ebf01_log < -700  # overwhelming evidence, finite log


class TestInterval:
    def test_identical_regions(self):
        r = ebf_interval(0.3, 1.0, HypothesisRegion.above(0.0), HypothesisRegion.above(0.0))
        assert r.ebf01 == pytest.approx(1.0, rel=1e-14)

    def test_stent_half_lines(self):
        r = ebf_interval(16.6, 12.96, HypothesisRegion.below(30.0),
                         HypothesisRegion.above(30.0))
        assert r.ebf01 == pytest.approx(2.29, abs=0.005)

    def test_reduces_to_two_sided(self):
        for z in (0.0, 0.7, -2.2, 4.0):
            a = ebf_interval(z, 1.0, HypothesisRegion.point(0.0), HypothesisRegion.full())
            b = ebf_two_sided(z)
            assert a.ebf01_log == pytest.approx(b.ebf01_log, abs=1e-12)

    def test_scale_invariance(self):
        """Only x/sigma matters when regions scale with sigma."""
        a = ebf_interval(1.0, 1.0, HypothesisRegion.point(0.0), HypothesisRegion.full())
        b = ebf_interval(5.0, 5.0, HypothesisRegion.point(0.0), HypothesisRegion.full())
        assert a.ebf01_log == pytest.approx(b.ebf01_log, abs=1e-12)

    def test_far_region_stays_finite_in_log_scale(self):
        r = ebf_interval(0.0, 1.0, HypothesisRegion.above(60.0), HypothesisRegion.full())
        assert math.isfinite(r.ebf01_log) and r.ebf01_log < -600

    def test_degenerate_region(self):
        with pytest.raises(DegenerateRegionError):
            ebf_interval(0.0, 1.0, HypothesisRegion.above(1e200), HypothesisRegion.full())

    @pytest.mark.parametrize("x, sigma, name", [
        (math.nan, 1.0, "x"), (math.inf, 1.0, "x"), (-math.inf, 1.0, "x"),
        (1.0, math.inf, "sigma"), (1.0, math.nan, "sigma"), (1.0, 0.0, "sigma"),
    ])
    def test_rejects_nonfinite(self, x, sigma, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            ebf_interval(x, sigma, HypothesisRegion.below(0.0), HypothesisRegion.above(0.0))


def _composed(x, sigma, h0, h1):
    """ebf_interval spelled out as the public marginals and make_report."""
    b0, b1 = region_bias(h0), region_bias(h1)
    return make_report(normal_posterior_marginal(x, sigma, h0).correct(b0),
                       normal_posterior_marginal(x, sigma, h1).correct(b1),
                       h0, h1, b0, b1)


def _outcome(fn, *args):
    try:
        return fn(*args).to_dict()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


_KIND_REGIONS = {
    "point": st.builds(HypothesisRegion.point, st.floats(-3.0, 3.0)),
    "below": st.builds(HypothesisRegion.below, st.floats(-3.0, 3.0)),
    "above": st.builds(HypothesisRegion.above, st.floats(-3.0, 3.0)),
    "interval": st.builds(lambda a, w: HypothesisRegion.interval(a, a + w),
                          st.floats(-3.0, 3.0), st.floats(0.01, 4.0)),
    "full": st.just(HypothesisRegion.full()),
}


class TestHalfLineMass:
    """A half-line's log mass is one log CDF at its standardized bound;
    scipy's log_ndtr is the independent reference, from deep in the lower
    tail (where the engine switches to its asymptotic series) to z = 8."""

    zs = np.concatenate([np.linspace(-300.0, 8.0, 3081), np.linspace(-38.0, -36.0, 201)])

    @pytest.mark.parametrize("sd", [1.3, 1.3 / math.sqrt(2.0)], ids=["sigma", "sigma/sqrt2"])
    @pytest.mark.parametrize("kind", ["below", "above"])
    def test_matches_scipy_log_ndtr(self, kind, sd):
        bound = 0.7
        region = HypothesisRegion(kind, bound)
        for z in self.zs.tolist():
            if kind == "below":
                mu = bound - z * sd
                z_std = (bound - mu) / sd
            else:
                mu = bound + z * sd
                z_std = (mu - bound) / sd
            want = float(scipy.special.log_ndtr(z_std))
            assert _log_mass(region, mu, sd) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_underflow_still_raises(self):
        with pytest.raises(DegenerateRegionError):
            _log_mass(HypothesisRegion.above(0.0), -1e200, 1e-200)
        with pytest.raises(DegenerateRegionError):
            _log_mass(HypothesisRegion.below(0.0), 1e200, 1e-200)


class TestIntervalMatchesComposition:
    """ebf_interval builds its report directly; it must equal, bit for bit
    and error for error, the corrected public marginals paired by
    make_report."""

    @pytest.mark.parametrize("k1", list(_KIND_REGIONS))
    @pytest.mark.parametrize("k0", list(_KIND_REGIONS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), z=st.floats(-30.0, 30.0), sigma=st.floats(0.01, 100.0))
    def test_same_report(self, k0, k1, data, z, sigma):
        h0, h1 = data.draw(_KIND_REGIONS[k0]), data.draw(_KIND_REGIONS[k1])
        x = z * sigma
        # to_dict holds ebf01_log, so equal dicts mean a bit-identical factor
        assert _outcome(ebf_interval, x, sigma, h0, h1) == _outcome(_composed, x, sigma,
                                                                   h0, h1)

    @pytest.mark.parametrize("x, sigma, h0, h1", [
        (math.nan, 1.0, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (math.inf, 1.0, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (-math.inf, 1.0, HypothesisRegion.below(0.0), HypothesisRegion.above(0.0)),
        (1.0, 0.0, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (1.0, math.nan, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (1.0, math.inf, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (math.nan, math.nan, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (0.0, 1.0, HypothesisRegion.point(0.0), HypothesisRegion.above(45.0)),
        (0.0, 1.0, HypothesisRegion.interval(40.0, 41.0), HypothesisRegion.full()),
        (0.0, 1.0, HypothesisRegion.above(1e200), HypothesisRegion.full()),
        (0.0, 1.0, HypothesisRegion.full(), HypothesisRegion.above(1e200)),
        (1e200, 1.0, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (0.0, 1.0, HypothesisRegion.point(1e200), HypothesisRegion.above(1e200)),
        (0.0, 1.0, HypothesisRegion.full(), HypothesisRegion.point(1e200)),
        (1.0, 1e200, HypothesisRegion.point(0.0), HypothesisRegion.full()),
        (1.0, 1e-200, HypothesisRegion.point(0.0), HypothesisRegion.full()),
    ], ids=["nan-x", "inf-x", "-inf-x", "zero-sigma", "nan-sigma", "inf-sigma",
            "nan-both", "far-half-line", "far-interval", "degenerate-h0",
            "degenerate-h1", "nonfinite-h0", "nonfinite-h0-before-degenerate-h1",
            "nonfinite-h1", "huge-sigma", "tiny-sigma"])
    def test_same_error_or_report(self, x, sigma, h0, h1):
        assert _outcome(ebf_interval, x, sigma, h0, h1) == _outcome(_composed, x, sigma,
                                                                   h0, h1)


class TestChiSquared:
    def test_exponent_vanishes(self):
        for d in (1, 2, 3, 5):
            assert ebf_chi_squared(float(d), d).ebf01 == pytest.approx(
                2 ** (d / 2), rel=1e-14)

    def test_one_unit_pvalue(self):
        """At one evidence unit for d = 2 the tail P-value is about 0.049."""
        target = math.log(2 + math.sqrt(3))
        z2 = 2 + 2 * LOG2 + 2 * target
        assert ebf_chi_squared(z2, 2).ebf10 == pytest.approx(2 + math.sqrt(3), rel=1e-12)
        assert chi2_sf(z2, 2) == pytest.approx(0.049, abs=5e-4)
        assert ebf_chi_squared(6.019, 2).ebf10 == pytest.approx(3.73, abs=5e-3)

    def test_reduces_to_two_sided(self):
        for z in (0.3, 1.7, 2.9):
            assert ebf_chi_squared(z * z, 1).ebf01_log == pytest.approx(
                ebf_two_sided(z).ebf01_log, abs=1e-12)

    @pytest.mark.parametrize("z2", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_statistic(self, z2):
        with pytest.raises(DomainError, match="z2 must be finite"):
            ebf_chi_squared(z2, 2)


class TestDeviance:
    def test_unit_penalty(self):
        assert deviance_criterion(0.0, 1) == pytest.approx(1 + LOG2, rel=1e-14)

    def test_linear_in_dimension(self):
        assert deviance_criterion(0.0, 2) == pytest.approx(2 * (1 + LOG2), rel=1e-14)

    def test_equal_fit_difference(self):
        assert (deviance_criterion(-3.0, 3) - deviance_criterion(-3.0, 2)
                ) == pytest.approx(1 + LOG2, rel=1e-13)

    @pytest.mark.parametrize("loglik, d, match", [
        (math.nan, 1, "max_log_likelihood"), (math.inf, 1, "max_log_likelihood"),
        (-math.inf, 1, "max_log_likelihood"), (0.0, math.nan, "parameter count"),
        (0.0, math.inf, "parameter count"), (0.0, 0, "parameter count")])
    def test_rejects_bad_input(self, loglik, d, match):
        with pytest.raises(DomainError, match=match):
            deviance_criterion(loglik, d)


class TestNullBehaviour:
    def test_favours_null_probability_analytic(self):
        """P(factor favours a true null) = P(chi2_1 < 1 + log 2), which the
        normal CDF route reproduces to 1e-6 and rounds to 0.807."""
        analytic = chi2_cdf(1 + LOG2, 1)
        by_phi = 2 * scipy.special.ndtr(math.sqrt(1 + LOG2)) - 1
        assert analytic == pytest.approx(by_phi, abs=1e-12)
        assert round(analytic, 3) == 0.807

    def test_monte_carlo_confirms(self):
        z = RngStream(31, 0).standard_normal(1_000_000)
        log_ebf = 0.5 * LOG2 - 0.5 * (z * z - 1)
        p_hat = float(np.mean(log_ebf > 0))
        assert p_hat == pytest.approx(chi2_cdf(1 + LOG2, 1), abs=0.005)
        assert float(np.mean(log_ebf)) == pytest.approx(0.5 * LOG2, abs=0.01)

    def test_expected_log_factor_analytic(self):
        """E log EBF01 = log sqrt(2) + (1 - E chi2_1)/2 = (log 2)/2."""
        assert 0.5 * LOG2 + 0.5 * (1 - 1) == pytest.approx(0.5 * LOG2)


def _checked_quad(f, a, b, limit=400):
    """QUADPACK integral of f over (a, b) at relative tolerance 1e-12.

    Raises NonConvergedError when QUADPACK warns and its error estimate is
    above 1e-12 of the value.
    """
    value, err, _info, *warning = scipy.integrate.quad(
        f, a, b, epsabs=1e-320, epsrel=1e-12, limit=limit, full_output=1)
    if warning and err > 1e-12 * abs(value):
        raise NonConvergedError(
            f"quadrature over ({a}, {b}) did not reach tolerance "
            f"(error estimate {err:.3e})", value=value, error_estimate=err)
    return value


def _oracle_log_marginal(x, sigma, region):
    """Region marginal by direct quadrature of the defining integrals.

    Tolerances are relative so far-tail region masses keep full precision.
    """
    a, b = region.bounds()
    var = sigma ** 2
    log_norm = 0.5 * math.log(2.0 * math.pi * var)
    if region.is_point():
        return -0.5 * (x - region.a) ** 2 / var - log_norm
    norm = math.exp(-log_norm)

    def pdf(u, mean):
        return norm * math.exp(-0.5 * (u - mean) ** 2 / var)

    num = _checked_quad(lambda mu: pdf(x, mu) * pdf(mu, x), a, b)
    den = _checked_quad(lambda mu: pdf(mu, x), a, b)
    return math.log(num) - math.log(den)


class TestQuadratureOracle:
    """The closed forms agree with direct integration of their defining
    region integrals (bias constants applied on both routes)."""

    zs = np.linspace(-6.0, 6.0, 13)

    def test_two_sided(self):
        for z in self.zs:
            oracle = (_oracle_log_marginal(z, 1.0, HypothesisRegion.point(0.0))
                      - (_oracle_log_marginal(z, 1.0, HypothesisRegion.full()) - 0.5))
            assert ebf_two_sided(z).ebf01_log == pytest.approx(oracle, abs=1e-8)

    def test_one_sided(self):
        for z in self.zs:
            h1 = HypothesisRegion.above(0.0)
            base = (_oracle_log_marginal(z, 1.0, HypothesisRegion.point(0.0))
                    - _oracle_log_marginal(z, 1.0, h1))
            assert ebf_one_sided(z, True).ebf01_log == pytest.approx(
                base + 0.25, abs=1e-8)
            assert ebf_one_sided(z, False).ebf01_log == pytest.approx(
                base + 0.5, abs=1e-8)

    def test_directional(self):
        for z in self.zs:
            oracle = (_oracle_log_marginal(z, 1.0, HypothesisRegion.below(0.0))
                      - _oracle_log_marginal(z, 1.0, HypothesisRegion.above(0.0)))
            assert ebf_directional(z).ebf01_log == pytest.approx(oracle, abs=1e-8)

    def test_chi_squared_product_form(self):
        """d-dimensional integrals factorize over independent coordinates:
        the first carries z, the rest are at the origin."""
        for d in (1, 2, 3, 5):
            for z in (-4.0, -1.0, 0.5, 3.0, 6.0):
                log_m0 = sum(
                    _oracle_log_marginal(v, 1.0, HypothesisRegion.point(0.0))
                    for v in [z] + [0.0] * (d - 1))
                log_m1 = sum(
                    _oracle_log_marginal(v, 1.0, HypothesisRegion.full())
                    for v in [z] + [0.0] * (d - 1)) - d / 2
                assert ebf_chi_squared(z * z, d).ebf01_log == pytest.approx(
                    log_m0 - log_m1, abs=1e-8)

    def test_interval_regions(self):
        h0 = HypothesisRegion.interval(-0.5, 1.0)
        h1 = HypothesisRegion.above(0.8)
        for z in (-1.0, 0.2, 2.5):
            oracle = (_oracle_log_marginal(z, 1.0, h0)
                      - (_oracle_log_marginal(z, 1.0, h1) - 0.25))
            got = ebf_interval(z, 1.0, h0, h1).ebf01_log
            assert got == pytest.approx(oracle, abs=1e-8)
