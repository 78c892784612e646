"""Invariances of the factors: swapping the hypotheses and rescaling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebfkit.core import HypothesisRegion
from ebfkit.multitest import MultiTestBatch, multi_ebf
from ebfkit.normal_ebf import ebf_chi_squared, ebf_interval, ebf_two_sided

_bound = st.floats(-3.0, 3.0)
_width = st.floats(0.01, 4.0)
_z = st.floats(-8.0, 8.0)  # x / se
_se = st.floats(0.05, 20.0)
_NONPOINT = {
    "below": st.builds(HypothesisRegion.below, _bound),
    "above": st.builds(HypothesisRegion.above, _bound),
    "interval": st.builds(lambda a, w: HypothesisRegion.interval(a, a + w), _bound, _width),
    "full": st.just(HypothesisRegion.full()),
}
_ANY = st.one_of(st.builds(HypothesisRegion.point, _bound), *_NONPOINT.values())


def _region_pair(kinds):
    if kinds == "below:a/above:a":
        return _bound.map(lambda a: (HypothesisRegion.below(a), HypothesisRegion.above(a)))
    if kinds == "above:a/below:a":
        return _bound.map(lambda a: (HypothesisRegion.above(a), HypothesisRegion.below(a)))
    k0, k1 = kinds.split("/")
    return st.tuples(_NONPOINT[k0], _NONPOINT[k1])


# every ordered pair of non-point kinds, and both orders of the
# complementary half-lines whose masses share one ndtr
PAIR_KINDS = [f"{k0}/{k1}" for k0 in _NONPOINT for k1 in _NONPOINT] + [
    "below:a/above:a", "above:a/below:a"]


@pytest.mark.parametrize("kinds", PAIR_KINDS)
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), tests=st.lists(st.tuples(_z, _se), min_size=1, max_size=30))
def test_swapping_hypotheses_negates_multi_ebf(kinds, pi_h, data, tests):
    h0, h1 = data.draw(_region_pair(kinds))
    z, se = (np.array(v) for v in zip(*tests))
    forward = MultiTestBatch.from_arrays(z * se, se, h0, h1, pi_h=pi_h)
    backward = MultiTestBatch.from_arrays(z * se, se, h1, h0, pi_h=pi_h)
    got = np.array([r.ebf01_log for r in multi_ebf(backward)])
    want = np.array([r.ebf01_log for r in multi_ebf(forward)])
    np.testing.assert_allclose(got, -want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(z=_z, se=_se, h0=_ANY, h1=_ANY)
def test_swapped_report_negates_the_factor(z, se, h0, h1):
    report = ebf_interval(z * se, se, h0, h1)
    swapped = report.swapped()
    assert swapped.ebf01_log == -report.ebf01_log
    assert (swapped.h0, swapped.h1) == (h1, h0)
    assert (swapped.bias_h0, swapped.bias_h1) == (report.bias_h1, report.bias_h0)
    assert swapped.ebf01_log == pytest.approx(ebf_interval(z * se, se, h1, h0).ebf01_log,
                                              rel=1e-12, abs=1e-12)


def _scaled(region, c):
    if region.kind == "full":
        return region
    if region.kind == "interval":
        return HypothesisRegion.interval(c * region.a, c * region.b)
    return HypothesisRegion(region.kind, c * region.a)


@settings(max_examples=60, deadline=None)
@given(z=_z, se=_se, h0=_ANY, h1=_ANY, c=st.floats(0.01, 100.0))
def test_ebf_interval_is_scale_free(z, se, h0, h1, c):
    """(x, sigma, regions) -> (c x, c sigma, c regions) leaves the factor
    as it is: only positions in standard errors matter."""
    want = ebf_interval(z * se, se, h0, h1).ebf01_log
    got = ebf_interval(c * z * se, c * se, _scaled(h0, c), _scaled(h1, c)).ebf01_log
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


_abs_z = st.floats(0.0, 30.0)


@settings(max_examples=200, deadline=None)
@given(a=_abs_z, b=_abs_z, sign_a=st.sampled_from([1.0, -1.0]),
       sign_b=st.sampled_from([1.0, -1.0]))
def test_two_sided_evidence_for_null_falls_with_abs_z(a, b, sign_a, sign_b):
    a, b = sorted((a, b))
    near = ebf_two_sided(sign_a * a).ebf01_log
    far = ebf_two_sided(sign_b * b).ebf01_log
    assert far <= near
    if b - a > 1e-6:
        assert far < near


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 900.0), b=st.floats(0.0, 900.0), d=st.integers(1, 5))
def test_chi_squared_evidence_for_null_falls_with_z2(a, b, d):
    a, b = sorted((a, b))
    near, far = ebf_chi_squared(a, d).ebf01_log, ebf_chi_squared(b, d).ebf01_log
    assert far <= near
    if b - a > 1e-6:
        assert far < near
