"""The tiled mixture kernel against the scalar cross_marginal oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from ebfkit import _kernels as K
from ebfkit.core import HypothesisRegion
from ebfkit.multitest import MultiTestBatch, cross_marginal, multi_ebf, _region_args
from ebfkit.normal_ebf import ebf_interval
from ebfkit.numerics import normal_log_pdf

REGIONS = [
    HypothesisRegion.point(0.2),
    HypothesisRegion.full(),
    HypothesisRegion.below(-0.4),
    HypothesisRegion.above(0.4),
    HypothesisRegion.interval(-1.0, 0.7),
]
OWN_BIAS = 0.35


def _oracle_row(batch, region, own_bias):
    """Each test's log mixture marginal assembled term by term: the own
    term and the pi_h-weighted cross_marginal terms over the masses."""
    x, se = batch.estimates, batch.standard_errors
    kind, a, b = _region_args(region)
    b = 0.0 if b is None else b
    if region.kind == "point":
        return np.array([normal_log_pdf(xi, a, si ** 2) for xi, si in zip(x, se)])
    m, pi_h = batch.size, batch.pi_h
    mass = np.exp([K._log_mass_scalar(kind, a, b, x[j], se[j]) for j in range(m)])
    out = np.empty(m)
    for i in range(m):
        own = (normal_log_pdf(x[i], x[i], 2.0 * se[i] ** 2)
               + K._log_mass_scalar(kind, a, b, x[i], se[i] / math.sqrt(2.0))
               - own_bias)
        cross = [math.log(pi_h) + cross_marginal(batch, i, j, region)
                 for j in range(m) if j != i]
        den = mass[i] + pi_h * (mass.sum() - mass[i])
        out[i] = logsumexp([own] + cross) - math.log(den)
    return out


def _kernel_row(batch, region, own_bias):
    kind, a, b = _region_args(region)
    return K.mixture_log_marginals(batch.estimates, batch.standard_errors,
                                   kind, a, b, batch.pi_h, own_bias)


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
class TestMixtureAgainstCrossMarginal:
    def test_single_test(self, region, pi_h):
        batch = MultiTestBatch.from_arrays([0.8], [1.3], region, region, pi_h=pi_h)
        np.testing.assert_allclose(_kernel_row(batch, region, OWN_BIAS),
                                   _oracle_row(batch, region, OWN_BIAS),
                                   rtol=1e-10, atol=1e-10)

    # 23 tests in tiles of 2 rows (a ragged last tile of 1), of 1 row (a
    # tile smaller than one row), and of the default size (one tile).
    @pytest.mark.parametrize("tile", [46, 16, K._TILE_ELEMENTS])
    def test_rows_across_tiles(self, region, pi_h, tile, monkeypatch):
        rng = np.random.default_rng(17)
        batch = MultiTestBatch.from_arrays(
            1.5 * rng.standard_normal(23), np.exp(0.4 * rng.standard_normal(23)),
            region, region, pi_h=pi_h)
        monkeypatch.setattr(K, "_TILE_ELEMENTS", tile)
        np.testing.assert_allclose(_kernel_row(batch, region, OWN_BIAS),
                                   _oracle_row(batch, region, OWN_BIAS),
                                   rtol=1e-10, atol=1e-10)


def test_memory_stays_within_tiles():
    """m = 2000 on a half-line: the m x m pairwise arrays alone would take
    32 MB each, the row tiles about 0.5 MB each."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000)
    se = np.exp(0.4 * rng.standard_normal(2000))
    tracemalloc.start()
    try:
        K.mixture_log_marginals(x, se, K.KIND_BELOW, 0.0, None, 1.0, 0.25)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb < 16.0


# Rows at +-40 standard errors beside a bulk near 0: each region
# below lies beyond the tail of some rows' posteriors, so those rows'
# linear-domain sums underflow and take the log-domain path.
DEEP_REGIONS = [
    (HypothesisRegion.above(45.0), "most"),
    (HypothesisRegion.below(-45.0), "most"),
    (HypothesisRegion.interval(70.0, 70.5), "most"),
    (HypothesisRegion.above(8.0), "few"),
]


@pytest.mark.parametrize("region, share", DEEP_REGIONS,
                         ids=lambda v: getattr(v, "kind", v))
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
def test_fallback_rows(region, share, pi_h, monkeypatch):
    rng = np.random.default_rng(3)
    se = np.exp(0.4 * rng.standard_normal(26))
    x = np.concatenate([1.5 * rng.standard_normal(20), np.full(3, 40.0), np.full(3, -40.0)])
    x[20:] *= se[20:]
    batch = MultiTestBatch.from_arrays(x, se, region, region, pi_h=pi_h)
    fallback = []
    log_rows = K._log_rows

    def spy(*args):
        fallback.extend(args[-1])
        return log_rows(*args)

    monkeypatch.setattr(K, "_log_rows", spy)
    got = _kernel_row(batch, region, OWN_BIAS)
    assert (len(fallback) > batch.size // 2) == (share == "most")
    assert 0 < len(fallback)
    np.testing.assert_allclose(got, _oracle_row(batch, region, OWN_BIAS),
                               rtol=1e-10, atol=1e-10)


_z = st.floats(-8.0, 8.0)  # x / se
_se = st.floats(0.05, 20.0)
_bound = st.floats(-5.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.tuples(_z, _se), min_size=1, max_size=30),
       a=_bound, width=st.floats(0.01, 6.0), pi_h=st.floats(0.01, 1.0),
       own_bias=st.floats(0.0, 0.5))
def test_mirror_symmetry(data, a, width, pi_h, own_bias):
    """x -> -x maps below:a to above:-a and interval(a, b) to
    interval(-b, -a)."""
    z, se = (np.array(v) for v in zip(*data))
    x = z * se
    b = a + width

    def run(xs, kind, lo, hi):
        return K.mixture_log_marginals(xs, se, kind, lo, hi, pi_h, own_bias)

    np.testing.assert_allclose(run(x, K.KIND_BELOW, a, None),
                               run(-x, K.KIND_ABOVE, -a, None), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(run(x, K.KIND_INTERVAL, a, b),
                               run(-x, K.KIND_INTERVAL, -b, -a), rtol=1e-12, atol=1e-12)


PAIRS = [
    (HypothesisRegion.point(0.0), HypothesisRegion.full()),
    (HypothesisRegion.below(0.0), HypothesisRegion.above(0.0)),
    (HypothesisRegion.interval(-0.5, 0.5), HypothesisRegion.full()),
]


@settings(max_examples=60, deadline=None)
@given(z=_z, se=_se, pair=st.sampled_from(PAIRS), pi_h=st.floats(0.01, 1.0))
def test_single_test_multi_equals_single(z, se, pair, pi_h):
    h0, h1 = pair
    batch = MultiTestBatch.from_arrays([z * se], [se], h0, h1, pi_h=pi_h)
    got = multi_ebf(batch)[0].ebf01_log
    want = ebf_interval(z * se, se, h0, h1).ebf01_log
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
