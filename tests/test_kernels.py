"""The tiled mixture kernel against the scalar cross_marginal oracle."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from ebfkit import _kernels as K
from ebfkit.core import HypothesisRegion
from ebfkit.multitest import MultiTestBatch, cross_marginal, multi_ebf, _region_args
from ebfkit.normal_ebf import _log_mass, ebf_interval

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
    if region.kind == "point":
        return norm.logpdf(x, region.a, se)
    m, pi_h = batch.size, batch.pi_h
    mass = np.exp([_log_mass(region, x[j], se[j]) for j in range(m)])
    own_log_pdf = norm.logpdf(x, x, math.sqrt(2.0) * se)
    out = np.empty(m)
    for i in range(m):
        own = (own_log_pdf[i]
               + _log_mass(region, x[i], se[i] / math.sqrt(2.0))
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

    # 23 tests in triangle tiles of 2 rows growing to 5 as the rows
    # shorten (a ragged last tile of 4), of 1 row (a tile smaller than one
    # row) growing to 4, and of 2**16 entries (one tile, as at the default
    # size; a literal, so the case's name does not follow the default).
    @pytest.mark.parametrize("tile", [46, 16, 1 << 16])
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


# Regions so far out that every test's own mass lies below the smallest
# double: the denominator exists only in log space.
FAR_REGIONS = [HypothesisRegion.above(40.0), HypothesisRegion.above(45.0),
               HypothesisRegion.below(-45.0), HypothesisRegion.interval(70.0, 70.5)]
_far_ids = lambda r: f"{r.kind}:{r.a}"  # noqa: E731


@pytest.mark.parametrize("h1", FAR_REGIONS, ids=_far_ids)
@pytest.mark.parametrize("h0", [HypothesisRegion.point(0.0), HypothesisRegion.full()],
                         ids=lambda r: r.kind)
def test_far_region_single_test(h0, h1):
    x = float(np.random.default_rng(5).standard_normal())
    batch = MultiTestBatch.from_arrays([x], [1.0], h0, h1)
    assert multi_ebf(batch)[0].ebf01_log == pytest.approx(
        ebf_interval(x, 1.0, h0, h1).ebf01_log, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("h1", FAR_REGIONS, ids=_far_ids)
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
def test_far_region_batch_is_finite(h1, pi_h):
    x = np.random.default_rng(5).standard_normal(50)
    batch = MultiTestBatch.from_arrays(x, np.ones(50), HypothesisRegion.point(0.0), h1,
                                       pi_h=pi_h)
    got = np.array([r.ebf01_log for r in multi_ebf(batch)])
    assert np.all(np.isfinite(got)) and np.all(got > 500.0)


_nonpoint = st.one_of(
    st.builds(HypothesisRegion.below, _bound),
    st.builds(HypothesisRegion.above, _bound),
    st.builds(lambda a, w: HypothesisRegion.interval(a, a + w), _bound, st.floats(0.01, 6.0)),
    st.just(HypothesisRegion.full()))


@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.tuples(_z, _se), min_size=2, max_size=30), region=_nonpoint)
def test_cross_marginal_is_symmetric(data, region):
    """The pair term the kernel computes once per pair is symmetric in
    (i, j), checked on the scalar oracle."""
    z, se = (np.array(v) for v in zip(*data))
    batch = MultiTestBatch.from_arrays(z * se, se, region, region)
    for i, j in [(0, 1), (0, batch.size - 1), (batch.size // 2, 1)]:
        if i != j:
            assert cross_marginal(batch, i, j, region) == pytest.approx(
                cross_marginal(batch, j, i, region), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.tuples(_z, _se), min_size=1, max_size=30),
       region=st.one_of(_nonpoint, st.builds(HypothesisRegion.point, _bound)),
       pi_h=st.sampled_from([1.0, 0.1]), tile=st.sampled_from([16, 46, K._TILE_ELEMENTS]),
       perm_seed=st.integers(0, 2 ** 32 - 1))
def test_permutation_permutes_rows(data, region, pi_h, tile, perm_seed):
    """Reordering a batch reorders its marginals: each pair's term reaches
    both its rows, in ragged triangle tiles as in one tile."""
    kind, a, b = _region_args(region)
    z, se = (np.array(v) for v in zip(*data))
    x = z * se
    perm = np.random.default_rng(perm_seed).permutation(x.size)
    with mock.patch.object(K, "_TILE_ELEMENTS", tile):
        base = K.mixture_log_marginals(x, se, kind, a, b, pi_h, OWN_BIAS)
        moved = K.mixture_log_marginals(x[perm], se[perm], kind, a, b, pi_h, OWN_BIAS)
    np.testing.assert_allclose(moved, base[perm], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", [K.KIND_POINT, K.KIND_BELOW, K.KIND_ABOVE,
                                  K.KIND_INTERVAL, K.KIND_FULL])
def test_empty_batch(kind):
    empty = np.empty(0)
    assert K.mixture_log_marginals(empty, empty, kind, -1.0, 1.0, 1.0, OWN_BIAS).shape == (0,)
    for other in (K.KIND_POINT, K.KIND_BELOW, K.KIND_ABOVE, K.KIND_INTERVAL, K.KIND_FULL):
        for h0, h1 in [((kind, -1.0, 1.0, 0.1), (other, -1.0, 1.0, 0.2)),
                       ((other, -1.0, 1.0, 0.1), (kind, -1.0, 1.0, 0.2))]:
            m0, m1 = K.paired_mixture_log_marginals(empty, empty, h0, h1, 0.5)
            assert m0.shape == m1.shape == (0,)


# Every ordered pair of non-point regions, the complementary half-lines
# below:0/above:0 (one ndtr for both) among them.
NONPOINT = [HypothesisRegion.full(), HypothesisRegion.below(-0.4),
            HypothesisRegion.above(0.4), HypothesisRegion.interval(-1.0, 0.7),
            HypothesisRegion.below(0.0), HypothesisRegion.above(0.0)]
_region_id = lambda r: r.kind if r.a is None else f"{r.kind}:{r.a}"  # noqa: E731


def _paired_and_single(x, se, h0, h1, pi_h):
    """The two-region walk and two one-region calls, with differing own
    biases."""
    (k0, a0, b0), (k1, a1, b1) = _region_args(h0), _region_args(h1)
    paired = K.paired_mixture_log_marginals(x, se, (k0, a0, b0, 0.35), (k1, a1, b1, 0.1),
                                            pi_h)
    single = (K.mixture_log_marginals(x, se, k0, a0, b0, pi_h, 0.35),
              K.mixture_log_marginals(x, se, k1, a1, b1, pi_h, 0.1))
    return paired, single


@pytest.mark.parametrize("h0", NONPOINT, ids=_region_id)
@pytest.mark.parametrize("h1", NONPOINT, ids=_region_id)
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
@pytest.mark.parametrize("tile", [16, 46, K._TILE_ELEMENTS])
def test_paired_walk_equals_two_walks(h0, h1, pi_h, tile, monkeypatch):
    rng = np.random.default_rng(29)
    se = np.exp(0.4 * rng.standard_normal(23))
    x = 1.5 * rng.standard_normal(23) * se
    monkeypatch.setattr(K, "_TILE_ELEMENTS", tile)
    paired, single = _paired_and_single(x, se, h0, h1, pi_h)
    for got, want in zip(paired, single):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


# Rows at +-40 standard errors: the far side of each pair is beyond the
# tail of their posteriors, so its rows take the log-domain path.
@pytest.mark.parametrize("a", [45.0, -45.0])
@pytest.mark.parametrize("flip", [False, True], ids=["below/above", "above/below"])
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
def test_paired_walk_fallback_rows(a, flip, pi_h, monkeypatch):
    rng = np.random.default_rng(3)
    se = np.exp(0.4 * rng.standard_normal(26))
    x = np.concatenate([1.5 * rng.standard_normal(20), np.full(3, 40.0), np.full(3, -40.0)])
    x *= se
    h0, h1 = HypothesisRegion.below(a), HypothesisRegion.above(a)
    if flip:
        h0, h1 = h1, h0
    fallback = []
    log_rows = K._log_rows

    def spy(*args):
        fallback.extend(args[-1])
        return log_rows(*args)

    monkeypatch.setattr(K, "_log_rows", spy)
    paired, _ = _paired_and_single(x, se, h0, h1, pi_h)
    assert len(fallback) > x.size // 2
    monkeypatch.setattr(K, "_log_rows", log_rows)
    _, single = _paired_and_single(x, se, h0, h1, pi_h)
    for got, want in zip(paired, single):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
