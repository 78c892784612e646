"""The tiled mixture kernel against the scalar cross_marginal oracle."""

import math
import sys
import threading
import time
import tracemalloc
import types
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


def _oracle_row(batch, region, own_bias, rows=None):
    """Each test's log mixture marginal assembled term by term: the own
    term and the pi_h-weighted cross_marginal terms over the masses; only
    the tests ``rows`` if given."""
    x, se = batch.estimates, batch.standard_errors
    m, pi_h = batch.size, batch.pi_h
    rows = range(m) if rows is None else rows
    if region.kind == "point":
        return norm.logpdf(x[rows], region.a, se[rows])
    mass = np.exp([_log_mass(region, x[j], se[j]) for j in range(m)])
    own_log_pdf = norm.logpdf(x, x, math.sqrt(2.0) * se)
    out = np.empty(len(rows))
    for k, i in enumerate(rows):
        own = (own_log_pdf[i]
               + _log_mass(region, x[i], se[i] / math.sqrt(2.0))
               - own_bias)
        cross = [math.log(pi_h) + cross_marginal(batch, i, j, region)
                 for j in range(m) if j != i]
        den = mass[i] + pi_h * (mass.sum() - mass[i])
        out[k] = logsumexp([own] + cross) - math.log(den)
    return out


def _count_splits(monkeypatch):
    """The number of split walks so far, as a one-item list: each starts
    one worker thread, and an unsplit walk starts none."""
    splits = [0]

    class Thread(threading.Thread):
        def start(self):
            splits[0] += 1
            super().start()

    monkeypatch.setattr(K, "threading", types.SimpleNamespace(Thread=Thread))
    return splits


def _small_tiles(monkeypatch, tile):
    """Tiles of ``tile`` entries, and a split of every walk of two or more
    of them, so that a small batch takes the split path."""
    monkeypatch.setattr(K, "_TILE_ELEMENTS", tile)
    monkeypatch.setattr(K, "_SPLIT_TILES", 2)


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
    # Walks of more than one tile split.
    @pytest.mark.parametrize("tile", [46, 16, 1 << 16])
    def test_rows_across_tiles(self, region, pi_h, tile, monkeypatch):
        rng = np.random.default_rng(17)
        batch = MultiTestBatch.from_arrays(
            1.5 * rng.standard_normal(23), np.exp(0.4 * rng.standard_normal(23)),
            region, region, pi_h=pi_h)
        _small_tiles(monkeypatch, tile)
        splits = _count_splits(monkeypatch)
        np.testing.assert_allclose(_kernel_row(batch, region, OWN_BIAS),
                                   _oracle_row(batch, region, OWN_BIAS),
                                   rtol=1e-10, atol=1e-10)
        # the walk splits unless it is one tile; a point takes none
        assert splits == [region.kind != "point" and tile in (16, 46)]


def _peak_mb(x, se, kind, a):
    tracemalloc.start()
    try:
        K.mixture_log_marginals(x, se, kind, a, None, 1.0, 0.25)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_memory_stays_within_tiles():
    """m = 2000: the m x m pairwise arrays alone would take 32 MB each.  On
    a half-line the row tiles take about 0.5 MB each.  The full-line walk
    splits, so its two threads hold a tile working set each, plus arrays
    of m."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000)
    se = np.exp(0.4 * rng.standard_normal(2000))
    assert _peak_mb(x, se, K.KIND_BELOW, 0.0) < 16.0
    working_set_mb = K._TILE_ARRAYS * K._TILE_ELEMENTS * 8 / 2 ** 20
    assert _peak_mb(x, se, K.KIND_FULL, None) < 2 * working_set_mb + 1.0


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
    _small_tiles(monkeypatch, tile)
    splits = _count_splits(monkeypatch)
    paired, single = _paired_and_single(x, se, h0, h1, pi_h)
    for got, want in zip(paired, single):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # one paired walk and two single ones, each split unless in one tile
    assert splits == [3 * (tile in (16, 46))]


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


# ---------------------------------------------------------------- split walk
# A walk of at least K._SPLIT_TILES tiles runs on the caller and a worker
# thread, which take its fixed runs of tiles in turn.

def _batch(m, seed):
    rng = np.random.default_rng(seed)
    se = np.exp(rng.normal(0.0, 0.4, m))
    mu = np.where(rng.uniform(size=m) < 0.2, rng.normal(0.0, 3.0, m), 0.0)
    return mu + se * rng.standard_normal(m), se


SPLIT_CASES = [  # (m, h0, h1) of the benchmark's typical and large batches
    (1000, HypothesisRegion.below(0.0), HypothesisRegion.above(0.0)),
    (2000, HypothesisRegion.interval(-0.5, 0.5), HypothesisRegion.full()),
    (4000, HypothesisRegion.point(0.0), HypothesisRegion.full()),
]


def _paired(x, se, h0, h1, pi_h):
    return K.paired_mixture_log_marginals(x, se, (*_region_args(h0), 0.35),
                                          (*_region_args(h1), 0.1), pi_h)


def test_split_threshold():
    """The benchmark's m = 300 batches and the CLI's batches of up to 200
    tests walk unsplit, with a region mass or on the full line alone, in
    tiles that share one working set; m = 1000 with a mass and m = 4000 on
    the full line split into runs of about equal pairs."""
    assert (K._tile_elements(True), K._tile_elements(False)) == (1 << 14, 40960)
    for has_mass, m in ((True, 1000), (False, 4000)):
        size = K._tile_elements(has_mass)
        assert len(K._tiles(200, size)) < len(K._tiles(300, size)) < K._SPLIT_TILES
        tiles = K._tiles(m, size)
        runs = K._runs(m, tiles)
        assert len(tiles) >= K._SPLIT_TILES and len(runs) == K._RUNS
        assert [t for run in runs for t in run] == tiles
        pairs = [sum((i1 - i0) * (m - i0) for i0, i1 in run) for run in runs]
        assert max(pairs) - min(pairs) < 2 * size


def test_workspace_arrays_start_on_cache_lines():
    for arrays, size in ((2, 1), (4, 16383), (5, K._TILE_ELEMENTS), (2, 40960)):
        work = K._workspace(arrays, size)
        assert len(work) == arrays
        assert all(w.size >= size and w.ctypes.data % 64 == 0 for w in work)


@pytest.mark.parametrize("pi_h", [1.0, 0.1])
def test_full_line_tiles_match_mass_sized_tiles(pi_h, monkeypatch):
    """The m = 4000 full-line walk in its own tiles and in the 2**14-entry
    tiles of a walk with a region mass: the same pairs, summed in other
    tiles."""
    x, se = _batch(4000, 11)
    h0, h1 = SPLIT_CASES[2][1:]
    got = _paired(x, se, h0, h1, pi_h)
    monkeypatch.setattr(K, "_tile_elements", lambda has_mass: 1 << 14)
    want = _paired(x, se, h0, h1, pi_h)
    assert np.array_equal(got[0], want[0])
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-13)


@pytest.mark.parametrize("m, h0, h1", SPLIT_CASES, ids=["m1000-below/above",
                                                       "m2000-interval/full",
                                                       "m4000-point/full"])
@pytest.mark.parametrize("pi_h", [1.0, 0.1])
def test_split_rows_against_cross_marginal(m, h0, h1, pi_h, monkeypatch):
    """Sampled rows of split walks against the scalar term-by-term sum."""
    x, se = _batch(m, 11)
    splits = _count_splits(monkeypatch)
    got = _paired(x, se, h0, h1, pi_h)
    assert splits == [1]
    batch = MultiTestBatch.from_arrays(x, se, h0, h1, pi_h=pi_h)
    rows = np.random.default_rng(m).choice(m, size=3, replace=False)
    for region, own_bias, row in zip((h0, h1), (0.35, 0.1), got):
        np.testing.assert_allclose(row[rows], _oracle_row(batch, region, own_bias, rows),
                                   rtol=1e-10, atol=1e-10)


class _InTurn:
    """A stand-in for ``threading.Thread`` that runs its target in the
    caller when joined, after the caller has taken every run."""

    def __init__(self, target, name=None):
        self._target = target

    def start(self):
        pass

    def join(self):
        self._target()


def _delayed(monkeypatch, in_worker):
    """Hold back each run that the worker, or the caller, takes by 5 ms."""
    walk_tiles = K._walk_tiles

    def late(*args):
        if (threading.current_thread() is not threading.main_thread()) == in_worker:
            time.sleep(0.005)
        return walk_tiles(*args)

    monkeypatch.setattr(K, "_walk_tiles", late)


@pytest.mark.parametrize("m, h0, h1", SPLIT_CASES[:1] + [
    (1500, HypothesisRegion.point(0.0), HypothesisRegion.full())], ids=["pair", "single"])
def test_split_is_bit_identical(m, h0, h1, monkeypatch):
    """The same bits on every call, whichever thread takes which runs, and
    when the caller takes them all."""
    x, se = _batch(m, 5)
    first = _paired(x, se, h0, h1, 0.1)
    schedules = [lambda: None, lambda: None,
                 lambda: _delayed(monkeypatch, in_worker=True),
                 lambda: _delayed(monkeypatch, in_worker=False),
                 lambda: monkeypatch.setattr(K, "threading",
                                             types.SimpleNamespace(Thread=_InTurn))]
    for schedule in schedules:
        monkeypatch.undo()
        schedule()
        for got, want in zip(_paired(x, se, h0, h1, 0.1), first):
            assert np.array_equal(got, want)


def _worker_first(monkeypatch, walk):
    """``walk`` in place of ``_walk_tiles``, with the caller held back until
    the worker has taken a run, so that both threads take runs.  Returns
    the event to clear before the next walk."""
    took = threading.Event()

    def wrapped(*args):
        if threading.current_thread() is threading.main_thread():
            assert took.wait(timeout=60)
        else:
            took.set()
        return walk(*args)

    monkeypatch.setattr(K, "_walk_tiles", wrapped)
    return took


@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "caller"])
def test_run_exception_reaches_caller(in_worker, monkeypatch):
    """An exception in a run that the worker, or the caller, walks reaches
    the caller, after the worker has ended; the next call is unharmed."""
    walk_tiles = K._walk_tiles

    def failing(*args):
        if (threading.current_thread() is not threading.main_thread()) == in_worker:
            raise FloatingPointError("in one run")
        return walk_tiles(*args)

    _worker_first(monkeypatch, failing)
    x, se = _batch(1000, 5)
    with pytest.raises(FloatingPointError, match="in one run"):
        _paired(x, se, *SPLIT_CASES[0][1:], 1.0)
    assert not any(t.name == "ebfkit-walk" for t in threading.enumerate())
    monkeypatch.setattr(K, "_walk_tiles", walk_tiles)
    assert np.all(np.isfinite(_paired(x, se, *SPLIT_CASES[0][1:], 1.0)))


def test_worker_keeps_callers_error_state(monkeypatch):
    """Every run underflows here: the rows hold two clusters 80 apart, and
    exp(-1600) is 0.  The caller walks its runs with underflow ignored, so
    under the caller's errstate only the runs the worker takes can raise."""
    walk_tiles = K._walk_tiles

    def caller_ignores(*args):
        if threading.current_thread() is threading.main_thread():
            with np.errstate(under="ignore"):
                return walk_tiles(*args)
        return walk_tiles(*args)

    took = _worker_first(monkeypatch, caller_ignores)
    x = np.resize([-40.0, 40.0], 1000)
    ones = np.ones(1000)
    assert np.all(np.isfinite(K.mixture_log_marginals(x, ones, K.KIND_FULL, None, None,
                                                      1.0, 0.5)))
    took.clear()
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        K.mixture_log_marginals(x, ones, K.KIND_FULL, None, None, 1.0, 0.5)


def test_concurrent_callers_get_their_own_bits():
    """Callers on more threads than cores split their walks at once, each
    with a worker of its own; each gets the bits of a lone call."""
    cases = [_batch(m, seed) for m, seed in ((1000, 1), (700, 2), (1200, 3), (900, 4))]
    h0, h1 = SPLIT_CASES[0][1:]
    want = [_paired(x, se, h0, h1, 0.1) for x, se in cases]
    got = [None] * len(cases)

    def run(k):
        for _ in range(3):
            got[k] = _paired(*cases[k], h0, h1, 0.1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))
