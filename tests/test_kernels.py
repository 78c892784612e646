"""The tiled mixture kernel against the scalar cross_marginal oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from ebfkit import _kernels as K
from ebfkit.core import HypothesisRegion
from ebfkit.multitest import MultiTestBatch, cross_marginal, _region_args
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


class TestLogNdtrHelper:
    def test_matches_scipy_log_ndtr(self):
        from scipy.special import log_ndtr
        zs = np.concatenate([np.linspace(-36.9, 8, 500),
                             np.linspace(-200, -37.1, 100)])
        mine = np.array([K._log_ndtr_scalar(z) for z in zs])
        ref = log_ndtr(zs)
        np.testing.assert_allclose(mine, ref, rtol=5e-8, atol=1e-13)
