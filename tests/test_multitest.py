"""Mixture factors for batches of normal tests."""

import math

import numpy as np
import pytest

from ebfkit.core import HypothesisRegion
from ebfkit.exceptions import DomainError, UnsupportedFamilyError
from ebfkit.multitest import MultiTestBatch, cross_marginal, multi_ebf, ranked_summary
from ebfkit.normal_ebf import ebf_interval, ebf_one_sided, ebf_two_sided

POINT0 = HypothesisRegion.point(0.0)
FULL = HypothesisRegion.full()


def _batch(x, se=None, h0=POINT0, h1=FULL, pi_h=1.0):
    x = np.asarray(x, dtype=float)
    se = np.ones_like(x) if se is None else np.asarray(se, dtype=float)
    return MultiTestBatch.from_arrays(x, se, h0, h1, pi_h=pi_h)


class TestBatchValidation:
    def test_rejects_bad_se(self):
        with pytest.raises(DomainError):
            _batch([1.0, 2.0], [1.0, 0.0])

    @pytest.mark.parametrize("x, se", [
        ([1.0, math.nan], [1.0, 1.0]),
        ([1.0, math.inf], [1.0, 1.0]),
        ([-math.inf, 1.0], [1.0, 1.0]),
        ([1.0, 2.0], [math.nan, 1.0]),
        ([1.0, 2.0], [1.0, math.inf]),
    ])
    def test_rejects_nonfinite(self, x, se):
        with pytest.raises(DomainError, match="finite"):
            _batch(x, se)

    def test_rejects_bad_pi(self):
        with pytest.raises(DomainError):
            _batch([1.0], pi_h=0.0)
        with pytest.raises(DomainError):
            _batch([1.0], pi_h=1.5)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            _batch([])

    def test_rejects_foreign_family(self):
        with pytest.raises(UnsupportedFamilyError):
            MultiTestBatch(("a",), np.array([1.0]), np.array([1.0]),
                           POINT0, FULL, family="t")


class TestCrossMarginal:
    def test_full_line_is_convolution_density(self):
        b = _batch([0.0, 0.0])
        got = cross_marginal(b, 0, 1, FULL)
        assert got == pytest.approx(math.log(1 / math.sqrt(4 * math.pi)), abs=1e-12)

    def test_symmetric_for_equal_se(self):
        b = _batch([0.3, -1.2])
        assert cross_marginal(b, 0, 1, FULL) == pytest.approx(
            cross_marginal(b, 1, 0, FULL), abs=1e-12)

    def test_vanishes_for_distant_tests(self):
        vals = [cross_marginal(_batch([0.0, dx]), 0, 1, FULL)
                for dx in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -2000

    def test_rejects_same_index(self):
        with pytest.raises(DomainError):
            cross_marginal(_batch([0.0, 1.0]), 1, 1, FULL)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_rejects_index_outside_batch(self, i, j):
        with pytest.raises(DomainError, match="test index"):
            cross_marginal(_batch([0.0, 1.0]), i, j, FULL)


class TestMultiEbf:
    def test_two_identical_nulls_shrink(self):
        """The known two-test value at x = (0, 0): the own term is
        down-weighted, pulling the factor from sqrt(2e) = 2.33 to 1.76."""
        r = multi_ebf(_batch([0.0, 0.0]))[0]
        expect = ((1 / math.sqrt(2 * math.pi))
                  / ((1 + math.exp(-0.5)) / 2 / math.sqrt(4 * math.pi)))
        assert r.ebf01 == pytest.approx(expect, rel=1e-12)
        assert r.ebf01 == pytest.approx(1.76, abs=0.005)
        assert r.ebf01 < ebf_two_sided(0.0).ebf01

    def test_single_test_reductions(self):
        """m = 1 reproduces the single-test factors to machine precision."""
        z = 1.37
        pairs = [
            (POINT0, FULL, ebf_two_sided(z).ebf01_log),
            (POINT0, HypothesisRegion.above(0.0), ebf_one_sided(z).ebf01_log),
            (HypothesisRegion.below(0.0), HypothesisRegion.above(0.0),
             ebf_interval(z, 1.0, HypothesisRegion.below(0.0),
                          HypothesisRegion.above(0.0)).ebf01_log),
        ]
        for h0, h1, expect in pairs:
            got = multi_ebf(_batch([z], h0=h0, h1=h1))[0].ebf01_log
            assert got == pytest.approx(expect, abs=1e-12)

    def test_small_pi_approaches_single_test(self):
        x = np.array([0.2, 1.4, -0.7, 2.2])
        singles = np.array([ebf_two_sided(v).ebf01_log for v in x])
        for pi in (1e-2, 1e-5, 1e-8):
            got = np.array([r.ebf01_log for r in multi_ebf(_batch(x, pi_h=pi))])
            dev = np.max(np.abs(got - singles))
            if pi == 1e-8:
                assert dev < 1e-6
        dev_large = np.max(np.abs(
            [r.ebf01_log for r in multi_ebf(_batch(x, pi_h=1.0))] - singles))
        assert dev_large > 0.01  # borrowing really does move the values

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(30)
        se = np.exp(0.1 * rng.standard_normal(30))
        perm = rng.permutation(30)
        base = np.array([r.ebf01_log for r in multi_ebf(_batch(x, se))])
        permd = np.array([r.ebf01_log for r in multi_ebf(_batch(x[perm], se[perm]))])
        np.testing.assert_allclose(permd, base[perm], atol=1e-12)

    def test_heterogeneous_standard_errors(self):
        r = multi_ebf(_batch([0.5, 2.0, -1.0], [0.2, 1.0, 3.0]))
        assert all(math.isfinite(rep.ebf01_log) for rep in r)


class TestRankedSummary:
    def test_single(self):
        rows = ranked_summary(multi_ebf(_batch([1.0])))
        assert rows[0]["rank"] == 1

    def test_ties_keep_input_order(self):
        reports = multi_ebf(_batch([1.5, -1.5, 1.5]))  # tests 0 and 2 tie
        assert reports[0].ebf01_log == reports[2].ebf01_log
        rows = ranked_summary(reports, ids=["a", "b", "c"])
        ranked_ids = [r["id"] for r in rows]
        assert ranked_ids == ["a", "c", "b"]

    def test_permutation_permutes_ids_not_ranks(self):
        x = [0.3, 2.1, -1.0, 0.9]
        rows = ranked_summary(multi_ebf(_batch(x)), ids=list("abcd"))
        ranks = sorted(r["rank"] for r in rows)
        assert ranks == [1, 2, 3, 4]
        best = max(rows, key=lambda r: r["ebf10_log"])
        assert best["rank"] == 1 and best["id"] == "b"

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ranked_summary([])

    @pytest.mark.parametrize("ids", [["a", "b"], ["a", "b", "c", "d"]])
    def test_rejects_id_count_mismatch(self, ids):
        reports = multi_ebf(_batch([0.3, 2.1, -1.0]))
        with pytest.raises(DomainError, match=f"got {len(ids)} ids for 3 reports"):
            ranked_summary(reports, ids=ids)
