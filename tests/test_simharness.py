"""Simulation harness: determinism, reductions, and the documented
patterns at desk scale."""

import math
import tracemalloc

import numpy as np
import pytest

from ebfkit._kernels import replicate_mixture_log_marginals
from ebfkit.exceptions import DomainError
from ebfkit.simharness import (
    ScenarioSpec,
    _experiment_errors,
    run_bias_experiment,
    run_largescale,
    run_mse_experiment,
    sensitivity_curves,
)

SEED = 13  # fixed acceptance seed


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            ScenarioSpec(4, 1)
        with pytest.raises(DomainError):
            ScenarioSpec(1, 0)

    @pytest.mark.parametrize("pi_h", [0.0, -0.1, 1.5, np.nan, np.inf])
    def test_rejects_bad_pi_h(self, pi_h):
        with pytest.raises(DomainError, match=r"pi_h must lie in \(0, 1\]"):
            ScenarioSpec(1, 2, pi_h=pi_h)

    def test_streams_differ_by_cell(self):
        a = ScenarioSpec(1, 3, seed=SEED).stream(0).standard_normal(5)
        b = ScenarioSpec(1, 4, seed=SEED).stream(0).standard_normal(5)
        assert not np.allclose(a, b)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        spec = ScenarioSpec(2, 4, replicates=500, seed=SEED)
        r1 = run_bias_experiment(spec)
        r2 = run_bias_experiment(spec)
        assert r1 == r2

    def test_seed_changes_results(self):
        r1 = run_bias_experiment(ScenarioSpec(1, 2, replicates=500, seed=1))
        r2 = run_bias_experiment(ScenarioSpec(1, 2, replicates=500, seed=2))
        assert r1["unadjusted_bias"] != r2["unadjusted_bias"]


class TestBiasExperiment:
    def test_single_test_recovers_half(self):
        for scenario in (1, 2, 3):
            r = run_bias_experiment(ScenarioSpec(scenario, 1, replicates=2000,
                                                 seed=SEED))
            assert r["unadjusted_bias"] == pytest.approx(0.5, abs=0.03)
            assert r["adjusted_bias"] == pytest.approx(0.0, abs=0.03)
            assert r["unadjusted_se"] < 0.02

    def test_identical_means_share_information(self):
        """With all means equal the over-statement falls roughly like 1/m."""
        r10 = run_bias_experiment(ScenarioSpec(1, 10, replicates=2000, seed=SEED))
        assert r10["unadjusted_bias"] == pytest.approx(0.05, abs=0.02)

    def test_separated_means_keep_full_bias(self):
        """On the wide grid the foreign posteriors contribute nothing."""
        r = run_bias_experiment(ScenarioSpec(3, 10, replicates=2000, seed=SEED))
        assert r["unadjusted_bias"] == pytest.approx(0.5, abs=0.02)


class TestMseExperiment:
    def test_single_equals_multiple_at_m1(self):
        raw, adj, single = _experiment_errors(ScenarioSpec(1, 1, replicates=300,
                                                           seed=SEED))
        np.testing.assert_allclose(adj, single, atol=1e-12)

    def test_sharing_helps_when_means_agree(self):
        r = run_mse_experiment(ScenarioSpec(1, 10, replicates=2000, seed=SEED))
        assert r["multiple_mse"] < r["single_mse"] / 5
        assert r["multiple_mse"] == pytest.approx(0.033, abs=0.02)

    def test_no_harm_when_means_differ(self):
        r = run_mse_experiment(ScenarioSpec(3, 10, replicates=2000, seed=SEED))
        tol = 3 * (r["single_se"] + r["multiple_se"])
        assert abs(r["multiple_mse"] - r["single_mse"]) <= tol


class TestLargescale:
    def test_shapes_and_determinism(self):
        a = run_largescale(90, 10, seed=SEED)
        b = run_largescale(90, 10, seed=SEED)
        np.testing.assert_array_equal(a["z"], b["z"])
        assert a["single_ebf10_log"].shape == (100,)
        assert set(a["multi_ebf10_log"]) == {1.0, 0.01}

    def test_no_signals_means_zero_tpp(self):
        res = run_largescale(50, 0, seed=SEED)
        assert np.all(res["tpp_multi"] == 0.0)
        assert np.all(res["tpp_single"] == 0.0)

    def test_multi_shrinks_values_not_ranking(self):
        res = run_largescale(900, 100, seed=SEED)
        assert np.mean(np.abs(res["multi_ebf10_log"][1.0])) < np.mean(
            np.abs(res["single_ebf10_log"]))
        from scipy.stats import spearmanr
        rc = spearmanr(res["single_ebf10_log"], res["multi_ebf10_log"][1.0]).statistic
        assert rc > 0.99

    @pytest.mark.parametrize("m0, m1", [(90, 10), (950, 50)])
    def test_multi_equals_dense_replicate_kernel(self, m0, m1):
        """The batch walk gives the one-replicate dense log-sum-exp."""
        res = run_largescale(m0, m1, seed=SEED, pi_values=(1.0, 0.01, 0.3))
        x = res["z"]
        logm0 = -0.5 * (x * x + math.log(2.0 * math.pi))
        for pi, got in res["multi_ebf10_log"].items():
            want = replicate_mixture_log_marginals(x[None], x[None], 1.0, pi, -0.5)[0]
            np.testing.assert_allclose(got, want - logm0, rtol=1e-12, atol=1e-12)

    def test_memory_stays_within_tiles(self):
        """m = 3000: the dense kernel's m x m arrays took about 275 MB."""
        tracemalloc.start()
        try:
            run_largescale(2900, 100, seed=SEED)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak_mb < 16.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            run_largescale(0, 0)

    def test_rejects_empty_pi_values(self):
        with pytest.raises(DomainError, match="^pi_values needs at least one"):
            run_largescale(9, 1, pi_values=())

    @pytest.mark.parametrize("pi_h", [0.0, 1.5, np.nan, np.inf])
    def test_rejects_bad_pi_h(self, pi_h):
        with pytest.raises(DomainError, match=r"pi_h must lie in \(0, 1\]"):
            run_largescale(9, 1, pi_values=(1.0, pi_h))


class TestSensitivity:
    def test_null_probabilities(self):
        rows = sensitivity_curves(1000, [0.0])
        assert rows[0]["p_ebf_favours_h0_null"] == pytest.approx(0.807, abs=5e-4)
        assert rows[0]["p_ebf_favours_h1"] == pytest.approx(0.193, abs=5e-4)

    def test_both_consistent_for_strong_signals(self):
        rows = sensitivity_curves(1000, [1.0])
        assert rows[0]["p_ebf_favours_h1"] == pytest.approx(1.0, abs=1e-6)
        assert rows[0]["p_ui_favours_h1"] == pytest.approx(1.0, abs=1e-6)

    def test_ebf_more_sensitive_than_unit_information(self):
        rows = sensitivity_curves(1000, np.linspace(0.0, 0.2, 9))
        for row in rows:
            assert row["p_ebf_favours_h1"] >= row["p_ui_favours_h1"]

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            sensitivity_curves(0, [0.1])

    @pytest.mark.parametrize("ratio", [np.nan, np.inf])
    def test_rejects_nonfinite_mean(self, ratio):
        with pytest.raises(DomainError, match="finite ncp"):
            sensitivity_curves(10, [ratio])
