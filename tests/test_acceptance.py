"""Acceptance suite: one test (and one printed pass/fail line) per
criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
from scipy.special import ndtr
from scipy.stats import spearmanr

import ebfkit as e
from ebfkit import simharness
from ebfkit.core import HypothesisRegion
from ebfkit.numerics import RngStream, chi2_cdf

from test_normal_ebf import _oracle_log_marginal

SEED = 13  # fixed acceptance seed for the seeded criteria

POINT0 = HypothesisRegion.point(0.0)
FULL = HypothesisRegion.full()
LOG2 = math.log(2.0)

T_BIAS_TARGETS = {1: 1.39, 2: 0.860, 3: 0.710, 4: 0.644, 5: 0.608,
          6: 0.586, 7: 0.571, 8: 0.560, 9: 0.552, 10: 0.546}
BINOM_BIAS_TARGETS = [0.231, 0.316, 0.360, 0.387, 0.405, 0.418, 0.428, 0.436, 0.442, 0.447]
F_BIAS_TARGETS = {
    (1, 1): 0.609, (1, 5): 0.650, (1, 10): 0.670, (1, 20): 0.681, (1, 50): 0.688,
    (5, 1): 0.650, (5, 5): 0.527, (5, 10): 0.526, (5, 20): 0.534, (5, 50): 0.542,
    (10, 1): 0.670, (10, 5): 0.526, (10, 10): 0.513, (10, 20): 0.513, (10, 50): 0.518,
    (20, 1): 0.681, (20, 5): 0.534, (20, 10): 0.513, (20, 20): 0.506, (20, 50): 0.507,
    (50, 1): 0.688, (50, 5): 0.542, (50, 10): 0.518, (50, 20): 0.507, (50, 50): 0.503,
}
CALIBRATION_TARGETS = {
    1.0: (0.038, 0.049, 0.052, 0.027),
    2.0: (0.008, 0.013, 0.016, 0.007),
    3.0: (0.002, 0.004, 0.005, 0.002),
    4.0: (0.0005, 0.001, 0.001, 0.0005),
}


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nacceptance {criterion:>3}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_t_bias_table():
    """t bias for df = 1..10 within 0.01 and df = 30 within 0.005."""
    start = time.time()
    devs = {df: abs(e.t_expected_bias(df).value - target)
            for df, target in T_BIAS_TARGETS.items()}
    dev30 = abs(e.t_expected_bias(30).value - 0.513)
    elapsed = time.time() - start
    ok = max(devs.values()) <= 0.01 and dev30 <= 0.005
    report("1", ok, f"max dev {max(devs.values()):.2e}, df=30 dev {dev30:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_2_binomial_bias_table():
    """Binomial bias for n = 1..10 matches the targets to three decimals,
    in under a second."""
    start = time.time()
    devs = [abs(e.binom_expected_bias(n).value - BINOM_BIAS_TARGETS[n - 1])
            for n in range(1, 11)]
    elapsed = time.time() - start
    ok = max(devs) < 5e-4 and elapsed < 1.0
    report("2", ok, f"max dev {max(devs):.2e}, {elapsed:.3f}s")


def test_criterion_3_f_bias_table():
    """All 25 F bias values within 0.01; grid symmetric within 5e-3."""
    start = time.time()
    got = {k: e.f_expected_bias(*k).value for k in F_BIAS_TARGETS}
    devs = [abs(got[k] - target) for k, target in F_BIAS_TARGETS.items()]
    asym = max(abs(got[(a, b)] - got[(b, a)]) for (a, b) in F_BIAS_TARGETS)
    elapsed = time.time() - start
    ok = max(devs) <= 0.01 and asym <= 5e-3
    report("3", ok, f"max dev {max(devs):.2e}, asymmetry {asym:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_4_closed_form_oracle_equivalence():
    """The normal closed forms match direct quadrature of the defining
    region integrals to 1e-8 over z in [-6, 6] and d in {1, 2, 3, 5}."""
    zs = np.linspace(-6.0, 6.0, 9)
    worst = 0.0
    for z in zs:
        m_point = _oracle_log_marginal(z, 1.0, POINT0)
        m_full = _oracle_log_marginal(z, 1.0, FULL) - 0.5
        m_above = _oracle_log_marginal(z, 1.0, HypothesisRegion.above(0.0))
        m_below = _oracle_log_marginal(z, 1.0, HypothesisRegion.below(0.0))
        worst = max(
            worst,
            abs(e.ebf_two_sided(z).ebf01_log - (m_point - m_full)),
            abs(e.ebf_one_sided(z, True).ebf01_log - (m_point - m_above + 0.25)),
            abs(e.ebf_one_sided(z, False).ebf01_log - (m_point - m_above + 0.5)),
            abs(e.ebf_directional(z).ebf01_log - (m_below - m_above)),
        )
    for d in (1, 2, 3, 5):
        for z in (-6.0, -2.0, 1.0, 4.0, 6.0):
            log_m0 = sum(_oracle_log_marginal(v, 1.0, POINT0)
                         for v in [z] + [0.0] * (d - 1))
            log_m1 = sum(_oracle_log_marginal(v, 1.0, FULL)
                         for v in [z] + [0.0] * (d - 1)) - d / 2
            worst = max(worst, abs(e.ebf_chi_squared(z * z, d).ebf01_log
                                   - (log_m0 - log_m1)))
    ok = worst <= 1e-8
    report("4", ok, f"worst closed-form vs quadrature gap {worst:.2e}")


def test_criterion_5_nonparametric_anchors():
    """p = 0.05 factor, both comparator bounds, and the posterior
    probability at p = 0.005, all at their stated tolerances."""
    ebf = e.ebf_pvalue(0.05).ebf01
    checks = [
        abs(ebf / (1 / 2.05) - 1) <= 0.005,
        abs(e.sellke_bound(0.05) / (1 / 2.45) - 1) <= 0.005,
        abs(e.held_ott_bound(0.05) / (1 / 7.55) - 1) <= 0.005,
        abs(e.posterior_prob_h0(0.005) - 0.048) <= 0.001,
    ]
    ok = all(checks)
    report("5a", ok, f"ebf01(0.05)={ebf:.5f}, bounds and posterior "
                     f"checks={checks}")


def test_criterion_5_ten_p_rule_within_five_percent():
    """|EBF01/(10p) - 1| < 5% for p <= 0.1, as stated.

    KNOWN DEFECT of the stated bound: with the exact closed-form marginal
    the deviation at the right endpoint is 5.54% (it crosses 5% near
    p = 0.0905 and shrinks monotonically towards 0 as p -> 0), so this
    criterion cannot pass as written.  The failure is retained deliberately
    rather than loosening the tolerance; see the final assertion.
    """
    grid = np.geomspace(1e-8, 0.1, 400)
    dev = np.array([abs(e.ebf_pvalue(float(p)).ebf01 / (10 * p) - 1)
                    for p in grid])
    assert np.all(np.diff(dev[grid > 1e-6]) > 0)  # monotone towards small p
    below_009 = dev[grid <= 0.09]
    assert below_009.max() < 0.05  # the bound does hold up to 0.09
    ok = bool(dev.max() < 0.05)
    report("5b", ok, f"max |EBF/(10p)-1| on (0, 0.1] = {dev.max():.4f} "
                     f"(5% bound first exceeded near p = 0.0905)")


def test_criterion_6_units_calibration_table():
    """All sixteen calibration P-values at units 1..4 within 0.001."""
    worst = 0.0
    for units, (p_norm, p_c2, p_c3, p_np) in CALIBRATION_TARGETS.items():
        worst = max(
            worst,
            abs(e.p_for_units("normal-2-sided", units) - p_norm),
            abs(e.p_for_units("chi2", units, d=2) - p_c2),
            abs(e.p_for_units("chi2", units, d=3) - p_c3),
            abs(e.p_for_units("nonparametric", units) - p_np),
        )
    ok = worst <= 1e-3
    report("6", ok, f"worst calibration dev {worst:.2e}")


def test_criterion_7_case_studies():
    """Exercise-time trial and particle-discovery anchors."""
    two_sided = e.ebf_two_sided(1.281).ebf01
    stent = e.ebf_interval(16.6, 12.96, HypothesisRegion.below(30.0),
                           HypothesisRegion.above(30.0)).ebf01
    five_sigma = e.ebf_one_sided(5.0).ebf10
    against_expected = e.ebf_two_sided(5.0 - 5.8).ebf01
    checks = [
        abs(two_sided - 1.03) <= 0.01,
        abs(stent - 2.29) <= 0.01,
        abs(five_sigma / 1.48e5 - 1) <= 0.01,
        abs(against_expected - 1.69) <= 0.01,
    ]
    ok = all(checks)
    report("7", ok, f"1.03->{two_sided:.4f}  2.29->{stent:.4f}  "
                    f"1.48e5->{five_sigma:.5g}  1.69->{against_expected:.4f}")


def test_criterion_8_null_consistency_facts():
    """P(factor favours a true null) analytically and by Monte Carlo, plus
    the expected log factor."""
    analytic = chi2_cdf(1 + LOG2, 1)
    via_phi = 2 * ndtr(math.sqrt(1 + LOG2)) - 1
    z = RngStream(SEED, 0).standard_normal(1_000_000)
    log_ebf = 0.5 * LOG2 - 0.5 * (z * z - 1)
    mc_p = float(np.mean(log_ebf > 0))
    mc_mean = float(np.mean(log_ebf))
    # E log EBF01 = log sqrt(2) - (E chi2_1 - 1)/2 = (log 2)/2 exactly
    analytic_mean = 0.5 * LOG2
    checks = [
        abs(analytic - via_phi) <= 1e-6,
        round(analytic, 3) == 0.807,
        abs(mc_p - analytic) <= 0.005,
        abs(mc_mean - analytic_mean) <= 0.01,
    ]
    ok = all(checks)
    report("8", ok, f"analytic {analytic:.6f}, MC {mc_p:.6f}, "
                    f"E log: {analytic_mean:.6f} vs MC {mc_mean:.6f}")


def test_criterion_9_simulation_bias_and_mse_patterns():
    """Desk-scale seeded run: the single-test over-statement is 1/2 and the
    adjustment removes it in every scenario; sharing information cannot
    hurt, and helps when means agree."""
    problems = []
    for scenario in (1, 2, 3):
        r = simharness.run_bias_experiment(
            simharness.ScenarioSpec(scenario, 1, replicates=2000, seed=SEED))
        if abs(r["unadjusted_bias"] - 0.5) > 0.03:
            problems.append(f"scenario {scenario} m=1 raw {r['unadjusted_bias']:.3f}")
        if abs(r["adjusted_bias"]) > 0.03:
            problems.append(f"scenario {scenario} m=1 adj {r['adjusted_bias']:.3f}")
    seq = [simharness.run_bias_experiment(
        simharness.ScenarioSpec(1, m, replicates=2000, seed=SEED))["unadjusted_bias"]
        for m in range(1, 11)]
    if not all(a > b for a, b in zip(seq, seq[1:])):
        problems.append(f"scenario 1 bias not decreasing in m: {np.round(seq, 3)}")
    for scenario in (1, 2):
        for m in (2, 5, 10):
            r = simharness.run_mse_experiment(
                simharness.ScenarioSpec(scenario, m, replicates=2000, seed=SEED))
            slack = 3 * max(r["single_se"], r["multiple_se"])
            if r["multiple_mse"] > r["single_mse"] + slack:
                problems.append(f"scenario {scenario} m={m} multiple mse above single")
    for m in (2, 10):
        r = simharness.run_mse_experiment(
            simharness.ScenarioSpec(3, m, replicates=2000, seed=SEED))
        if abs(r["multiple_mse"] - r["single_mse"]) > 3 * (r["single_se"]
                                                           + r["multiple_se"]):
            problems.append(f"scenario 3 m={m} columns differ")
    ok = not problems
    report("9", ok, "; ".join(problems) or "bias ~0.5 -> ~0, patterns hold")


def test_criterion_10_largescale_dominance_and_pi_insensitivity():
    """Seeded 900 + 100 batch: the mixture factor's true-positive
    proportion dominates the single-test curve over thresholds covering the
    strongest 200 tests (up to one-test granularity), and the two mixture
    weights produce near-identical rankings."""
    res = simharness.run_largescale(900, 100, seed=SEED)
    sig = res["is_signal"]
    multi = res["multi_ebf10_log"][1.0]
    single = res["single_ebf10_log"]
    violations = []
    for t in res["thresholds"]:
        sel_m, sel_s = multi > t, single > t
        nm, ns = int(sel_m.sum()), int(sel_s.sum())
        if min(nm, ns) < 1:
            continue
        tpp_m = float(sig[sel_m].mean())
        tpp_s = float(sig[sel_s].mean())
        if tpp_m < tpp_s - 1.0 / min(nm, ns) - 1e-12:
            violations.append((float(t), tpp_m, tpp_s))
    both = (res["n_selected_multi"] >= 1) & (res["n_selected_single"] >= 1)
    mean_gap = float(np.mean(res["tpp_multi"][both] - res["tpp_single"][both]))
    rank_corr = float(spearmanr(multi, res["multi_ebf10_log"][0.01]).statistic)
    rank_gap = res["mean_rank_multi"] - res["mean_rank_single"]
    checks = [not violations, mean_gap > 0, rank_corr > 0.99, abs(rank_gap) < 5.0]
    ok = all(checks)
    report("10", ok, f"violations={len(violations)}, mean TPP gap {mean_gap:+.3f}, "
                     f"rank corr {rank_corr:.5f}, signal mean-rank gap {rank_gap:+.2f}")


def test_criterion_11_reduction_and_invariance_suite():
    """m = 1 mixture equals the single test to 1e-12; the two directions of
    every report multiply to one in log scale; directional antisymmetry;
    the t factor meets the normal factor at huge df."""
    problems = []
    for z in (-2.0, 0.0, 0.9, 3.5):
        for h0, h1, single in [
            (POINT0, FULL, e.ebf_two_sided(z).ebf01_log),
            (POINT0, HypothesisRegion.above(0.0), e.ebf_one_sided(z).ebf01_log),
            (HypothesisRegion.below(0.0), HypothesisRegion.above(0.0),
             e.ebf_directional(z).ebf01_log),
        ]:
            got = e.multi_ebf(e.MultiTestBatch.from_arrays(
                [z], [1.0], h0, h1))[0].ebf01_log
            if abs(got - single) > 1e-12:
                problems.append(f"m=1 reduction off by {abs(got - single):.2e}")
    reports = [e.ebf_two_sided(1.7), e.ebf_pvalue(0.02),
               e.ebf_t(1.0, 4, POINT0, FULL), e.ebf_anova(2.0, 3, 9)]
    for r in reports:
        if r.ebf10_log != -r.ebf01_log:
            problems.append("ebf01 * ebf10 != 1 in log scale")
    for z in np.linspace(-5, 5, 21):
        total = e.ebf_directional(z).ebf01_log + e.ebf_directional(-z).ebf01_log
        if abs(total) > 1e-10:
            problems.append(f"directional antisymmetry off by {abs(total):.2e}")
    for t in (0.0, 1.0, 2.5, 4.0):
        a = e.ebf_t(t, 1e4, POINT0, FULL).ebf01
        b = e.ebf_two_sided(t).ebf01
        if abs(a / b - 1) > 0.01:
            problems.append(f"t vs normal at df=1e4 off by {abs(a / b - 1):.2%}")
    ok = not problems
    report("11", ok, "; ".join(problems) or "all reductions hold")
