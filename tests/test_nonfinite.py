"""NaN and +-inf raise DomainError at every public entry point.

One table covers the package's public names.  Each entry is a list of valid
calls with one numeric argument replaced by the slot ``X``; every call is
made with NaN, +inf and -inf in the slot, one slot at a time.  A name whose
numbers reach it only inside another public object (a region, a count, a
batch, a report) has no slot of its own, and its entry is empty.  Each
case raises while checking its arguments, before any bias is computed, so
the whole table runs in seconds.
"""

import math

import pytest

import ebfkit
from ebfkit import HypothesisRegion as H
from ebfkit.exceptions import DomainError

X = object()  # the argument that takes the non-finite value

BELOW, ABOVE, FULL = H.below(0.0), H.above(0.0), H.full()
LOW, HIGH = H.below(1.0), H.above(1.0)
ONE_HALF = H.below(0.5)


def _batch():
    return ebfkit.MultiTestBatch.from_arrays([0.5, -1.0], [1.0, 2.0], BELOW, ABOVE)


# public name -> calls, each a tuple of positional arguments
CALLS = {
    "EVIDENCE_BASE": [],  # a constant
    "BiasValue": [(X, "closed-form"), (0.1, "quadrature", X)],
    "EvidenceReport": [(X, "normal")],
    "HypothesisRegion": [("point", X), ("below", X), ("above", X),
                         ("interval", X, 1.0), ("interval", -1.0, X)],
    "LogMarginal": [(X, "normal"), (-1.0, "normal", X)],
    "make_report": [],  # two LogMarginals
    "bias_normal": [(X, 1), (1, X)],
    "deviance_criterion": [(X, 1), (-2.0, X)],
    "ebf_chi_squared": [(X, 1), (4.0, X)],
    "ebf_directional": [(X,)],
    "ebf_interval": [(X, 1.0, BELOW, ABOVE), (1.0, X, BELOW, ABOVE)],
    "ebf_one_sided": [(X,)],
    "ebf_two_sided": [(X,)],
    "normal_posterior_marginal": [(X, 1.0, ABOVE), (1.0, X, ABOVE)],
    "ebf_t": [(X, 10, BELOW, ABOVE), (2.0, X, BELOW, ABOVE)],
    "t_expected_bias": [(X,)],
    "t_posterior_marginal": [(X, 10, ABOVE), (2.0, X, ABOVE)],
    "CountData": [(X, 10), (3, X), (3, 10, "binomial", X), (3, 10, "negative-binomial", X)],
    "binom_expected_bias": [(X,), (10, ONE_HALF, X)],
    "binom_posterior_marginal": [],  # a CountData and a region
    "ebf_binom": [],
    "ebf_count": [],
    "ebf_negbinom": [],
    "model_average": [],  # LogMarginals
    "negbinom_expected_bias": [(X,), (3, ONE_HALF, X), (3, ONE_HALF, 1.0, X),
                               (3, ONE_HALF, 1.0, 1e-10, X),
                               (3, ONE_HALF, 1.0, 1e-10, 1e-6, X)],
    "negbinom_posterior_marginal": [],
    "ebf_anova": [(X, 4, 8), (2.0, X, 8), (2.0, 4, X)],
    "ebf_f": [(X, 4, 8, LOW, HIGH), (2.0, X, 8, LOW, HIGH), (2.0, 4, X, LOW, HIGH)],
    "f_expected_bias": [(X, 8), (4, X)],
    "f_posterior_marginal": [(X, 4, 8, HIGH), (2.0, X, 8, HIGH), (2.0, 4, X, HIGH)],
    "ebf_pvalue": [(X,)],
    "posterior_prob_h0": [(X,), (0.05, X)],
    "pvalue_expected_bias": [(X,), (2.0, X)],
    "pvalue_posterior_marginal": [(X,)],
    "MultiTestBatch": [((0, 1), [X, 1.0], [1.0, 1.0], BELOW, ABOVE),
                       ((0, 1), [0.0, 1.0], [1.0, X], BELOW, ABOVE),
                       ((0, 1), [0.0, 1.0], [1.0, 1.0], BELOW, ABOVE, X)],
    "cross_marginal": [(_batch(), X, 1, FULL), (_batch(), 0, X, FULL)],
    "multi_ebf": [],  # a MultiTestBatch
    "ranked_summary": [],  # EvidenceReports
    "brc": [(X,)],
    "calibration_curve": [([0.05, X],)],
    "calibration_table": [((1.0, X),)],
    "held_ott_bound": [(X,)],
    "p_for_units": [("normal-2-sided", X), ("chi2", 1.0, X), ("normal-2-sided", 1.0, X),
                    ("nonparametric", 1.0, X)],
    "sellke_bound": [(X,)],
    "unit_information_bf": [(X, 10), (1.0, X)],
    "units_of_evidence": [(X,)],
}


def _fill(arg, value):
    if arg is X:
        return value
    if isinstance(arg, (list, tuple)):
        return type(arg)(_fill(a, value) for a in arg)
    return arg


CASES = [pytest.param(name, k, value, id=f"{name}-{k}-{value}")
         for name, calls in CALLS.items() for k in range(len(calls))
         for value in (math.nan, math.inf, -math.inf)]


def test_table_covers_every_public_name():
    assert sorted(CALLS) == sorted(ebfkit.__all__)


@pytest.mark.parametrize("name, k, value", CASES)
def test_nonfinite_raises_domain_error(name, k, value):
    args = _fill(CALLS[name][k], value)
    with pytest.raises(DomainError):
        getattr(ebfkit, name)(*args)
