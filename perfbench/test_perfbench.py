"""Tests of the benchmark itself: its parsers, span arithmetic and reference
formulas, and the two shares the traced run is meant to show.

    python -m pytest perfbench
"""

import itertools
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import oracles as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, instrument  # noqa: E402

from ebfkit import count_ebf, f_ebf, multitest, normal_ebf, pvalue_ebf, t_ebf  # noqa: E402
from ebfkit.core import HypothesisRegion  # noqa: E402

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       864 |        864 |       ebfkit.exceptions
import time:      2081 |      97303 |           numpy
import time:       939 |     790015 |   ebfkit
import time:      5858 |     799001 | ebfkit.cli
"""


def test_parse_importtime_reads_cumulative_seconds():
    got = layers.parse_importtime(IMPORTTIME)
    assert got == {"ebfkit.exceptions": 864 / 1e6, "numpy": 97303 / 1e6,
                   "ebfkit": 790015 / 1e6, "ebfkit.cli": 799001 / 1e6}


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.spans = [Span("op", 0.0, 10.0, None, "a"), Span("bias", 1.0, 7.0, 0, "a"),
                 Span("quad", 2.0, 5.0, 1, "a"), Span("emit", 8.0, 9.0, 0, "a")]
    got = rec.self_times()
    assert got["op"]["self_s"] == 3.0
    assert got["bias"]["self_s"] == 3.0
    assert got["quad"]["self_s"] == 3.0 and got["emit"]["total_s"] == 1.0
    assert rec.has_descendant(0, lambda s: s.name == "quad")
    assert not rec.has_descendant(3, lambda s: True)


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0  # fewer than 11: the smallest


def test_instrument_restores_every_target():
    before = {(id(owner), attr): vars(owner)[attr]
              for owner, attr, *_ in layers.targets()}
    rec = Recorder()
    with instrument(rec, layers.targets()):
        batch = multitest.MultiTestBatch.from_arrays([0.1, 2.0], [1.0, 1.0],
                                                     HypothesisRegion.point(0.0),
                                                     HypothesisRegion.full())
        multitest.multi_ebf(batch)
        with rec.paused():
            normal_ebf.ebf_two_sided(1.0)
    names = [s.name for s in rec.spans]
    assert names == ["multitest.from_arrays", "multitest.multi_ebf.full",
                     "kernels.mixture_log_marginals.point",
                     "kernels.mixture_log_marginals.full"]
    after = {(id(owner), attr): vars(owner)[attr] for owner, attr, *_ in layers.targets()}
    assert after == before


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in spec["per_layer"])
    # bias-cold's and simulate's op lists run in the traced run only
    assert {w["name"] for w in spec["workloads"]} == {"cli-oneshot", "multi-batch"}
    assert set(workloads.WORKLOADS) == {"cli-oneshot", "multi-batch", "bias-cold", "simulate"}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "latency_p50_s", "latency_tail_s", "throughput_ops_s", "peak_rss_mb",
        "ok_frac"]


def test_oracles_agree_with_the_library():
    point0, full = HypothesisRegion.point(0.0), HypothesisRegion.full()
    below, above = HypothesisRegion.below(0.3), HypothesisRegion.above(0.3)
    for z in (-3.1, 0.2, 2.5):
        assert abs(normal_ebf.ebf_two_sided(z).ebf01_log - ref.normal_two_sided(z)) < 1e-12
        got = normal_ebf.ebf_interval(z, 1.7, below, above).ebf01_log
        want = ref.normal_regions(z, 1.7, ("below", 0.3, None), ("above", 0.3, None))
        assert abs(got - want) < 1e-9
    for p in (1e-6, 0.04, 0.7):
        assert abs(pvalue_ebf.ebf_pvalue(p).ebf01_log - ref.pvalue_ebf01_log(p)) < 1e-12
    assert abs(count_ebf.binom_expected_bias(12).value - ref.binom_full_bias(12)) < 1e-10
    bias = t_ebf.t_expected_bias(250.0).value  # closed form, no quadrature
    assert abs(t_ebf.ebf_t(1.9, 250.0, point0, full).ebf01_log
               - ref.t_point_full(1.9, 250.0, bias)) < 1e-9


def test_same_seed_same_inputs():
    ctx = {"env": dict(os.environ), "workdir": str(ROOT)}
    w = workloads.WORKLOADS["simulate"]
    first = [op.kind for op in itertools.islice(w.ops(7, workloads.TIMED, w.cycle, ctx), 8)]
    assert first == list(w.cycle) + list(w.cycle[:2])
    a = next(w.ops(7, workloads.TIMED, w.cycle, ctx)).run()
    b = next(w.ops(7, workloads.TIMED, w.cycle, ctx)).run()
    assert a == b


def test_import_is_most_of_a_cli_op():
    env = run.child_env()
    imports = statistics.median(
        layers.importtime("import ebfkit.cli", env)["ebfkit.cli"] for _ in range(3))
    latency = statistics.median(layers.wall(
        [sys.executable, "-m", "ebfkit.cli", "normal", "--z", "1.5"], env) for _ in range(3))
    assert imports / latency > 0.5


def test_bias_miss_is_most_of_an_f_study():
    rec = Recorder()
    w = workloads.WORKLOADS["bias-cold"]
    op = next(w.ops(12345, workloads.TRACED, ("f",), {"env": None, "workdir": None}))
    with instrument(rec, layers.targets()):
        with rec.span("op.bias-cold.f"):
            op.run()
    study = rec.durations("op.bias-cold.f")[0]
    miss = sum(rec.durations("f_ebf.f_expected_bias.miss"))
    assert miss / study > 0.5
