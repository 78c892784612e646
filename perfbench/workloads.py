"""The four op lists: seeded inputs, the timed op, and its output check.

cli-oneshot and multi-batch are the timed workloads of BENCHMARK.json.
bias-cold and simulate run in the traced run, which covers every list, and
can be timed by hand; they are left out of BENCHMARK.json because on a
2-core machine with a noisy neighbour bias-cold's few, second-long studies
spread past the latency bound, and the time budget gives the two steadiest
workloads long runs instead.

Every op is built from its own generator keyed by (seed, list, index), so
the same seed gives the same inputs however many ops a run reaches.  An op
has ``run`` (the timed call, returning the program's output) and ``check``
(run outside the timed region; raises ``CheckFailed`` on a wrong output).

Op kinds follow a fixed cycle per workload.  Most ops of a cycle fall in
one latency band, so that the median and the tail percentile land inside it
whatever the seed; the other kinds sit below or above it.  The parameters that set an op's cost (degrees of freedom, trials, batch size)
come from a seed-shifted Weyl sequence ``u`` instead of independent draws,
so each run spreads them evenly over the same range and the cost profile
of a run does not hinge on a few unlucky draws.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as ref
from oracles import close, require

from ebfkit import count_ebf, f_ebf, multitest, normal_ebf, simharness, t_ebf
from ebfkit.core import HypothesisRegion

WEYL_STEPS = np.array([(math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0])

# op lists drawn from separate streams: the timed run, the traced run, and
# the untraced comparison list the tracing overhead is measured against
TIMED, TRACED, COMPARE = 0, 1, 2


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cleanup: Callable[[], None] = lambda: None


@dataclass
class Workload:
    name: str
    setup_code: str          # what a fresh process imports before its first op
    cycle: tuple             # op kinds of the timed run, repeated
    trace_kinds: tuple       # fixed op list of the traced run
    mix_period: int          # ops after which the cost mix of the cycle repeats
    make: Callable           # (kind, rng, ctx, u) -> Op

    def ops(self, seed, stream, kinds, ctx):
        """Ops of a kind list repeated forever."""
        offset = np.random.default_rng([seed, stream, 1 << 32]).uniform(size=2)
        for i in itertools.count():
            u = (offset + i * WEYL_STEPS) % 1.0
            yield self.make(kinds[i % len(kinds)], np.random.default_rng([seed, stream, i]),
                            ctx, u)


def region(kind, a=None, b=None):
    if kind == "full":
        return HypothesisRegion.full()
    if kind == "interval":
        return HypothesisRegion.interval(a, b)
    return HypothesisRegion(kind, float(a))


def as_tuple(h: HypothesisRegion):
    return (h.kind, h.a, h.b)


def region_text(h: HypothesisRegion):
    if h.kind == "full":
        return "full"
    if h.kind == "interval":
        return f"interval:{h.a!r},{h.b!r}"
    return f"{h.kind}:{h.a!r}"


# ======================================================================
# cli-oneshot: one fresh `python -m ebfkit.cli ...` process per op
# ======================================================================

class CliFailed(Exception):
    def __init__(self, code, stderr):
        tail = stderr.strip().splitlines()[-1:] or [""]
        super().__init__(f"exit {code}: {tail[0]}")
        self.label = f"CliExit{code}"


def run_cli(ctx, argv):
    proc = subprocess.run([sys.executable, "-m", "ebfkit.cli", *argv],
                          env=ctx["env"], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise CliFailed(proc.returncode, proc.stderr)
    return json.loads(proc.stdout)["records"]


def _one(records):
    require("expected one record", len(records) == 1)
    return records[0]


def _write_lines(ctx, name, header, rows):
    path = os.path.join(ctx["workdir"], name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return path


def _remove(path):
    return lambda: os.path.exists(path) and os.remove(path)


def make_cli(kind, rng, ctx, u):
    cli = lambda argv: (lambda: run_cli(ctx, argv))  # noqa: E731
    z = float(rng.normal(0.0, 2.0))
    if kind == "normal-2":
        return Op(kind, cli(["normal", "--z", repr(z)]),
                  lambda r: close(kind, _one(r)["ebf01_log"], ref.normal_two_sided(z)))
    if kind == "normal-1":
        possible = bool(rng.integers(2))
        argv = ["normal", "--z", repr(z), "--sides", "1"]
        if not possible:
            argv.append("--negative-impossible")
        return Op(kind, cli(argv),
                  lambda r: close(kind, _one(r)["ebf01_log"],
                                  ref.normal_one_sided(z, possible), 1e-8, 1e-8))
    if kind == "normal-dir":
        return Op(kind, cli(["normal", "--z", repr(z), "--directional"]),
                  lambda r: close(kind, _one(r)["ebf01_log"], ref.normal_directional(z),
                                  1e-8, 1e-8))
    if kind == "normal-regions":
        sigma = float(np.exp(rng.normal(0.0, 0.5)))
        c = float(rng.normal(0.0, 1.0))
        x = c + sigma * float(rng.normal(0.0, 2.0))
        pairs = [(region("below", c), region("above", c)),
                 (region("point", c), region("full")),
                 (region("interval", c - sigma, c + sigma), region("full"))]
        h0, h1 = pairs[int(rng.integers(len(pairs)))]
        argv = ["normal", "--x", repr(x), "--sigma", repr(sigma),
                "--h0", region_text(h0), "--h1", region_text(h1)]
        return Op(kind, cli(argv),
                  lambda r: close(kind, _one(r)["ebf01_log"],
                                  ref.normal_regions(x, sigma, as_tuple(h0), as_tuple(h1)),
                                  1e-8, 1e-8))
    if kind == "normal-chi2":
        d = int(rng.integers(1, 6))
        z2 = float(rng.chisquare(d) * rng.uniform(0.5, 3.0))
        return Op(kind, cli(["normal", "--chi2", repr(z2), "--dim", str(d)]),
                  lambda r: close(kind, _one(r)["ebf01_log"], ref.normal_chi_squared(z2, d)))
    if kind == "pvalue":
        p = float(rng.uniform(0.0, 1.0) ** 3)
        return Op(kind, cli(["pvalue", "--p", repr(p)]),
                  lambda r: close(kind, _one(r)["ebf01_log"], ref.pvalue_ebf01_log(p)))
    if kind == "pvalue-file":
        ps = rng.uniform(0.0, 1.0, 3000) ** 2
        ps = np.clip(ps, 1e-12, 1.0 - 1e-12)
        path = _write_lines(ctx, f"p-{rng.integers(1 << 40)}.csv", ["p"],
                            [[repr(float(p))] for p in ps])

        def check(records):
            require("one record per P-value", len(records) == ps.size)
            close("pvalue file p", [r["p"] for r in records], ps, 0.0, 0.0)
            close(kind, [r["ebf01_log"] for r in records], ref.pvalue_ebf01_log(ps))
        return Op(kind, cli(["pvalue", "--input", path]), check, _remove(path))
    if kind in ("binom", "negbinom", "binom-average"):
        # the negative-binomial bias costs time and memory by x alone; x = 1
        # keeps these ops in the latency band of the others, and the seed
        # draws the trials
        if kind == "negbinom":
            x = 1
            n = x + int(rng.geometric(0.3)) - 1
        elif kind == "binom-average":  # one success, sampling scheme unknown
            x = 1
            n = x + int(rng.integers(1, 20))
        else:
            n = int(rng.integers(5, 31))
            x = int(rng.binomial(n, rng.uniform(0.2, 0.8)))
        p0 = float(np.round(rng.uniform(0.3, 0.7), 3))
        model = {"binom": "binomial", "negbinom": "negbinom",
                 "binom-average": "average"}[kind]
        argv = ["binom", "--x", str(x), "--n", str(n), "--model", model,
                "--h0", f"point:{p0!r}", "--h1", "full"]
        return Op(kind, cli(argv), lambda r: _check_counts(kind, x, n, p0, _one(r)))
    if kind == "calibrate":
        return Op(kind, cli(["calibrate"]), ref.calibration_rows_check)
    if kind == "curve":
        pmin = float(10 ** rng.uniform(-6, -3))
        points = int(rng.integers(20, 80))
        return Op(kind, cli(["curve", "--pmin", repr(pmin), "--points", str(points)]),
                  ref.curve_rows_check)
    if kind == "bias-normal":
        d1, d2 = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        return Op(kind, cli(["bias", "--family", "normal", "--d1", str(d1), "--d2", str(d2)]),
                  lambda r: close(kind, _one(r)["value"], (d1 + 2.0 * d2) / 4.0))
    if kind == "bias-pvalue":
        beta = float(rng.uniform(1.2, 40.0))

        def check(records):
            rec = _one(records)
            # nearly flat in the shape, close to the default log(5/2)
            require(f"pvalue bias {rec['value']} outside [0.8, 1.0]",
                    0.8 <= rec["value"] <= 1.0)
            require("pvalue bias error above 0.02", rec["achieved_error"] <= 0.02)
        return Op(kind, cli(["bias", "--family", "pvalue", "--beta", repr(beta)]), check)
    if kind in ("multi", "multi-1"):
        m = 1 if kind == "multi-1" else int(rng.integers(50, 200))
        est, se, pi_h = _draw_batch(rng, m)
        h0, h1 = _pick_pair(rng)
        path = _write_lines(ctx, f"multi-{rng.integers(1 << 40)}.csv", ["id", "estimate", "se"],
                            [[f"t{i}", repr(float(e)), repr(float(s))]
                             for i, (e, s) in enumerate(zip(est, se))])
        argv = ["multi", "--input", path, "--pi-h", repr(pi_h), "--h0", region_text(h0),
                "--h1", region_text(h1), "--ranked"]
        batch = multitest.MultiTestBatch.from_arrays(est, se, h0, h1, pi_h=pi_h)

        def check(records):
            require("one record per test", len(records) == m)
            got = np.array([r["ebf01_log"] for r in records])
            if m == 1:
                close("m=1 multi equals single", got[0], records[0]["single_ebf01_log"],
                      1e-10, 1e-10)
            _check_rows(kind, batch, got, rng)
            ranks = sorted(r["rank"] for r in records)
            require("ranks are 1..m", ranks == list(range(1, m + 1)))
        return Op(kind, cli(argv), check, _remove(path))
    raise ValueError(kind)


def _check_counts(kind, x, n, p0, rec):
    h0, h1 = ("point", p0, None), ("full", None, None)
    if kind == "binom-average":
        # the model average is a mediant of the two single-model factors
        data_b = count_ebf.CountData(x, n, count_ebf.BINOMIAL)
        data_nb = count_ebf.CountData(x, n, count_ebf.NEGATIVE_BINOMIAL)
        single = [count_ebf.ebf_count(d, region(*h0), region(*h1)).ebf01_log
                  for d in (data_b, data_nb)]
        lo, hi = min(single), max(single)
        require(f"{kind}: {rec['ebf01_log']} outside [{lo}, {hi}]",
                lo - 1e-9 <= rec["ebf01_log"] <= hi + 1e-9)
        return
    model = "binomial" if kind == "binom" else "negbinom"
    bias = rec["bias_h1"]["value"]
    if model == "binomial":
        close(f"{kind} bias", bias, ref.binom_full_bias(n), 1e-8, 1e-8)
    else:
        require(f"{kind} bias {bias} outside (0, 1)", 0.0 < bias < 1.0)
        require(f"{kind} bias error", rec["bias_h1"]["achieved_error"] <= 1e-3)
    want = (ref.count_log_marginal(x, n, model, 1.0, h0)
            - (ref.count_log_marginal(x, n, model, 1.0, h1) - bias))
    close(kind, rec["ebf01_log"], want, 1e-8, 1e-8)


CLI_ONESHOT = Workload(
    name="cli-oneshot",
    setup_code="import ebfkit.cli",
    # the kinds whose child processes peak highest in memory come early, so
    # every run reaches them
    cycle=("normal-2", "pvalue", "bias-pvalue", "binom", "normal-1", "calibrate", "multi",
           "normal-dir", "pvalue-file", "bias-normal", "binom-average", "normal-regions",
           "negbinom", "curve", "normal-chi2", "multi-1"),
    trace_kinds=("normal-2", "pvalue", "binom", "calibrate", "multi", "pvalue-file",
                 "bias-normal", "curve", "bias-pvalue"),
    mix_period=16,
    make=make_cli,
)


# ======================================================================
# bias-cold: bias computations at parameters the process has not seen
# ======================================================================

HITS_PER_STUDY = 3


def make_bias(kind, rng, ctx, u):
    pair = int(rng.integers(3))
    if kind == "t":
        df = float(8.0 * 5.0 ** u[0])  # Welch-style non-integer df in [8, 40]
        ts = rng.standard_t(df, HITS_PER_STUDY + 1) + rng.normal(0.0, 2.0)
        h0, h1 = [(region("point", 0.0), region("full")),
                  (region("point", 0.0), region("above", 0.0)),
                  (region("below", 0.0), region("above", 0.0))][pair]

        def run():
            return [t_ebf.ebf_t(float(t), df, h0, h1) for t in ts]

        def check(reports):
            bias = t_ebf.t_expected_bias(df)
            require(f"t bias {bias.value} outside [1/2, 2 log 2]",
                    ref.T_BIAS_RANGE[0] <= bias.value <= ref.T_BIAS_RANGE[1])
            for t, rep in zip(ts, reports):
                for b in (rep.bias_h0, rep.bias_h1):
                    require(f"t achieved_error {b.achieved_error} above 1e-3",
                            b.achieved_error <= 1e-3)
                close("t swap", t_ebf.ebf_t(float(t), df, h1, h0).ebf01_log,
                      -rep.ebf01_log, 1e-12, 1e-12)
                if h1.kind == "full":
                    close("t point/full", rep.ebf01_log,
                          ref.t_point_full(float(t), df, bias.value), 1e-8, 1e-8)
        return Op(kind, run, check)
    if kind == "f":
        df1, df2 = float(2.0 + 4.0 * u[0]), float(10.0 * 4.0 ** u[1])
        xs = np.exp(rng.normal(0.3, 0.7, HITS_PER_STUDY + 1))
        use_anova = pair == 1
        h0, h1 = [(region("point", 1.0), region("full")),
                  (region("point", 1.0), region("below", 1.0)),
                  (region("full"), region("below", 1.0))][pair]

        def run():
            if use_anova:
                return [f_ebf.ebf_anova(float(x), df1, df2) for x in xs]
            return [f_ebf.ebf_f(float(x), df1, df2, h0, h1) for x in xs]

        def check(reports):
            bias = f_ebf.f_expected_bias(df1, df2)
            require("F bias must be positive", bias.value > 0.0)
            require(f"F achieved_error {bias.achieved_error} above 1e-3",
                    bias.achieved_error <= 1e-3)
            for x, rep in zip(xs, reports):
                close("F swap", f_ebf.ebf_f(float(x), df1, df2, h1, h0).ebf01_log,
                      -rep.ebf01_log, 1e-12, 1e-12)
                if h1.kind == "full":
                    close("F point/full", rep.ebf01_log,
                          ref.f_point_full(float(x), df1, df2, bias.value), 1e-8, 1e-8)
        return Op(kind, run, check)
    if kind in ("binom-1000", "binom-500"):
        # Half-line regions underflow the Beta mass beyond n ~ 537 (a known
        # defect), so they are studied at n = 500 and the full line at 1000.
        # The bias costs n^2 per region and this path has no cache, so n is
        # fixed, and the n = 500 study holds 6 tests so that both kinds take
        # about the same time.
        n = int(kind.split("-")[1])
        if n == 1000:
            h0, h1 = region("point", 0.5), region("full")
            tests = HITS_PER_STUDY + 1
        else:
            h0, h1 = [(region("point", 0.5), region("above", 0.5)),
                      (region("below", 0.5), region("above", 0.5))][pair % 2]
            tests = 6
        xs = rng.binomial(n, rng.uniform(0.3, 0.7), tests)
        datas = [count_ebf.CountData(int(x), n) for x in xs]

        def run():
            return [count_ebf.ebf_count(d, h0, h1) for d in datas]

        def check(reports):
            for d, rep in zip(datas, reports):
                b0, b1 = rep.bias_h0.value, rep.bias_h1.value
                require(f"binomial bias {b0}, {b1} outside [0, 1/2]",
                        all(0.0 <= b <= 0.5 for b in (b0, b1)))
                want = ((ref.count_log_marginal(d.successes, n, "binomial", 1.0, as_tuple(h0))
                         - b0)
                        - (ref.count_log_marginal(d.successes, n, "binomial", 1.0,
                                                  as_tuple(h1)) - b1))
                close("binomial marginals", rep.ebf01_log, want, 1e-8, 1e-8)
        return Op(kind, run, check)
    if kind == "negbinom":
        # The series' cost jumps with x (and with alpha for x > 1); at x = 1 it
        # is steady, and a fresh prior shape alpha >= 1 makes every study a
        # cache miss (alpha < 1 can fail to converge).
        x = 1
        alpha = float(1.0 + u[0])
        ns = x + rng.geometric(rng.uniform(0.2, 0.6), HITS_PER_STUDY + 1) - 1
        datas = [count_ebf.CountData(x, int(n), count_ebf.NEGATIVE_BINOMIAL, alpha) for n in ns]
        h0, h1 = region("point", 0.5), region("full")

        def run():
            return [count_ebf.ebf_count(d, h0, h1) for d in datas]

        def check(reports):
            for d, rep in zip(datas, reports):
                b = rep.bias_h1
                require(f"negbinom bias {b.value} outside (0, 1)", 0.0 < b.value < 1.0)
                require("negbinom achieved_error above 1e-3", b.achieved_error <= 1e-3)
                want = (ref.count_log_marginal(x, d.trials, "negbinom", alpha, as_tuple(h0))
                        - (ref.count_log_marginal(x, d.trials, "negbinom", alpha,
                                                  as_tuple(h1)) - b.value))
                close("negbinom marginals", rep.ebf01_log, want, 1e-8, 1e-8)
        return Op(kind, run, check)
    raise ValueError(kind)


BIAS_COLD = Workload(
    name="bias-cold",
    setup_code="import ebfkit.t_ebf, ebfkit.f_ebf, ebfkit.count_ebf",
    cycle=("f", "binom-1000", "f", "t", "negbinom", "f", "binom-500", "f", "t", "negbinom"),
    trace_kinds=("t", "f", "binom-1000", "negbinom", "t", "f", "binom-500"),
    mix_period=5,  # the cycle holds two copies of one 5-op cost mix
    make=make_bias,
)


# ======================================================================
# multi-batch: the O(m^2) mixture kernel on one large batch per op
# ======================================================================

def _draw_batch(rng, m):
    """Log-normal standard errors; a fifth of batches are signal-rich."""
    se = np.exp(rng.normal(0.0, 0.4, m))
    signal_frac = 0.2 if rng.uniform() < 0.2 else 0.05
    mu = np.where(rng.uniform(size=m) < signal_frac, rng.normal(0.0, 3.0, m), 0.0)
    est = mu + se * rng.standard_normal(m)
    return est, se, float(rng.choice([1.0, 0.1]))


def _pick_pair(rng):
    return [(region("point", 0.0), region("full")),
            (region("below", 0.0), region("above", 0.0)),
            (region("interval", -0.5, 0.5), region("full"))][int(rng.integers(3))]


ROWS_CHECKED = 2


def _check_rows(label, batch, got, rng):
    rows = rng.choice(batch.size, size=min(ROWS_CHECKED, batch.size), replace=False)
    for i in rows:
        want = (ref.mixture_log_marginal_row(batch, int(i), as_tuple(batch.h0),
                                             multitest.cross_marginal)
                - ref.mixture_log_marginal_row(batch, int(i), as_tuple(batch.h1),
                                               multitest.cross_marginal))
        close(f"{label} row {i}", got[i], want, 1e-8, 1e-8)


# (m, region pair) per kind; "typical" is the band the median and tail sit in
MULTI_KINDS = {
    "typical": (1000, "below/above"),
    "small-full": (300, "point/full"),
    "small-interval": (500, "interval/full"),
    "large-full": (4000, "point/full"),
    "large-interval": (2000, "interval/full"),
}
_PAIRS = {"point/full": (region("point", 0.0), region("full")),
          "below/above": (region("below", 0.0), region("above", 0.0)),
          "interval/full": (region("interval", -0.5, 0.5), region("full"))}


def make_multi(kind, rng, ctx, u):
    m, pair = MULTI_KINDS[kind]
    est, se, pi_h = _draw_batch(rng, m)
    h0, h1 = _PAIRS[pair]

    def run():
        batch = multitest.MultiTestBatch.from_arrays(est, se, h0, h1, pi_h=pi_h)
        reports = multitest.multi_ebf(batch)
        ranked = multitest.ranked_summary(reports)
        singles = [normal_ebf.ebf_interval(batch.estimates[i], batch.standard_errors[i],
                                           h0, h1) for i in range(batch.size)]
        return batch, reports, ranked, singles

    def check(out):
        batch, reports, ranked, singles = out
        got = np.array([r.ebf01_log for r in reports])
        require("finite factors", bool(np.all(np.isfinite(got))))
        _check_rows(kind, batch, got, rng)
        require("ranked by evidence",
                bool(np.all(np.diff([r["ebf10_log"] for r in ranked]) <= 0.0)))
        i = int(rng.integers(batch.size))
        close("single factor", singles[i].ebf01_log,
              ref.normal_regions(float(est[i]), float(se[i]), as_tuple(h0), as_tuple(h1)),
              1e-8, 1e-8)
        one = multitest.MultiTestBatch.from_arrays(est[i:i + 1], se[i:i + 1], h0, h1, pi_h)
        close("m=1 multi equals single", multitest.multi_ebf(one)[0].ebf01_log,
              singles[i].ebf01_log, 1e-10, 1e-10)
    return Op(kind, run, check)


MULTI_BATCH = Workload(
    name="multi-batch",
    setup_code="import ebfkit.multitest, ebfkit.normal_ebf",
    # one heavy op in 32, so that the tail percentile (p92 at 140 ops) still
    # lands in the typical band; m = 4000 comes every cycle for the memory
    # peak, and the m = 2000 interval batch runs in the traced list
    cycle=("typical", "small-full", "typical", "typical", "large-full")
    + ("typical",) * 12 + ("small-interval",) + ("typical",) * 14,
    trace_kinds=("typical", "small-full", "small-interval", "large-full", "large-interval"),
    mix_period=32,
    make=make_multi,
)


# ======================================================================
# simulate: many small m x m blocks stacked over replicates
# ======================================================================

def _sim_reference(spec, metric):
    """The bias or MSE cell recomputed from the keyed streams."""
    eta = 1.0 / math.sqrt(spec.n)
    r, m = spec.replicates, spec.m
    if spec.scenario == 1:
        means = np.zeros((r, m))
    elif spec.scenario == 2:
        means = spec.stream(0).standard_normal((r, m))
    else:
        means = np.broadcast_to(np.linspace(-5.0, 5.0, m), (r, m)).copy()
    x = means + eta * spec.stream(1).standard_normal((r, m))
    y = means + eta * spec.stream(2).standard_normal((r, m))
    var = eta * eta
    mix = lambda c, w: ref.replicate_mixture(x, c, var, spec.pi_h, w)  # noqa: E731
    per_rep = lambda v: v.reshape(r, -1).mean(axis=1).mean()  # noqa: E731
    if metric == "bias":
        return {"unadjusted_bias": per_rep(mix(x, 0.0) - mix(y, 0.0)),
                "adjusted_bias": per_rep(mix(x, -0.5) - mix(y, 0.0))}
    single = (x - y) ** 2 / (4.0 * var) - 0.5
    return {"single_mse": per_rep(single ** 2),
            "multiple_mse": per_rep((mix(x, -0.5) - mix(y, 0.0)) ** 2)}


def make_sim(kind, rng, ctx, u):
    seed = int(rng.integers(1 << 31))
    if kind in ("bias", "mse"):
        spec = simharness.ScenarioSpec(1 + int(3 * u[1]), 5 + int(26 * u[0]),
                                       n=int(rng.integers(20, 200)), seed=seed,
                                       pi_h=float(rng.choice([1.0, 0.1])))
        run_fn = (simharness.run_bias_experiment if kind == "bias"
                  else simharness.run_mse_experiment)

        def check(out):
            want = _sim_reference(spec, kind)
            for key, value in want.items():
                close(f"simulate {kind} {key}", out[key], value, 1e-9, 1e-9)
        return Op(kind, lambda: run_fn(spec), check)
    if kind == "largescale":
        m1 = 50 + int(100 * u[0])
        m0 = 1000 - m1

        def check(out):
            x = out["z"]
            close("largescale single", out["single_ebf10_log"],
                  -ref.normal_two_sided(x), 1e-10, 1e-10)
            for pi, vals in out["multi_ebf10_log"].items():
                logm1 = ref.replicate_mixture(x[None, :], x[None, :], 1.0, pi, -0.5)[0]
                logm0 = -0.5 * (x * x + ref.LOG_2PI)
                close(f"largescale multi pi={pi}", vals, logm1 - logm0, 1e-9, 1e-9)
        return Op(kind, lambda: simharness.run_largescale(m0, m1, seed=seed), check)
    if kind == "sensitivity":
        from scipy.special import chndtr
        n = int(rng.integers(20, 500))
        grid = np.linspace(0.0, float(rng.uniform(0.1, 0.4)), int(rng.integers(20, 60)))

        def check(rows):
            ncp = n * grid ** 2
            close("sensitivity ebf", [r["p_ebf_favours_h1"] for r in rows],
                  1.0 - chndtr(1.0 + ref.LOG2, 1, ncp), 1e-7, 1e-7)
            ui = (n + 1.0) * math.log(n + 1.0) / n
            close("sensitivity ui", [r["p_ui_favours_h1"] for r in rows],
                  1.0 - chndtr(ui, 1, ncp), 1e-7, 1e-7)
        return Op(kind, lambda: simharness.sensitivity_curves(n, grid), check)
    raise ValueError(kind)


SIMULATE = Workload(
    name="simulate",
    setup_code="import ebfkit.simharness",
    cycle=("bias", "mse", "largescale", "bias", "mse", "sensitivity"),
    trace_kinds=("bias", "mse", "largescale", "sensitivity", "bias", "mse"),
    mix_period=6,
    make=make_sim,
)

WORKLOADS = {w.name: w for w in (CLI_ONESHOT, BIAS_COLD, MULTI_BATCH, SIMULATE)}
