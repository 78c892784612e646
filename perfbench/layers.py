"""Per-layer measurements for the traced run.

Three sources feed the per-layer metrics:

* fresh interpreters: ``python -c pass`` and ``python -X importtime``;
* the spans the traced op lists record through ``spans.instrument``;
* fixed-shape probes: the three kernel shapes of
  ``benchmarks/bench_backends.py``, scalar call costs, in-process CLI
  calls, and tracemalloc peaks.

Layer names are module names; ``_kernels`` is written ``kernels`` because a
metric name must start with a letter or digit.  A ``_s`` or ``_us`` metric
is the median time of one call, except the per-region mixture kernel and
``multi_ebf`` times, which are totals over the traced op lists.  Cached
computations are split into ``.miss`` and ``.hit`` by whether the benchmark
already asked for that key in the process.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from ebfkit import (_kernels, calibration, cli, count_ebf, f_ebf, multitest, normal_ebf,
                    pvalue_ebf, simharness, t_ebf)
from ebfkit.core import HypothesisRegion
from ebfkit.numerics import RngStream

IMPORTED_MODULES = (
    "ebfkit", "ebfkit.cli", "ebfkit.numerics", "ebfkit.t_ebf", "ebfkit.f_ebf",
    "ebfkit.count_ebf", "ebfkit.multitest", "ebfkit.simharness", "ebfkit.calibration",
    "numpy", "scipy.special", "scipy.integrate", "scipy.interpolate", "scipy.optimize",
)
# scipy loads these through a lazy module __getattr__, which -X importtime
# does not log inside the CLI import; they are timed in a fresh process each
ISOLATED_IMPORTS = ("scipy.special", "scipy.integrate")

START_REPEATS = 5
IMPORT_REPEATS = 3

# every per-layer metric the traced run reports, in BENCHMARK.json's order
PER_LAYER = (
    "python.bare_start_s",
    *(f"import.{name}_s" for name in IMPORTED_MODULES),
    "cli.import_share", "cli.build_parser_s", "cli.main_s", "cli.emit_s",
    *(f"cli.main.{sub}_s" for sub in
      ("normal", "pvalue", "binom", "calibrate", "curve", "bias", "multi")),
    "pvalue_ebf.ebf_pvalue_us", "normal_ebf.ebf_two_sided_us", "normal_ebf.ebf_interval_us",
    "calibration.calibration_curve_s",
    "t_ebf.t_expected_bias.miss_s", "f_ebf.f_expected_bias.miss_s",
    "count_ebf.binom_expected_bias_s", "count_ebf.negbinom_expected_bias.miss_s",
    "t_ebf.t_expected_bias.miss_share_of_study", "f_ebf.f_expected_bias.miss_share_of_study",
    "t_ebf.ebf_t.hit_us", "f_ebf.ebf_f.hit_us", "f_ebf.ebf_anova.hit_us",
    "t_ebf.bias.misses", "t_ebf.bias.hits", "f_ebf.bias.misses", "f_ebf.bias.hits",
    "t_ebf.bias.achieved_error_max", "f_ebf.bias.achieved_error_max",
    "count_ebf.binom_expected_bias.peak_mb",
    "multitest.from_arrays_s", "multitest.multi_ebf.full_s", "multitest.multi_ebf.half-line_s",
    "multitest.multi_ebf.interval_s", "multitest.ranked_summary_s",
    *(f"kernels.mixture_log_marginals.{kind}_s"
      for kind in ("point", "full", "half-line", "interval")),
    "kernels.mixture.pairs", "kernels.mixture.pairs_per_s", "kernels.mixture.peak_mb",
    "kernels.bench.m2000_interval_s", "kernels.bench.m2000_full_s",
    "kernels.bench.replicate_400x10_s",
    "simharness.run_bias_experiment_s", "simharness.run_mse_experiment_s",
    "simharness.run_largescale_s", "simharness.sensitivity_curves_s",
    "kernels.replicate_mixture_log_marginals_s", "kernels.replicate.pairs",
    "kernels.replicate.pairs_per_s", "numerics.RngStream.standard_normal_s",
    "trace.overhead_frac",
)


def wall(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=170)
    return time.perf_counter() - start


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` stderr."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def importtime(code, env) -> dict[str, float]:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          check=True, capture_output=True, text=True, timeout=170)
    return parse_importtime(proc.stderr)


def start_and_import(env) -> dict[str, float]:
    metrics = {"python.bare_start_s": statistics.median(
        wall([sys.executable, "-c", "pass"], env) for _ in range(START_REPEATS))}
    samples = {name: [] for name in IMPORTED_MODULES}
    for _ in range(IMPORT_REPEATS):
        seen = importtime("import ebfkit.cli", env)
        for name in ISOLATED_IMPORTS:
            seen[name] = importtime(f"import {name}", env)[name]
        for name in IMPORTED_MODULES:
            samples[name].append(seen[name])
    for name, values in samples.items():
        metrics[f"import.{name}_s"] = statistics.median(values)
    return metrics


# ---------------------------------------------------------------- spans

def _kind_class(kind_code):
    return {_kernels.KIND_POINT: "point", _kernels.KIND_BELOW: "half-line",
            _kernels.KIND_ABOVE: "half-line", _kernels.KIND_INTERVAL: "interval",
            _kernels.KIND_FULL: "full"}[kind_code]


def _pair_class(batch):
    kinds = {batch.h0.kind, batch.h1.kind}
    if kinds & {"below", "above"}:
        return "half-line"
    return "interval" if "interval" in kinds else "full"


class _Seen:
    """Labels a cached computation miss or hit by whether the benchmark has
    already asked for its key in this process."""

    def __init__(self, key):
        self.key = key
        self.keys = set()

    def __call__(self, args, kwargs):
        key = self.key(args, kwargs)
        if key is None:
            return "closed"
        if key in self.keys:
            return "hit"
        self.keys.add(key)
        return "miss"


def _record_error(result, attrs):
    attrs["achieved_error"] = float(result.achieved_error)


def _mixture_label(args, kwargs):
    return _kind_class(args[2])


def targets():
    """Every public call boundary the traced run records."""
    def arg(i, name, default=None):
        return lambda args, kwargs: args[i] if len(args) > i else kwargs.get(name, default)

    t_df = arg(0, "df")
    f_dfs = lambda a, k: (float(a[0]), float(a[1]))  # noqa: E731
    nb_key = lambda a, k: (a[0], arg(1, "region")(a, k),  # noqa: E731
                           arg(2, "alpha", 1.0)(a, k))
    mix_m = lambda result, attrs: attrs.update(m=int(result.shape[0]))  # noqa: E731
    rep_shape = lambda result, attrs: attrs.update(  # noqa: E731
        pairs=int(result.shape[0]) * int(result.shape[1]) ** 2)
    return [
        (cli, "main", "cli.main", lambda a, k: arg(0, "argv")(a, k)[0], None),
        (cli, "build_parser", "cli.build_parser", None, None),
        (cli, "emit", "cli.emit", None, None),
        (pvalue_ebf, "ebf_pvalue", "pvalue_ebf.ebf_pvalue", None, None),
        (normal_ebf, "ebf_two_sided", "normal_ebf.ebf_two_sided", None, None),
        (normal_ebf, "ebf_interval", "normal_ebf.ebf_interval", None, None),
        (calibration, "calibration_curve", "calibration.calibration_curve", None, None),
        (t_ebf, "ebf_t", "t_ebf.ebf_t", None, None),
        (t_ebf, "t_expected_bias", "t_ebf.t_expected_bias",
         _Seen(lambda a, k: None if float(t_df(a, k)) > t_ebf.LARGE_DF_CUTOFF
               else float(t_df(a, k))), _record_error),
        (f_ebf, "ebf_f", "f_ebf.ebf_f", None, None),
        (f_ebf, "ebf_anova", "f_ebf.ebf_anova", None, None),
        (f_ebf, "f_expected_bias", "f_ebf.f_expected_bias", _Seen(f_dfs), _record_error),
        (count_ebf, "binom_expected_bias", "count_ebf.binom_expected_bias", None, None),
        (count_ebf, "negbinom_expected_bias", "count_ebf.negbinom_expected_bias",
         _Seen(nb_key), _record_error),
        (multitest.MultiTestBatch, "from_arrays", "multitest.from_arrays", None, None),
        (multitest, "multi_ebf", "multitest.multi_ebf",
         lambda a, k: _pair_class(a[0]), None),
        (multitest, "ranked_summary", "multitest.ranked_summary", None, None),
        (_kernels, "mixture_log_marginals", "kernels.mixture_log_marginals",
         _mixture_label, mix_m),
        (_kernels, "replicate_mixture_log_marginals",
         "kernels.replicate_mixture_log_marginals", None, rep_shape),
        (simharness, "run_bias_experiment", "simharness.run_bias_experiment", None, None),
        (simharness, "run_mse_experiment", "simharness.run_mse_experiment", None, None),
        (simharness, "run_largescale", "simharness.run_largescale", None, None),
        (simharness, "sensitivity_curves", "simharness.sensitivity_curves", None, None),
        (RngStream, "standard_normal", "numerics.RngStream.standard_normal", None, None),
    ]


def unit_of(name: str) -> str:
    """A per-layer metric's unit, read from its name's suffix."""
    for suffix, unit in (("pairs_per_s", "1/s"), ("_us", "us"), ("_s", "s"),
                         ("_mb", "MB"), ("_frac", "frac"), ("share_of_study", "frac"),
                         ("_share", "frac"), ("achieved_error_max", "nats")):
        if name.endswith(suffix):
            return unit
    return "count"


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else math.nan


def span_metrics(rec) -> dict[str, float]:
    """Per-layer metrics from the traced op lists' spans."""
    med = lambda name, scale=1.0: _median(rec.durations(name), scale)  # noqa: E731
    m = {}
    for name in ("cli.build_parser", "cli.emit", "calibration.calibration_curve",
                 "t_ebf.t_expected_bias.miss", "f_ebf.f_expected_bias.miss",
                 "count_ebf.binom_expected_bias", "count_ebf.negbinom_expected_bias.miss",
                 "multitest.from_arrays", "multitest.ranked_summary",
                 "kernels.replicate_mixture_log_marginals",
                 "simharness.run_bias_experiment", "simharness.run_mse_experiment",
                 "simharness.run_largescale", "simharness.sensitivity_curves",
                 "numerics.RngStream.standard_normal"):
        m[f"{name}_s"] = med(name)
    # batch sizes differ widely between calls, so these are totals over the
    # fixed op lists rather than medians per call
    for kind in ("point", "full", "half-line", "interval"):
        m[f"kernels.mixture_log_marginals.{kind}_s"] = sum(
            rec.durations(f"kernels.mixture_log_marginals.{kind}"))
    for cls in ("full", "half-line", "interval"):
        m[f"multitest.multi_ebf.{cls}_s"] = sum(rec.durations(f"multitest.multi_ebf.{cls}"))
    mains = [s for s in rec.spans if s.name.startswith("cli.main.")]
    m["cli.main_s"] = _median([s.duration for s in mains])
    for sub in ("normal", "pvalue", "binom", "calibrate", "curve", "bias", "multi"):
        m[f"cli.main.{sub}_s"] = med(f"cli.main.{sub}")

    def cached(family, call):
        misses = rec.durations(f"{family}.{call}.miss")
        m[f"{family}.bias.misses"] = len(misses)
        m[f"{family}.bias.hits"] = len(rec.durations(f"{family}.{call}.hit"))
        errors = [s.attrs["achieved_error"] for s in rec.spans
                  if s.name.startswith(f"{family}.{call}.") and "achieved_error" in s.attrs]
        m[f"{family}.bias.achieved_error_max"] = max(errors) if errors else math.nan
    cached("t_ebf", "t_expected_bias")
    cached("f_ebf", "f_expected_bias")

    no_miss = lambda i, s: not rec.has_descendant(  # noqa: E731
        i, lambda c: c.name.endswith(".miss"))
    for name in ("t_ebf.ebf_t", "f_ebf.ebf_f", "f_ebf.ebf_anova"):
        m[f"{name}.hit_us"] = _median(rec.durations(name, no_miss), 1e6)

    pair_spans = [s for s in rec.spans if s.name.startswith("kernels.mixture_log_marginals.")
                  and not s.name.endswith(".point")]
    pairs = sum(s.attrs["m"] ** 2 for s in pair_spans)
    m["kernels.mixture.pairs"] = pairs
    m["kernels.mixture.pairs_per_s"] = pairs / sum(s.duration for s in pair_spans)
    rep_spans = [s for s in rec.spans if s.name == "kernels.replicate_mixture_log_marginals"]
    rep_pairs = sum(s.attrs["pairs"] for s in rep_spans)
    m["kernels.replicate.pairs"] = rep_pairs
    m["kernels.replicate.pairs_per_s"] = rep_pairs / sum(s.duration for s in rep_spans)

    def study_share(family, call):
        studies = [s for s in rec.spans if s.name == f"op.bias-cold.{family}"]
        ops = {s.op for s in studies}
        miss = sum(s.duration for s in rec.spans
                   if s.name == f"{family}_ebf.{call}.miss" and s.op in ops)
        return miss / sum(s.duration for s in studies)
    m["t_ebf.t_expected_bias.miss_share_of_study"] = study_share("t", "t_expected_bias")
    m["f_ebf.f_expected_bias.miss_share_of_study"] = study_share("f", "f_expected_bias")
    return m


# ---------------------------------------------------------------- probes

CLI_ARGV = {
    "normal": ["normal", "--z", "1.281"],
    "pvalue": ["pvalue", "--p", "0.05"],
    "binom": ["binom", "--x", "3", "--n", "10"],
    "calibrate": ["calibrate"],
    "curve": ["curve"],
    "bias": ["bias", "--family", "pvalue", "--beta", "3"],
    "multi": None,  # written per run, see cli_in_process
}
CLI_REPEATS = 3


def cli_in_process(workdir):
    """``cli.main`` per subcommand with stdout captured in a buffer."""
    rng = np.random.default_rng(0)
    path = f"{workdir}/probe-multi.csv"
    with open(path, "w") as fh:
        fh.write("id,estimate,se\n")
        for i in range(200):
            fh.write(f"t{i},{rng.normal(0, 2)!r},{math.exp(rng.normal(0, 0.4))!r}\n")
    argvs = dict(CLI_ARGV, multi=["multi", "--input", path, "--ranked"])
    for _ in range(CLI_REPEATS):
        for argv in argvs.values():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) returned {code}")


HIT_CALLS = 50


def hit_probe():
    """Cache hits at one fixed parameter per family, after one miss each,
    so the hit metrics exist whatever region pairs the op lists drew."""
    point0, full = HypothesisRegion.point(0.0), HypothesisRegion.full()
    point1, below1 = HypothesisRegion.point(1.0), HypothesisRegion.below(1.0)
    for i in range(HIT_CALLS + 1):
        t_ebf.ebf_t(1.0 + 0.01 * i, 9.5, point0, full)
    for i in range(HIT_CALLS + 1):
        f_ebf.ebf_f(1.3 + 0.01 * i, 3.0, 20.0, point1, full)
        f_ebf.ebf_anova(1.3 + 0.01 * i, 3.0, 20.0)


def per_call_us(fn, calls=2000, repeats=5):
    best = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append((time.perf_counter() - start) / calls)
    return statistics.median(best) * 1e6


def scalar_probes() -> dict[str, float]:
    below, above = HypothesisRegion.below(0.0), HypothesisRegion.above(0.0)
    return {
        "pvalue_ebf.ebf_pvalue_us": per_call_us(lambda: pvalue_ebf.ebf_pvalue(0.03)),
        "normal_ebf.ebf_two_sided_us": per_call_us(lambda: normal_ebf.ebf_two_sided(2.1)),
        "normal_ebf.ebf_interval_us": per_call_us(
            lambda: normal_ebf.ebf_interval(1.3, 0.8, below, above)),
    }


def _median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_shapes() -> dict[str, float]:
    """The three shapes ``benchmarks/bench_backends.py`` has always timed,
    with its inputs, so its historic numbers stay comparable."""
    rng = np.random.default_rng(0)
    m, reps, tests = 2000, 400, 10
    x = rng.standard_normal(m)
    se = np.exp(0.2 * rng.standard_normal(m))
    xr = rng.standard_normal((reps, tests))
    cr = xr + 0.1 * rng.standard_normal(xr.shape)
    K = _kernels
    return {
        "kernels.bench.m2000_interval_s": _median_time(
            lambda: K.mixture_log_marginals(x, se, K.KIND_INTERVAL, -1.0, 1.0, 0.5, 0.5)),
        "kernels.bench.m2000_full_s": _median_time(
            lambda: K.mixture_log_marginals(x, se, K.KIND_FULL, 0.0, 0.0, 1.0, 0.5)),
        "kernels.bench.replicate_400x10_s": _median_time(
            lambda: K.replicate_mixture_log_marginals(xr, cr, 0.01, 1.0, -0.5)),
    }


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def memory_probes() -> dict[str, float]:
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000)
    se = np.exp(0.4 * rng.standard_normal(2000))
    return {
        "count_ebf.binom_expected_bias.peak_mb": _peak_mb(
            lambda: count_ebf.binom_expected_bias(1000)),
        "kernels.mixture.peak_mb": _peak_mb(
            lambda: _kernels.mixture_log_marginals(x, se, _kernels.KIND_BELOW, 0.0, None,
                                                   1.0, 0.25)),
    }
