"""ebfkit benchmark: seeded workloads, end-to-end metrics, and a traced run
that splits each op across the package's layers.

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 45 --trace 0

Run it from the repository root; it imports ebfkit from ``src/``.  Load comes
from this one process as one client in a closed loop: each op is issued
after the previous one returns.  ``--trace 0`` runs ops of the workload for
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs fixed op
lists of all four workloads (simulate included) through the span recorder,
plus the layer probes, and reports the per-layer metrics.  Every output is checked against a
reference outside the timed region.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for this process and its children: ebfkit from src/, and
    BLAS/OpenMP threads capped at the core count."""
    env = dict(os.environ)
    cores = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(wanted, cores)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def failure_label(exc) -> str:
    return getattr(exc, "label", type(exc).__name__)


# ---------------------------------------------------------------- running ops

class Tally:
    """Per attempted op: time taken and whether it raised or failed its
    check; failures are counted by exception class."""

    def __init__(self):
        self.elapsed: list[float] = []
        self.ok: list[bool] = []
        self.latencies: list[float] = []  # ops that returned an output
        self.failures = collections.Counter()
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def begin(self):
        self.elapsed.append(0.0)
        self.ok.append(True)

    def fail(self, exc):
        self.ok[-1] = False
        self.failures[failure_label(exc)] += 1
        if len(self.messages) < 5:
            self.messages.append(f"{failure_label(exc)}: {exc}")


def run_op(op, tally, rec=None, op_id=None, span_name=None):
    """Time one op, then check its output outside the timed region."""
    tally.begin()
    if rec is not None:
        rec.op = op_id
    try:
        start = time.perf_counter()
        try:
            with rec.span(span_name) if rec is not None else contextlib.nullcontext():
                out = op.run()
        finally:
            tally.elapsed[-1] = time.perf_counter() - start
        tally.latencies.append(tally.elapsed[-1])
        with rec.paused() if rec is not None else contextlib.nullcontext():
            op.check(out)
    except Exception as exc:  # counted, never filtered: the run must go on
        tally.fail(exc)
    finally:
        op.cleanup()
        if rec is not None:
            rec.op = None


def median_wall(code, env, repeats):
    from layers import wall
    return statistics.median(wall([sys.executable, "-c", code], env) for _ in range(repeats))


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def timed_run(w, seed, seconds, env, workdir):
    from workloads import TIMED

    setup = median_wall(w.setup_code, env, SETUP_REPEATS)
    tally = Tally()
    ctx = {"env": env, "workdir": str(workdir)}
    deadline = time.perf_counter() + seconds
    for op in w.ops(seed, TIMED, w.cycle, ctx):
        if time.perf_counter() >= deadline:
            op.cleanup()
            break
        run_op(op, tally)
    who = resource.RUSAGE_CHILDREN if w.name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if not tally.latencies:
        raise SystemExit(f"error: no op of {w.name} completed: {tally.messages}")
    value, pct, beyond = tail(tally.latencies)
    # throughput over whole periods of the op mix, so that where the
    # deadline cut the cycle does not change the weight of each op kind
    whole = (tally.attempted // w.mix_period) * w.mix_period or tally.attempted
    throughput = sum(tally.ok[:whole]) / sum(tally.elapsed[:whole])
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_s": (statistics.median(tally.latencies), "s"),
        "latency_tail_s": (value, "s"),
        "throughput_ops_s": (throughput, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
    }
    print(f"workload {w.name}, seed {seed}: {tally.attempted} ops attempted, "
          f"{tally.failed} failed; closed loop, one client")
    print(f"  {'setup_s':<18} {setup:.4f} s  (median of {SETUP_REPEATS} fresh "
          f"interpreters running {w.setup_code!r})")
    for name in ("latency_p50_s", "latency_tail_s", "throughput_ops_s", "peak_rss_mb"):
        value_, unit = metrics[name]
        note = {"latency_tail_s": f"  (p{pct:.1f} of {len(tally.latencies)} samples, "
                                  f"{beyond} beyond it)",
                "throughput_ops_s": f"  (first {whole} ops, completed per second of op time)",
                }.get(name, "")
        print(f"  {name:<18} {value_:.6g} {unit}{note}")
    print(f"  {'error_frac':<18} {tally.failed / tally.attempted:.6g}  "
          f"({dict(tally.failures) or 'no failures'})")
    for message in tally.messages:
        print(f"  failure: {message}")
    return tally, metrics


# ---------------------------------------------------------------- traced run

def run_list(w, seed, stream, ctx, tally, rec=None):
    ops = itertools.islice(w.ops(seed, stream, w.trace_kinds, ctx), len(w.trace_kinds))
    before = len(tally.latencies)
    for i, op in enumerate(ops):
        run_op(op, tally, rec, op_id=f"{w.name}/{i}", span_name=f"op.{w.name}.{op.kind}")
    return tally.latencies[before:]


def traced_run(w, seed, env, workdir):
    import layers
    from spans import Recorder, instrument
    from workloads import COMPARE, TRACED, WORKLOADS

    tally = Tally()
    ctx = {"env": env, "workdir": str(workdir)}
    # the named workload's op list once untraced, for the tracing overhead
    untraced = run_list(w, seed, COMPARE, ctx, tally)
    rec = Recorder()
    latencies = {}
    with instrument(rec, layers.targets()):
        for other in [w] + [v for v in WORKLOADS.values() if v is not w]:
            latencies[other.name] = run_list(other, seed, TRACED, ctx, tally, rec)
        for probe in (layers.hit_probe, lambda: layers.cli_in_process(str(workdir))):
            rec.op = "probe"
            tally.begin()
            try:
                probe()
            except Exception as exc:  # counted like a failed op
                tally.fail(exc)
        rec.op = None
    metrics = layers.span_metrics(rec)
    metrics.update(layers.start_and_import(env))
    metrics.update(layers.scalar_probes())
    metrics.update(layers.kernel_shapes())
    metrics.update(layers.memory_probes())
    metrics["cli.import_share"] = (metrics["import.ebfkit.cli_s"]
                                   / statistics.median(latencies["cli-oneshot"]))
    metrics["trace.overhead_frac"] = (statistics.fmean(latencies[w.name])
                                      / statistics.fmean(untraced) - 1.0)
    missing = [name for name in layers.PER_LAYER
               if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        raise SystemExit(f"error: the traced run produced no value for {missing}")
    metrics = {name: metrics[name] for name in layers.PER_LAYER}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
    rec.write(spans_path)
    print(f"traced run for {w.name}, seed {seed}: {len(rec.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}; {tally.attempted} ops, {tally.failed} failed")
    print(f"  {'span':<48} {'calls':>6} {'total s':>10} {'self s':>10}")
    rows = sorted(rec.self_times().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows[:30]:
        print(f"  {name:<48} {row['calls']:>6} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for message in tally.messages:
        print(f"  failure: {message}")
    return tally, metrics


# ---------------------------------------------------------------- output

def environment(env) -> dict:
    import numpy
    import scipy
    from ebfkit import _kernels

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": nproc(), "cpu_model": model, "cache": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": _kernels.active_backend(),
        "child_threads": {var: env[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ebfkit" / "__init__.py").is_file():
        print(f"error: no ebfkit package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            from layers import unit_of
            tally, metrics = traced_run(w, args.seed, env, workdir)
            metrics = {name: (value, unit_of(name)) for name, value in metrics.items()}
        else:
            tally, metrics = timed_run(w, args.seed, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(env)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
