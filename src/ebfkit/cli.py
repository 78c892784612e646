"""Command-line front end.

Every engine is exposed as a subcommand with JSON (default) or CSV output;
set EBFKIT_FORMAT to change the default.  JSON is strict: floats round-trip
losslessly (up to 17 significant digits) and a non-finite one, such as a
saturated linear factor, is written as null.  CSV prints 10 significant
digits.  Exit codes: 0 success, 2 usage or domain error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys

import numpy as np

# eager: the benchmark's traced run times each engine from `import ebfkit.cli`
from ebfkit import calibration, count_ebf, f_ebf, normal_ebf, pvalue_ebf, simharness, t_ebf
from ebfkit.core import HypothesisRegion
from ebfkit.exceptions import EbfError, NonConvergedError
from ebfkit.multitest import MultiTestBatch, multi_ebf, ranked_summary

SCHEMA_VERSION = 1

# JSON encoder chunks joined into one write: the encoder yields a few dozen
# per record, and one string of the whole output would cost its size again
_JSON_BLOCK = 4096

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


# ----------------------------------------------------------------- output

def _fmt_csv(value, lossless=False) -> str:
    if isinstance(value, float):
        return repr(value) if lossless else format(value, ".10g")
    return str(value)


def _flatten(record: dict, prefix="") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _finite_or_null(value):
    """The value with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def emit(records: list[dict], fmt: str, out=None, lossless=()) -> None:
    """Write records as strict JSON (lossless floats; inf and nan, such as
    a saturated linear factor, become null) or CSV (10 significant digits,
    except columns named in ``lossless``, which keep full precision so
    batch output can be re-ingested exactly)."""
    out = out or sys.stdout
    if fmt == "json":
        envelope = {"schema_version": SCHEMA_VERSION,
                    "records": _finite_or_null(records)}
        chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(envelope)
        while block := "".join(itertools.islice(chunks, _JSON_BLOCK)):
            out.write(block)
        out.write("\n")
        return
    rows = [_flatten(r) for r in records]
    headers: list[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_fmt_csv(row.get(h, ""), h in lossless)
                         for h in headers])


def _report_record(report) -> dict:
    return report.to_dict()


# ----------------------------------------------------------------- parsing

def _region(text: str) -> HypothesisRegion:
    return HypothesisRegion.parse(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebfkit",
        description="Empirical Bayes factors for common hypothesis tests.")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=os.environ.get("EBFKIT_FORMAT", "json"),
                        help="output format (default from EBFKIT_FORMAT, else json)")
    # accepted before or after the subcommand; SUPPRESS keeps the top-level
    # value when the per-command flag is absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "normal", parents=[common],
        help="normal mean with known variance: sqrt(2) exp(-(z^2-1)/2) "
             "two-sided, tail-ratio one-sided and directional forms, and "
             "general regions of the mean")
    p.add_argument("--z", type=float, help="standardized statistic")
    p.add_argument("--sides", type=int, choices=(1, 2), default=2)
    p.add_argument("--directional", action="store_true",
                   help="sign test: mean below 0 against above 0")
    p.add_argument("--negative-impossible", action="store_true",
                   help="one-sided test where values below the null cannot occur")
    p.add_argument("--x", type=float, help="estimate (with --sigma and regions)")
    p.add_argument("--sigma", type=float, help="standard error of the estimate")
    p.add_argument("--h0", type=_region, help="region like point:0, below:30, "
                   "above:0, interval:a,b, full")
    p.add_argument("--h1", type=_region)
    p.add_argument("--chi2", type=float, dest="z2",
                   help="squared statistic for the d-dimensional point null")
    p.add_argument("--dim", type=int, default=1)

    p = sub.add_parser("t", parents=[common], help="t statistic: region factors with the "
                                 "quadrature-based bias table")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--df", type=float, required=True)
    p.add_argument("--h0", type=_region, default=HypothesisRegion.point(0.0))
    p.add_argument("--h1", type=_region, default=HypothesisRegion.full())

    p = sub.add_parser("binom", parents=[common], help="binomial or negative-binomial counts "
                                     "with exact beta-function marginals")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--model", choices=("binomial", "negbinom", "average"),
                   default="binomial")
    p.add_argument("--h0", type=_region, default=HypothesisRegion.point(0.5))
    p.add_argument("--h1", type=_region, default=HypothesisRegion.full())

    p = sub.add_parser("f", parents=[common], help="F statistic with a scale parameter: "
                                 "region factors on the scale axis")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--df1", type=float, required=True)
    p.add_argument("--df2", type=float, required=True)
    p.add_argument("--h0", type=_region, default=HypothesisRegion.point(1.0))
    p.add_argument("--h1", type=_region, default=HypothesisRegion.below(1.0))

    p = sub.add_parser("anova", parents=[common], help="one-sided analysis-of-variance form: "
                                     "scale 1 against scale below 1")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--df1", type=float, required=True)
    p.add_argument("--df2", type=float, required=True)

    p = sub.add_parser("pvalue", parents=[common], help="P-value factor (5/2)/M(p) with the "
                                      "10p small-p behaviour")
    p.add_argument("--p", type=float)
    p.add_argument("--prior-odds", type=float, default=1.0)
    p.add_argument("--input", help="file with one P-value per line, or CSV "
                                   "with a p column")

    p = sub.add_parser("multi", parents=[common], help="mixture factor for a batch of normal "
                                     "tests (CSV: id,estimate,se)")
    p.add_argument("--input", required=True)
    p.add_argument("--pi-h", type=float, default=1.0)
    p.add_argument("--h0", type=_region, default=HypothesisRegion.point(0.0))
    p.add_argument("--h1", type=_region, default=HypothesisRegion.full())
    p.add_argument("--ranked", action="store_true",
                   help="append rank by evidence against the null")

    sub.add_parser("calibrate", parents=[common],
                   help="P-value calibration table for the "
                        "first four evidence units")

    p = sub.add_parser("curve", parents=[common], help="comparison curves (factor, 10p-style "
                                     "factor, -e p log p bound, reference "
                                     "criterion) over a P-value grid")
    p.add_argument("--pmin", type=float, default=1e-4)
    p.add_argument("--pmax", type=float, default=0.5)
    p.add_argument("--points", type=int, default=50)

    p = sub.add_parser("bias", parents=[common], help="expected-bias tables per family")
    p.add_argument("--family", choices=("normal", "t", "binom", "negbinom", "f",
                                        "pvalue"), required=True)
    p.add_argument("--df", type=float, help="t family: one value")
    p.add_argument("--df-max", type=int, help="t family: tabulate df = 1..df-max")
    p.add_argument("--n", type=int, help="binomial trials (one value)")
    p.add_argument("--n-max", type=int, help="binomial: tabulate n = 1..n-max")
    p.add_argument("--x", type=int, help="negative binomial successes")
    p.add_argument("--df1", type=float, help="F family")
    p.add_argument("--df2", type=float, help="F family")
    p.add_argument("--grid", type=str,
                   help="F family: comma-separated dfs for a square table")
    p.add_argument("--beta", type=float, help="P-value family shape")
    p.add_argument("--d1", type=int, default=0, help="normal: one-sided components")
    p.add_argument("--d2", type=int, default=1, help="normal: two-sided components")

    p = sub.add_parser("simulate", parents=[common], help="seeded Monte Carlo studies")
    p.add_argument("--experiment", choices=("bias", "mse", "largescale",
                                            "sensitivity"), default="bias")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--m", type=int, default=10,
                   help="largest batch size (bias/mse) or grid size")
    p.add_argument("--replicates", type=int, default=simharness.DEFAULT_REPLICATES)
    p.add_argument("--paper-scale", action="store_true",
                   help="use the long 10000-replicate setting")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--pi-h", type=float, default=1.0)
    p.add_argument("--m0", type=int, default=900, help="largescale null count")
    p.add_argument("--m1", type=int, default=100, help="largescale signal count")

    return parser


# ----------------------------------------------------------------- commands

def _cmd_normal(args) -> list[dict]:
    if args.z2 is not None:
        return [_report_record(normal_ebf.ebf_chi_squared(args.z2, args.dim))]
    if args.h0 is not None or args.h1 is not None:
        if args.h0 is None or args.h1 is None or args.x is None or args.sigma is None:
            raise EbfError("region form needs --x, --sigma, --h0 and --h1")
        return [_report_record(normal_ebf.ebf_interval(args.x, args.sigma,
                                                       args.h0, args.h1))]
    if args.z is None:
        raise EbfError("give --z (or --x/--sigma with regions, or --chi2)")
    if args.directional:
        return [_report_record(normal_ebf.ebf_directional(args.z))]
    if args.sides == 2:
        return [_report_record(normal_ebf.ebf_two_sided(args.z))]
    return [_report_record(normal_ebf.ebf_one_sided(
        args.z, negative_possible=not args.negative_impossible))]


def _cmd_t(args) -> list[dict]:
    return [_report_record(t_ebf.ebf_t(args.t, args.df, args.h0, args.h1))]


def _cmd_binom(args) -> list[dict]:
    if args.model == "average":
        data_b = count_ebf.CountData(args.x, args.n, count_ebf.BINOMIAL, args.alpha)
        data_nb = count_ebf.CountData(args.x, args.n, count_ebf.NEGATIVE_BINOMIAL,
                                      args.alpha)
        sides = {}
        for region, label in ((args.h0, "h0"), (args.h1, "h1")):
            ms = []
            for data in (data_b, data_nb):
                bias = count_ebf._expected_bias_for(data, region)
                ms.append(count_ebf._posterior_marginal(data, region).correct(bias))
            sides[label] = ms
        report = count_ebf.model_average(sides["h0"], sides["h1"],
                                         h0=args.h0, h1=args.h1)
        return [_report_record(report)]
    model = count_ebf.BINOMIAL if args.model == "binomial" else count_ebf.NEGATIVE_BINOMIAL
    data = count_ebf.CountData(args.x, args.n, model, args.alpha)
    return [_report_record(count_ebf.ebf_count(data, args.h0, args.h1))]


def _cmd_f(args) -> list[dict]:
    return [_report_record(f_ebf.ebf_f(args.x, args.df1, args.df2,
                                       args.h0, args.h1))]


def _cmd_anova(args) -> list[dict]:
    return [_report_record(f_ebf.ebf_anova(args.x, args.df1, args.df2))]


def _read_pvalues(path: str) -> list[float]:
    with open(path, newline="") as fh:
        text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EbfError(f"no P-values found in {path}")
    if "," in lines[0] or lines[0].lower() in ("p", "pvalue", "p_value"):
        reader = csv.DictReader(io.StringIO(text))
        col = next((c for c in (reader.fieldnames or [])
                    if c.lower() in ("p", "pvalue", "p_value")), None)
        if col is None:
            raise EbfError("CSV input needs a column named p")
        return [float(row[col]) for row in reader]
    return [float(ln) for ln in lines]


def _cmd_pvalue(args) -> list[dict]:
    if (args.p is None) == (args.input is None):
        raise EbfError("give exactly one of --p or --input")
    ps = [args.p] if args.p is not None else _read_pvalues(args.input)
    records = []
    for p in ps:
        report = pvalue_ebf.ebf_pvalue(p)
        rec = _report_record(report)
        rec["p"] = p
        rec["posterior_prob_h0"] = pvalue_ebf._posterior_prob_h0(report, args.prior_odds)
        records.append(rec)
    return records


def _cmd_multi(args) -> list[dict]:
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or [])
        if not {"id", "estimate", "se"} <= fields:
            raise EbfError("multi input CSV needs header id,estimate,se")
        ids, est, se = [], [], []
        for row in reader:
            ids.append(row["id"])
            est.append(float(row["estimate"]))
            se.append(float(row["se"]))
    batch = MultiTestBatch.from_arrays(est, se, args.h0, args.h1,
                                       pi_h=args.pi_h, ids=ids)
    reports = multi_ebf(batch)
    # single-test factors for comparison
    records = []
    for i, report in enumerate(reports):
        single = normal_ebf.ebf_interval(batch.estimates[i],
                                         batch.standard_errors[i],
                                         args.h0, args.h1)
        rec = _report_record(report)
        rec.update({"id": ids[i], "estimate": est[i], "se": se[i],
                    "single_ebf01_log": single.ebf01_log})
        records.append(rec)
    if args.ranked:
        # rank by position: ids may repeat
        for row in ranked_summary(reports):
            records[row["id"]]["rank"] = row["rank"]
    return records


def _cmd_calibrate(_args) -> list[dict]:
    return calibration.calibration_table()


def _cmd_curve(args) -> list[dict]:
    grid = np.geomspace(args.pmin, args.pmax, args.points)
    return calibration.calibration_curve(grid)


def _cmd_bias(args) -> list[dict]:
    fam = args.family
    if fam == "normal":
        b = normal_ebf.bias_normal(args.d1, args.d2)
        return [{"family": fam, "d1": args.d1, "d2": args.d2, **b.to_dict()}]
    if fam == "t":
        if args.df is not None:
            return [{"family": fam, "df": args.df,
                     **t_ebf.t_expected_bias(args.df).to_dict()}]
        dfs = range(1, (args.df_max or 10) + 1)
        return [{"family": fam, "df": float(df),
                 **t_ebf.t_expected_bias(df).to_dict()} for df in dfs]
    if fam == "binom":
        if args.n is not None:
            return [{"family": fam, "n": args.n,
                     **count_ebf.binom_expected_bias(args.n).to_dict()}]
        ns = range(1, (args.n_max or 10) + 1)
        return [{"family": fam, "n": n,
                 **count_ebf.binom_expected_bias(n).to_dict()} for n in ns]
    if fam == "negbinom":
        if args.x is None:
            raise EbfError("negbinom bias needs --x")
        return [{"family": fam, "x": args.x,
                 **count_ebf.negbinom_expected_bias(args.x).to_dict()}]
    if fam == "f":
        if args.grid:
            # square table: numerator dfs in rows, denominator dfs in columns
            dfs = [float(v) for v in args.grid.split(",")]
            return [{"df1": a,
                     **{f"df2_{b:g}": f_ebf.f_expected_bias(a, b).value
                        for b in dfs}}
                    for a in dfs]
        if args.df1 is None or args.df2 is None:
            raise EbfError("f bias needs --df1/--df2 or --grid")
        return [{"family": fam, "df1": args.df1, "df2": args.df2,
                 **f_ebf.f_expected_bias(args.df1, args.df2).to_dict()}]
    if args.beta is None:
        raise EbfError("pvalue bias needs --beta")
    return [{"family": fam, "beta": args.beta,
             **pvalue_ebf.pvalue_expected_bias(args.beta).to_dict()}]


def _cmd_simulate(args) -> list[dict]:
    replicates = (simharness.PAPER_SCALE_REPLICATES if args.paper_scale
                  else args.replicates)
    if args.experiment in ("bias", "mse"):
        run = (simharness.run_bias_experiment if args.experiment == "bias"
               else simharness.run_mse_experiment)
        rows = []
        for m in range(1, args.m + 1):
            spec = simharness.ScenarioSpec(args.scenario, m, replicates,
                                           n=args.n, seed=args.seed,
                                           pi_h=args.pi_h)
            rows.append(run(spec))
        return rows
    if args.experiment == "largescale":
        res = simharness.run_largescale(args.m0, args.m1, seed=args.seed)
        rows = []
        for i in range(len(res["ids"])):
            rows.append({
                "id": int(res["ids"][i]),
                "mu": float(res["mu"][i]),
                "z": float(res["z"][i]),
                "is_signal": bool(res["is_signal"][i]),
                "single_ebf10_log": float(res["single_ebf10_log"][i]),
                **{f"multi_ebf10_log_pi_{pi:g}": float(vals[i])
                   for pi, vals in res["multi_ebf10_log"].items()},
            })
        return rows
    grid = np.linspace(0.0, 0.2, args.m)
    return simharness.sensitivity_curves(args.n, grid)


_COMMANDS = {
    "normal": _cmd_normal,
    "t": _cmd_t,
    "binom": _cmd_binom,
    "f": _cmd_f,
    "anova": _cmd_anova,
    "pvalue": _cmd_pvalue,
    "multi": _cmd_multi,
    "calibrate": _cmd_calibrate,
    "curve": _cmd_curve,
    "bias": _cmd_bias,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        records = _COMMANDS[args.command](args)
    except NonConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (EbfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lossless = ("estimate", "se") if args.command == "multi" else ()
    emit(records, args.format, lossless=lossless)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
