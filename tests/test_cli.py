"""Command-line interface: outputs, formats, round trips, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ebfkit.cli import EXIT_OK, EXIT_USAGE, main
from ebfkit.core import HypothesisRegion
from ebfkit.multitest import MultiTestBatch, multi_ebf
from ebfkit.normal_ebf import ebf_interval, ebf_two_sided


def run_cli(args, capsys, monkeypatch=None, env=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    data = json.loads(out)
    assert data["schema_version"] == 1
    return data["records"]


class TestNormalCommand:
    def test_two_sided(self, capsys):
        code, out, _ = run_cli(["normal", "--z", "1.281", "--sides", "2"], capsys)
        assert code == EXIT_OK
        rec = parse_json(out)[0]
        assert rec["ebf01"] == pytest.approx(1.03, abs=0.005)
        assert rec["family"] == "normal"

    def test_one_sided_discovery(self, capsys):
        code, out, _ = run_cli(["normal", "--z", "5", "--sides", "1"], capsys)
        rec = parse_json(out)[0]
        assert rec["ebf10"] == pytest.approx(1.48e5, rel=0.005)

    def test_region_form(self, capsys):
        code, out, _ = run_cli(["normal", "--x", "16.6", "--sigma", "12.96",
                                "--h0", "below:30", "--h1", "above:30"], capsys)
        rec = parse_json(out)[0]
        assert rec["ebf01"] == pytest.approx(2.29, abs=0.005)

    def test_chi2_form(self, capsys)        :
        code, out, _ = run_cli(["normal", "--chi2", "6.019", "--dim", "2"], capsys)
        rec = parse_json(out)[0]
        assert rec["ebf10"] == pytest.approx(3.73, abs=0.005)

    def test_missing_statistic_is_usage_error(self, capsys):
        code, _, err = run_cli(["normal"], capsys)
        assert code == EXIT_USAGE
        assert "--z" in err


class TestPvalueCommand:
    def test_single(self, capsys):
        code, out, _ = run_cli(["pvalue", "--p", "0.05"], capsys)
        rec = parse_json(out)[0]
        assert rec["ebf01"] == pytest.approx(0.487, abs=1e-3)
        assert rec["units_of_evidence"] == pytest.approx(0.547, abs=1e-3)
        assert rec["posterior_prob_h0"] == pytest.approx(1 / 3, abs=0.01)

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(["pvalue", "--p", "1.5"], capsys)
        assert code == EXIT_USAGE
        assert "inside (0, 1)" in err

    def test_batch_file(self, capsys, tmp_path):
        path = tmp_path / "ps.csv"
        path.write_text("p\n0.05\n0.005\n")
        code, out, _ = run_cli(["pvalue", "--input", str(path)], capsys)
        recs = parse_json(out)
        assert len(recs) == 2
        assert recs[1]["posterior_prob_h0"] == pytest.approx(0.048, abs=1e-3)


class TestBiasCommand:
    def test_t_table_value(self, capsys):
        code, out, _ = run_cli(["bias", "--family", "t", "--df", "1"], capsys)
        rec = parse_json(out)[0]
        assert rec["value"] == pytest.approx(1.39, abs=0.01)

    def test_binom_table(self, capsys):
        code, out, _ = run_cli(["bias", "--family", "binom", "--n-max", "3"], capsys)
        recs = parse_json(out)
        assert [round(r["value"], 3) for r in recs] == [0.231, 0.316, 0.360]

    def test_normal(self, capsys):
        code, out, _ = run_cli(["bias", "--family", "normal", "--d1", "1",
                                "--d2", "0"], capsys)
        assert parse_json(out)[0]["value"] == 0.25

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_pvalue_nonfinite_beta_is_usage_error(self, capsys, beta):
        code, _, err = run_cli(["bias", "--family", "pvalue", "--beta", beta], capsys)
        assert code == EXIT_USAGE
        assert "beta" in err


class TestMultiCommand:
    def _write_batch(self, tmp_path):
        path = tmp_path / "batch.csv"
        rng = np.random.default_rng(21)
        rows = ["id,estimate,se"]
        for i, z in enumerate(rng.standard_normal(12)):
            rows.append(f"t{i},{float(z)!r},1.0")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_json_output(self, capsys, tmp_path):
        path = self._write_batch(tmp_path)
        code, out, _ = run_cli(["multi", "--input", str(path), "--ranked"], capsys)
        recs = parse_json(out)
        assert len(recs) == 12
        assert {r["rank"] for r in recs} == set(range(1, 13))
        assert all("single_ebf01_log" in r for r in recs)

    def test_csv_round_trip(self, capsys, tmp_path):
        """Re-ingesting the CSV output as input reproduces identical
        factors."""
        path = self._write_batch(tmp_path)
        code, out, _ = run_cli(["--format", "csv", "multi", "--input", str(path)],
                               capsys)
        assert code == EXIT_OK
        first = {row["id"]: row["ebf01_log"]
                 for row in csv.DictReader(io.StringIO(out))}
        again = tmp_path / "again.csv"
        again.write_text(out)
        code, out2, _ = run_cli(["--format", "csv", "multi", "--input", str(again)],
                                capsys)
        second = {row["id"]: row["ebf01_log"]
                  for row in csv.DictReader(io.StringIO(out2))}
        assert first == second

    def test_ranks_follow_position_with_repeated_ids(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,estimate,se\na,3,1\na,0.1,1\nc,-0.3,1\n")
        code, out, _ = run_cli(["multi", "--input", str(path), "--ranked"], capsys)
        assert code == EXIT_OK
        assert [r["rank"] for r in parse_json(out)] == [1, 3, 2]

    def test_missing_columns(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,value\nx,1\n")
        code, _, err = run_cli(["multi", "--input", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "id,estimate,se" in err


def test_small_multi_batch_starts_no_thread(tmp_path):
    """A cold ``ebfkit multi`` on 50 tests walks its pairs unsplit: it
    loads no thread pool and leaves the process with one thread."""
    rng = np.random.default_rng(4)
    path = tmp_path / "batch.csv"
    path.write_text("id,estimate,se\n" + "".join(
        f"t{i},{float(z)!r},1.0\n" for i, z in enumerate(2.0 * rng.standard_normal(50))))
    code = (
        "import sys, threading\n"
        "import ebfkit.cli as cli\n"
        f"assert cli.main(['multi', '--input', {str(path)!r}, '--h0', 'below:0',\n"
        "                  '--h1', 'above:0', '--ranked']) == 0\n"
        "assert 'concurrent.futures.thread' not in sys.modules\n"
        "assert threading.active_count() == 1, threading.enumerate()\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(json.loads(proc.stdout)["records"]) == 50


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestOverwhelmingEvidence:
    """Log factors beyond exp's float range still print: a saturated linear
    field is written as null, so the output stays strict JSON, and the log
    field keeps the engine's value."""

    def _single(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_OK, err
        # json.loads alone would accept the non-standard Infinity and NaN
        data = json.loads(out, parse_constant=_reject_constant)
        assert data["schema_version"] == 1 and len(data["records"]) == 1
        return data["records"][0]

    def test_csv_keeps_inf(self, capsys):
        code, out, err = run_cli(["normal", "--z", "40", "--format", "csv"], capsys)
        assert code == EXIT_OK, err
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["ebf10"] == "inf" and float(row["ebf01"]) == 0.0

    def test_two_sided(self, capsys):
        rec = self._single(["normal", "--z", "40"], capsys)
        assert rec["ebf01_log"] == ebf_two_sided(40.0).ebf01_log
        assert rec["ebf01_log"] == pytest.approx(-799.15, abs=0.01)
        assert rec["ebf01"] == 0.0 and rec["ebf10"] is None

    def test_region_form(self, capsys):
        rec = self._single(["normal", "--x", "0", "--sigma", "1",
                            "--h0", "point:0", "--h1", "above:45"], capsys)
        want = ebf_interval(0.0, 1.0, HypothesisRegion.point(0.0),
                            HypothesisRegion.above(45.0)).ebf01_log
        assert want > 709.79
        assert rec["ebf01_log"] == want
        assert rec["ebf01"] is None and rec["ebf10"] == 0.0

    def test_multi(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,estimate,se\nfar,40,1\n")
        rec = self._single(["multi", "--input", str(path)], capsys)
        batch = MultiTestBatch.from_arrays([40.0], [1.0], HypothesisRegion.point(0.0),
                                           HypothesisRegion.full())
        assert rec["ebf01_log"] == multi_ebf(batch)[0].ebf01_log < -709.79
        assert rec["ebf01"] == 0.0 and rec["ebf10"] is None


class TestTablesAndCurves:
    def test_calibrate(self, capsys):
        code, out, _ = run_cli(["calibrate"], capsys)
        recs = parse_json(out)
        assert [r["units"] for r in recs] == [1.0, 2.0, 3.0, 4.0]
        assert recs[0]["p_normal_2_sided"] == pytest.approx(0.038, abs=1e-3)

    def test_curve_csv(self, capsys):
        code, out, _ = run_cli(["--format", "csv", "curve", "--pmin", "0.001",
                                "--pmax", "0.3", "--points", "5"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert "neg_log10_ebf01_normal" in rows[0]

    def test_anova(self, capsys):
        code, out, _ = run_cli(["anova", "--x", "1", "--df1", "1", "--df2", "1"],
                               capsys)
        assert parse_json(out)[0]["ebf01"] == pytest.approx(2.89, abs=0.01)

    def test_binom_average(self, capsys):
        code, out, _ = run_cli(["binom", "--x", "3", "--n", "10",
                                "--model", "average"], capsys)
        rec = parse_json(out)[0]
        assert rec["family"] == "model-average"

    def test_negbinom_prior_shape_below_one(self, capsys):
        """alpha < 1 gives the failure count a predictive with no mean; the
        bias series still converges and the command exits 0."""
        code, out, _ = run_cli(["binom", "--x", "3", "--n", "10", "--model", "negbinom",
                                "--alpha", "0.5", "--h0", "point:0.5", "--h1", "full"],
                               capsys)
        assert code == EXIT_OK
        bias = parse_json(out)[0]["bias_h1"]
        assert np.isfinite(bias["value"]) and bias["value"] > 0.0

    def test_t_command(self, capsys):
        code, out, _ = run_cli(["t", "--t", "0", "--df", "1"], capsys)
        assert parse_json(out)[0]["ebf01"] == pytest.approx(8.0, abs=0.05)

    def test_f_command(self, capsys):
        code, out, _ = run_cli(["f", "--x", "2.0", "--df1", "3", "--df2", "9"],
                               capsys)
        assert parse_json(out)[0]["family"] == "f"


class TestSimulateCommand:
    def test_bias_table(self, capsys):
        code, out, _ = run_cli(["simulate", "--experiment", "bias",
                                "--scenario", "1", "--m", "2",
                                "--replicates", "400", "--seed", "13"], capsys)
        recs = parse_json(out)
        assert [r["m"] for r in recs] == [1, 2]
        assert recs[0]["unadjusted_bias"] == pytest.approx(0.5, abs=0.1)

    def test_sensitivity(self, capsys):
        code, out, _ = run_cli(["simulate", "--experiment", "sensitivity",
                                "--m", "3", "--n", "1000"], capsys)
        recs = parse_json(out)
        assert recs[0]["p_ebf_favours_h0_null"] == pytest.approx(0.807, abs=1e-3)

    def test_largescale_csv(self, capsys):
        code, out, _ = run_cli(["--format", "csv", "simulate", "--experiment",
                                "largescale", "--m0", "30", "--m1", "5",
                                "--seed", "13"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 35
        assert "multi_ebf10_log_pi_1" in rows[0]


class TestFormats:
    def test_env_var_default(self, capsys, monkeypatch):
        code, out, _ = run_cli(["normal", "--z", "1.0"], capsys, monkeypatch,
                               env={"EBFKIT_FORMAT": "csv"})
        assert out.splitlines()[0].startswith("family,")

    def test_json_round_trip_precision(self, capsys):
        """JSON floats survive a parse round trip bit-for-bit."""
        code, out, _ = run_cli(["normal", "--z", "1.2345678901234567"], capsys)
        rec = parse_json(out)[0]
        from ebfkit.normal_ebf import ebf_two_sided
        assert rec["ebf01_log"] == ebf_two_sided(1.2345678901234567).ebf01_log

    def test_csv_headers_flatten_nested_fields(self, capsys):
        code, out, _ = run_cli(["--format", "csv", "normal", "--z", "1.0"], capsys)
        header = out.splitlines()[0].split(",")
        assert "bias_h1.value" in header and "h0.kind" in header

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["normal", "--zeta", "1"], capsys)[0] == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == EXIT_USAGE
