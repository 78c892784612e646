"""The benchmark harness runs each of its workloads to a correct result.

A change that removes or renames a name the harness loads fails here, in
the test suite, rather than only when the benchmark is run.  Nothing under
``perfbench/`` is changed; its output directory is ignored by git.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.slow
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_correctly(workload):
    command = [sys.executable if arg in ("python", "python3") else arg
               for arg in BENCHMARK["command"]]
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
