"""Each benchmark workload's output passes the benchmark's own checker.

`perfbench/worker.py --selftest 1` runs one operation of a workload on this
checkout's `src/`, checks its output with `perfbench/checks.py` (which does
not import the program) and plants known faults in that output to show the
checker catches them. Its last stdout line is one JSON object. So an output
the benchmark would refuse fails here first.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_passes_the_benchmark_checks(workload):
    run = subprocess.run([sys.executable, os.path.join("perfbench", "worker.py"),
                          "--workload", workload, "--seed", "3", "--selftest", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["ok"], result["error"]) == (True, None), run.stderr
    assert result["problems"] == []
    assert result["missed_faults"] == []
