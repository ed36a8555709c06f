"""The benchmark harness runs against the library as it is.

perfbench/run.py and its workloads call library functions by name
(aux_inputs_from, barrier_root(problem, ev), ev.x_cap, ...), so a library
change that breaks one of those calls would otherwise show only when the
benchmark runs.  Each workload of BENCHMARK.json runs here once, for one
second at its smallest size.  The harness writes its result file to the
git-ignored perfbench/out/, and no bytecode cache is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "0", "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
