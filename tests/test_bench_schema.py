"""Schema smoke test of the benchmark script (opt-in: `pytest -m bench`).

Runs each workload for one call (`--seconds 0`) in a subprocess, so its
output checks run, and checks that its result line carries every
end-to-end metric BENCHMARK.json declares, with its unit.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.bench
@pytest.mark.parametrize("workload", ["train", "impute", "eval"])
def test_workload_result_line_matches_the_declared_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    for metric in declared:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
