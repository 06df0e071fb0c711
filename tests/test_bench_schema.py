"""Checks of the benchmark script.

The per-layer span table is checked by default. The schema smoke test is
opt-in (`pytest -m bench`): it runs each workload for one call
(`--seconds 0`) in a subprocess, so its output checks run, and checks that
its result line carries every end-to-end metric BENCHMARK.json declares,
with its unit.
"""

import ast
import importlib
import inspect
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


def _literal(path, name):
    """The value of the top-level literal assignment `name = ...` in a file, without importing it."""
    with open(os.path.join(ROOT, path)) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} assigns no {name}")


def test_per_layer_spans_name_traced_functions():
    # bench/run.py is read, not imported: importing it pins the BLAS thread variables
    layers = _literal("bench/tracing.py", "LAYERS")
    spans = sorted({span for span, _, _ in _literal("bench/run.py", "PER_LAYER").values()})
    assert spans
    for span in spans:
        module, function = span.split(".")
        assert module in layers, span
        fn = getattr(importlib.import_module(f"gapfill.{module}"), function, None)
        # the tracer wraps the public functions a module defines itself
        assert inspect.isfunction(fn) and fn.__module__ == f"gapfill.{module}", span
        assert not function.startswith("_"), span
