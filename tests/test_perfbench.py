"""Smoke test of the benchmark harness: one short traced sweep run.

The tracer counts every echelon by wrapping ``matrix.field_rref`` and
reading its dense output, so this guards that contract end to end.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_traced_sweep_run_counts_its_echelons():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", "sweep", "--seed", "1", "--items", "3", "--trace"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout.splitlines()[-1])
    assert data["attempted"] == 3
    assert data["failed"] == 0
    layers = data["layers"]
    for name in ("matrix.rref_calls", "matrix.rref_cells"):
        value, unit = layers[name]
        assert unit == "count"
        assert value > 0
