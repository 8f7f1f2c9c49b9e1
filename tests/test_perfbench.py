"""Smoke test of the benchmark harness in `perfbench/`.

`perfbench/run.py` wraps names on `pardefl.cli` by `getattr`, so renaming
one of them breaks the benchmark; one short traced run per workload here
catches that, and any output its checks reject.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["dense-deflation", "streaming-gaussian",
                                      "eigengame-data"])
def test_workload_runs_and_checks_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
