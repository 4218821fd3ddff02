"""The benchmark's output checks (`perfbench/checks.py`) against the package.

`perfbench/run.py` checks every output of its workloads: energy
conservation, the death rounds, round-0 kappa and the CSV/JSON shape. One
zero-second run of each workload makes the test suite run those checks too.
The run works in a copy of `src/` and `perfbench/`, because the benchmark
writes its outputs beside the tree it runs from.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", [
    pytest.param("lifetime-batch", marks=pytest.mark.slow),   # 36 runs to extinction, ~6 s
    "large-field",
])
def test_workload_passes_the_output_checks(tmp_path, workload):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, out.stderr
