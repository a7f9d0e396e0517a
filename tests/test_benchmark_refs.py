"""The benchmark's reference checks, replayed.

`perfbench/run.py` checks every output of a workload against the committed
references in `perfbench/refs/` (for `toolbox`, the bytes of each CLI
report) and checks that a corrupted reference is caught.  One short run per
workload here makes a changed output fail a test, not only a benchmark run.
The runner pins the BLAS threads and works from the checkout root; its
records go to `perfbench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["assemble", "toolbox"])
def test_benchmark_outputs_match_references(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
