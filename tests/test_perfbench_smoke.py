"""A one-second run of the benchmark's small-sweep workload.

It runs ``perfbench/run.py`` as the benchmark is run, from the repository
root, and reads the result line the run prints last: every one of the 286
instances must pass its checks (gen, verify and the oracle).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_smoke_run():
    argv = ["perfbench/run.py", "--workload", "small-sweep", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] == 286
