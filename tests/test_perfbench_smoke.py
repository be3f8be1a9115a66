"""One-pass runs of each of the benchmark's workloads: small-sweep,
cycle-ladder, docs-verify and walkers-all.

Each runs ``perfbench/run.py`` as the benchmark is run, from the repository
root, and reads the result line the run prints last: every operation of the
one pass must pass its checks.  On small-sweep that is gen, verify and the
oracle on 286 instances; on cycle-ladder, gen then verify on four instances,
with each generated document checked against the construction; on
docs-verify, verify of 13 supplied documents and 6 gen runs; on walkers-all,
a certificate built and replayed from every vertex of each walker instance.

``--seconds 0`` runs exactly one pass.  Passes repeat until the given seconds
have passed, so a one-second run makes a second pass whenever the first takes
under a second of wall time, and the operation counts below would double.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(workload: str) -> dict:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "0", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["failed"] == 0
    return result


def test_small_sweep_smoke_run():
    assert smoke_run("small-sweep")["attempted"] == 286


@pytest.mark.parametrize(
    "workload, attempted", [("cycle-ladder", 4), ("docs-verify", 19), ("walkers-all", 16452)]
)
def test_one_pass_smoke_run(workload, attempted):
    assert smoke_run(workload)["attempted"] == attempted
