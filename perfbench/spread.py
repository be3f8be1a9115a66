"""Run-to-run spread of the end-to-end metrics, to set and check bounds.

    python3 perfbench/spread.py

Runs run.py once per seed, seeds 1 to 10, on every workload in
BENCHMARK.json for its run_seconds, one run at a time, and prints for every
end-to-end metric the median of the runs and the spread: the distance
between the first and third quartiles as a share of the median
(statistics.quantiles, n=4).  Against the
bounds in BENCHMARK.json it marks a spread at or above the bound as FAIL,
and one at or above a third of it as WIDE.  setup_s is exempt from the
spread rule; only its median must hold between two sets of runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    worst = 0
    for workload in (w["name"] for w in config["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        failed = []
        for seed in SEEDS:
            cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed.append(f"{result['failed']}/{result['attempted']}{'' if result['correct'] else ' INCORRECT'}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(SEEDS)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, failed {' '.join(failed)}")
        for name, bound in bounds.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if name != "setup_s":
                mark = "FAIL" if spread >= bound else "WIDE" if spread >= bound / 3 else "ok"
                worst = max(worst, 2 if mark == "FAIL" else 1 if mark == "WIDE" else 0)
            print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                  f"  bound {bound}  {mark}")
    return 1 if worst == 2 else 0


if __name__ == "__main__":
    sys.exit(main())
