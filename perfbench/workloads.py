"""The four workloads: what each runs, why it was chosen, and what it expects.

Every workload is a fixed list of operations over fixed instances; the seed
only shuffles the order of operations and picks tamper positions.  Load is
one closed-loop caller: the next operation starts when the previous one has
returned.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement

from checks import Instance

MULTISET9 = (1, 1, 2, 2, 3, 3, 4, 4, 5)

# One line per workload: why it was chosen.
WHY = {
    "cycle-ladder": "the user's main job, gen --out then verify; tour, compression and memory work shows here, across both degree extremes and the multiset path",
    "docs-verify": "verify of supplied documents and gen of the valid ones in both formats: parsing, writing and full defect reports dominate, the tour takes a fifth",
    "walkers-all": "a certificate from every vertex in each walker regime; only connect (with graph edges and core ranking) works here",
    "small-sweep": "286 tiny instances through gen, verify and oracle: per-call overhead, the classifier and the oracle dominate, large-instance code idles",
}

# README.md has the table of which per-layer metric should move which
# end-to-end metric, on which workload.

# Failures that the benchmark keeps in view, with the start of the problem
# text each must give.  They count in `failed` and in ok_ratio like any other
# failure; only a failure not listed here, or one whose text differs, makes
# the run incorrect.  An entry that stops failing is reported as fixed.
KNOWN_DEFECTS = {
    ("docs-verify", "length-abc"): (
        "verify exit exception ValueError",
        "a '# length abc' header escapes as ValueError instead of exit 6",
    ),
    ("small-sweep", "kperm n=2 k=2 s=1"): (
        "classified infeasible (ucycle-impossible), yet a cycle exists",
        "classified infeasible (ucycle-impossible), yet the cycle '1 2' exists",
    ),
}

LADDER = [
    Instance.kperm(10, 6, 2),  # 90 vertices, out-degree 1680
    Instance.kperm(10, 5, 4),  # 5040 vertices, out-degree 6
    Instance.kperm(9, 9, 4),  # 362,880 objects
    Instance.of_multiset(MULTISET9, 4),
]

WALKERS = [
    ("rotation g=1", Instance.kperm(10, 5, 4)),
    ("rotation g=3", Instance.kperm(9, 6, 3)),
    ("letter exchange", Instance.kperm(10, 7, 3)),
    ("transposition", Instance.kperm(9, 9, 4)),
    ("transposition multiset", Instance.of_multiset(MULTISET9, 4)),
    ("bfs", Instance.kperm(8, 8, 5)),
]

DOCS_KPERM = Instance.kperm(9, 6, 3)
DOCS_FULL = Instance.kperm(8, 8, 3)
DOCS_MULTISET = Instance.of_multiset(MULTISET9, 4)
DOCS_MULTILINE = Instance.kperm(7, 7, 3)  # 20,160 symbols

# Decides 1,1,2,2,2,3 s=3 (53,042 nodes) and stops the three open cases
# that exhaust any budget after about half a second each.
SWEEP_ORACLE_BUDGET = 100_000


def sweep_instances() -> list[Instance]:
    """Every kperm instance and every multiset over {1..m} of size 3..8,
    all overlaps, with 2 to 60 objects."""
    out = []
    for n in range(2, 12):
        for k in range(2, n + 1):
            if 2 <= math.perm(n, k) <= 60:
                out.extend(Instance.kperm(n, k, s) for s in range(1, k))
    for m in range(1, 9):
        for size in range(3, 9):
            for ms in combinations_with_replacement(range(1, m + 1), size):
                if set(ms) == set(range(1, m + 1)) and 2 <= Instance.of_multiset(ms, 1).object_count() <= 60:
                    out.extend(Instance.of_multiset(ms, s) for s in range(1, size))
    return out


def build_ops(workload: str, seed: int, docs: list[dict]) -> list[dict]:
    """The workload's operations in seed order.  `docs` is the docs-verify
    operations written by the prepare step; other workloads ignore it."""
    if workload == "cycle-ladder":
        ops = [{"kind": "ladder", "label": inst.label, "inst": inst.to_json()} for inst in LADDER]
    elif workload == "docs-verify":
        ops = list(docs)
    elif workload == "walkers-all":
        ops = [
            {"kind": "walk", "label": regime, "inst": inst.to_json(), "vertex": list(v)}
            for regime, inst in WALKERS
            for v in inst.vertices()
        ]
    elif workload == "small-sweep":
        ops = [{"kind": "sweep", "label": inst.label, "inst": inst.to_json()} for inst in sweep_instances()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops
