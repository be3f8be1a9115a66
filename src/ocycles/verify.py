"""Independent verification: cycle validation and a Hamilton-cycle oracle.

The verifier re-derives everything (object universe, counts, coverage) from
the instance parameters alone and never trusts generator metadata; it imports
nothing from the generator's ``graph`` or ``euler`` modules.  The
oracle searches the object-level overlap graph, where objects are vertices
and an edge runs from a to b when a's s-suffix equals b's s-prefix; a
Hamilton cycle there is the same thing as an overlap cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import not_
from typing import Sequence

from .core import (
    InstanceParams,
    LimitError,
    Mode,
    Vertex,
    Word,
    enumerate_objects,
    object_count,
)

ORACLE_OBJECT_CAP = 60
DEFAULT_ORACLE_BUDGET = 5_000_000


@dataclass
class VerificationReport:
    valid: bool
    object_count: int
    duplicates: list[Word]
    missing_count: int
    overlap_violations: list[tuple[int, Vertex, Vertex]]
    invalid_words: list[Word]
    length_ok: bool


def _coverage_report(
    words: Sequence[Word],
    violations: list[tuple[int, Vertex, Vertex]],
    length_ok: bool,
    params: InstanceParams,
) -> VerificationReport:
    total = object_count(params)
    # one validity flag per word, then bulk passes split and count the words
    if params.mode is Mode.KPERM:
        # k symbols, all distinct and in 1..n; the length test keeps out a
        # longer word whose symbols still cover k distinct letters
        k = params.k
        alphabet = frozenset(range(1, params.n + 1))
        flags = [len(w) == k and len(alphabet.intersection(w)) == k for w in words]
    else:
        target = list(params.multiset)  # sorted by validate_params
        flags = list(map(target.__eq__, map(sorted, words)))
    invalid = list(compress(words, map(not_, flags)))
    seen = Counter(compress(words, flags))
    duplicates = sorted(w for w, c in seen.items() if c > 1)
    missing = total - len(seen)
    valid = (
        length_ok
        and not invalid
        and not duplicates
        and not violations
        and missing == 0
    )
    return VerificationReport(
        valid=valid,
        object_count=len(words),
        duplicates=duplicates,
        missing_count=missing,
        overlap_violations=violations,
        invalid_words=invalid,
        length_ok=length_ok,
    )


def verify_cycle_string(
    symbols: Sequence[int], params: InstanceParams
) -> VerificationReport:
    """Check a cyclic symbol string: read windows at stride k-s, test coverage.

    Windows are sliced from the string extended cyclically by its first s
    symbols, so the last windows wrap around onto the start.  Consecutive
    windows overlap by construction, so the defects a string can exhibit are
    bad length, out-of-family words, duplicates, and missing objects.
    Malformed input yields an invalid report, not an error.
    """
    symbols = tuple(symbols)
    k, s = params.k, params.s
    stride = k - s
    length = len(symbols)
    if length == 0 or length % stride != 0:
        return VerificationReport(
            valid=False,
            object_count=0,
            duplicates=[],
            missing_count=object_count(params),
            overlap_violations=[],
            invalid_words=[],
            length_ok=False,
        )
    # the wrap is the first s symbols cyclically; repeating them covers
    # strings shorter than s without copying a long string s times
    ext = symbols + (symbols[:s] * s)[:s]
    words = [ext[i : i + k] for i in range(0, length, stride)]
    return _coverage_report(words, [], True, params)


def verify_object_list(
    words: Sequence[Sequence[int]], params: InstanceParams
) -> VerificationReport:
    """Check the list form: adjacent (and wrap-around) overlaps plus coverage."""
    words = [tuple(w) for w in words]
    s = params.s
    length_ok = bool(words) and all(len(w) == params.k for w in words)
    violations: list[tuple[int, Vertex, Vertex]] = []
    if length_ok:
        for i, a in enumerate(words):
            b = words[(i + 1) % len(words)]
            if a[-s:] != b[:s]:
                violations.append((i, a[-s:], b[:s]))
    return _coverage_report(words, violations, length_ok, params)


class OracleStatus(Enum):
    WITNESS = "witness"
    NO_CYCLE = "no-cycle"
    EXHAUSTED = "exhausted"


@dataclass
class OracleResult:
    status: OracleStatus
    cycle: tuple[Word, ...] | None
    nodes: int


class _Found(Exception):
    pass


class _BudgetSpent(Exception):
    pass


def hamilton_oracle(
    params: InstanceParams, budget: int = DEFAULT_ORACLE_BUDGET
) -> OracleResult:
    """Exhaustive Hamilton-cycle search over the object-level overlap graph.

    Limited to instances with at most 60 objects.  Depth-first from the
    lexicographically smallest object, expanding neighbors in lexicographic
    order, pruning any state in which an unvisited object can no longer be
    entered or left.  Returns a witness cycle, NO_CYCLE after exhaustive
    search, or EXHAUSTED once `budget` search nodes have been expanded.
    """
    m = object_count(params)
    if m > ORACLE_OBJECT_CAP:
        raise LimitError(m, ORACLE_OBJECT_CAP)
    objs = list(enumerate_objects(params))
    s = params.s
    if m == 1:
        w = objs[0]
        if w[-s:] == w[:s]:
            return OracleResult(OracleStatus.WITNESS, (w,), 1)
        return OracleResult(OracleStatus.NO_CYCLE, None, 1)

    by_prefix: dict[Vertex, list[int]] = {}
    for i, w in enumerate(objs):
        by_prefix.setdefault(w[:s], []).append(i)
    succ = [[j for j in by_prefix.get(w[-s:], []) if j != i] for i, w in enumerate(objs)]
    pred: list[list[int]] = [[] for _ in range(m)]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    succ_sets = [set(js) for js in succ]

    start = 0
    visited = [False] * m
    in_avail = [len(pred[i]) for i in range(m)]
    out_avail = [len(succ[i]) for i in range(m)]
    path = [start]
    nodes = 0
    witness: tuple[Word, ...] | None = None

    def visit(v: int) -> None:
        visited[v] = True
        for u in succ[v]:
            in_avail[u] -= 1
        for p in pred[v]:
            out_avail[p] -= 1

    def unvisit(v: int) -> None:
        visited[v] = False
        for u in succ[v]:
            in_avail[u] += 1
        for p in pred[v]:
            out_avail[p] += 1

    def feasible(v: int) -> bool:
        # every unvisited object must stay enterable and leavable; at most one
        # can rely on being entered right now, at most one on exiting to start
        rescue = 0
        finisher = 0
        for u in range(m):
            if visited[u]:
                continue
            if in_avail[u] == 0:
                if u not in succ_sets[v]:
                    return False
                rescue += 1
                if rescue > 1:
                    return False
            if out_avail[u] == 0:
                if start not in succ_sets[u]:
                    return False
                finisher += 1
                if finisher > 1:
                    return False
        return True

    def dfs(v: int) -> None:
        nonlocal nodes, witness
        nodes += 1
        if nodes > budget:
            raise _BudgetSpent
        if len(path) == m:
            if start in succ_sets[v]:
                witness = tuple(objs[i] for i in path)
                raise _Found
            return
        if not feasible(v):
            return
        for u in succ[v]:
            if not visited[u]:
                visit(u)
                path.append(u)
                dfs(u)
                path.pop()
                unvisit(u)

    visit(start)
    try:
        dfs(start)
    except _Found:
        return OracleResult(OracleStatus.WITNESS, witness, nodes)
    except _BudgetSpent:
        return OracleResult(OracleStatus.EXHAUSTED, None, nodes)
    return OracleResult(OracleStatus.NO_CYCLE, None, nodes)
