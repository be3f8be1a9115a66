"""Spans for the traced run, recorded by wrappers installed from outside.

The wrappers replace names in the namespaces of the calling modules (for
example ``ocycles.cli.euler_tour``), so no program file changes.  Each span
records its name, start, end, parent and the operation it belongs to; spans
stay in memory, in flat arrays, until the pass ends.  A span's self time is
its duration minus the durations of its direct children.

Only plain functions are wrapped: a generator function returns before its
work is done, so its time stays with the caller that iterates it.
"""

from __future__ import annotations

import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from typing import Callable

# (calling module, attribute, span name); the span name's first part is the
# layer (module) that does the work.
CLI_CALLS = [
    ("ocycles.cli", "validate_params", "core.validate_params"),
    ("ocycles.cli", "feasibility", "core.feasibility"),
    ("ocycles.cli", "build_graph", "graph.build_graph"),
    ("ocycles.cli", "euler_tour", "euler.euler_tour"),
    ("ocycles.cli", "tour_to_cycle", "euler.tour_to_cycle"),
    ("ocycles.cli", "emit_document", "cli.emit_document"),
    ("ocycles.cli", "emit_list", "cli.emit_list"),
    ("ocycles.cli", "parse_text", "cli.parse_text"),
    ("ocycles.cli", "verify_cycle_string", "verify.verify_cycle_string"),
    ("ocycles.cli", "verify_object_list", "verify.verify_object_list"),
    ("ocycles.cli", "hamilton_oracle", "verify.hamilton_oracle"),
    ("ocycles.cli", "main", "cli.main"),
]
# The walker loop calls connect directly; connect builds its edges through
# graph, and graph ranks tails through core.
WALKER_CALLS = [
    ("ocycles.connect", "find_path", "connect.find_path"),
    ("ocycles.connect", "replay_certificate", "connect.replay_certificate"),
    ("ocycles.connect", "edge_for_word", "graph.edge_for_word"),
    ("ocycles.graph", "kperm_rank", "core.kperm_rank"),
    ("ocycles.graph", "arrangement_rank", "core.arrangement_rank"),
]
# Spans whose peak traced memory is measured in the memory pass; none of
# them calls another, so tracemalloc runs only inside one at a time.
MEMORY_SPANS = frozenset(
    {"euler.euler_tour", "euler.tour_to_cycle", "verify.verify_cycle_string", "cli.parse_text"}
)
LAYERS = ("core", "graph", "euler", "connect", "verify", "cli")
OP_SPAN = "bench.op"


def _count_edges(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        t.counts["euler.euler_tour.edges"] += len(result.edges)
    elif hasattr(exc, "used"):  # TourIncomplete carries the edges it covered
        t.counts["euler.euler_tour.edges"] += exc.used
        t.counts["euler.tour_incomplete.count"] += 1


def _count_verified(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        t.counts["verify.defects.count"] += (
            len(result.duplicates)
            + result.missing_count
            + len(result.invalid_words)
            + len(result.overlap_violations)
        )


def _count_verified_string(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        t.counts["verify.verify_cycle_string.objects"] += result.object_count
    _count_verified(t, args, result, exc, span)


def _count_oracle(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        t.counts["verify.hamilton_oracle.nodes"] += result.nodes
        t.counts["verify.hamilton_oracle.decided"] += result.status.value != "exhausted"


def _count_parsed(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        if result.symbols is not None:
            t.counts["cli.parse_text.symbols"] += len(result.symbols)
        else:
            t.counts["cli.parse_text.symbols"] += sum(len(w) for w in result.words)


def _count_emitted(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        t.counts["cli.doc_bytes"] += len(result.encode())


def _count_graph(t: "Tracer", args, result, exc, span: int) -> None:
    if exc is None:
        t.counts["graph.build_graph.edges"] += result.edge_count


def _count_path(t: "Tracer", args, result, exc, span: int) -> None:
    params = args[1]
    if params not in t.seen_params:
        t.seen_params.add(params)
        t.first_call_s += t.end[span] - t.start[span]
    if exc is None:
        steps = len(result.steps)
        t.counts["connect.steps"] += steps
        t.steps_per_cap_max = max(t.steps_per_cap_max, steps / (8 * params.k * params.s))


HOOKS: dict[str, Callable] = {
    "euler.euler_tour": _count_edges,
    "verify.verify_cycle_string": _count_verified_string,
    "verify.verify_object_list": _count_verified,
    "verify.hamilton_oracle": _count_oracle,
    "cli.parse_text": _count_parsed,
    "cli.emit_document": _count_emitted,
    "cli.emit_list": _count_emitted,
    "graph.build_graph": _count_graph,
    "connect.find_path": _count_path,
}


class Tracer:
    """Records spans around wrapped calls; `memory` adds tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.seen_params: set = set()
        self.first_call_s = 0.0
        self.steps_per_cap_max = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.op.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        self._op += 1
        return self._open(self._name_id(OP_SPAN))

    def end_op(self, span: int) -> None:
        self._close(span)

    def install(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        measure = self.memory and name in MEMORY_SPANS
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(nid)
            mem = measure and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._close(span)
                if mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0), peak)
                if hook is not None:
                    hook(tracer, args, result, exc, span)

        self._undo.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            incl[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return {
            "spans": n,
            "ops": self._op + 1,
            "calls": dict(calls),
            "incl_s": dict(incl),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "first_call_s": self.first_call_s,
            "steps_per_cap_max": self.steps_per_cap_max,
        }
