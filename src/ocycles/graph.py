"""The implicit transition graph: length-s prefixes as vertices, objects as edges.

Every object contributes one directed edge from its s-prefix to its s-suffix.
The graph is never materialized and hands out words, not edge objects: the
k-s symbols that complete a vertex v are generated on demand in lexicographic
order, and serve both as tails (the words v + tail leave v) and as heads (the
words head + v enter v), so traversals need only per-vertex cursors.  An
``Edge`` is built only by ``edge_for_word``, for a step of a certificate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    DEFAULT_EDGE_LIMIT,
    InstanceParams,
    LimitError,
    Mode,
    Vertex,
    Word,
    _arrangements,
    _multiset_sequences,
    arrangement_rank,
    enumerate_objects,
    is_valid_vertex,
    is_valid_word,
    kperm_rank,
    object_count,
    perm_count,
    vertex_count,
)


@dataclass(frozen=True)
class Edge:
    word: Word
    source: Vertex
    target: Vertex
    ordinal: int  # index of the tail among the source's tails, in lexicographic order


@dataclass(frozen=True)
class TransitionGraph:
    params: InstanceParams
    vertex_count: int
    edge_count: int


def build_graph(params: InstanceParams, limit: int = DEFAULT_EDGE_LIMIT) -> TransitionGraph:
    count = object_count(params)
    if count > limit:
        raise LimitError(count, limit)
    return TransitionGraph(params, vertex_count(params), count)


def _require_vertex(v: Sequence[int], params: InstanceParams) -> Vertex:
    v = tuple(v)
    if not is_valid_vertex(v, params):
        raise ValueError(f"{v} is not a vertex of instance ({params.describe()})")
    return v


def _remaining_pool(v: Vertex, params: InstanceParams) -> list[int]:
    used = set(v)
    return [x for x in range(1, params.n + 1) if x not in used]


def _remaining_counts(v: Vertex, params: InstanceParams) -> Counter:
    counts = Counter(params.multiset)
    counts.subtract(v)
    return +counts


def out_degree(v: Sequence[int], g: TransitionGraph) -> int:
    """Number of objects whose s-prefix is v."""
    params = g.params
    v = _require_vertex(v, params)
    if params.mode is Mode.KPERM:
        return perm_count(params.n - params.s, params.k - params.s)
    return _arrangements(_remaining_counts(v, params))


def _completions(v: Vertex, params: InstanceParams) -> Iterator[tuple[int, ...]]:
    """The k-s symbol sequences that complete v to an object, lexicographically."""
    length = params.k - params.s
    if params.mode is Mode.KPERM:
        from itertools import permutations

        yield from permutations(_remaining_pool(v, params), length)
    else:
        yield from _multiset_sequences(_remaining_counts(v, params), length)


def edge_for_word(word: Sequence[int], params: InstanceParams) -> Edge:
    """Wrap an object as an edge, computing the ordinal of its tail."""
    word = tuple(word)
    if not is_valid_word(word, params):
        raise ValueError(f"{word} is not an object of instance ({params.describe()})")
    s = params.s
    source, tail = word[:s], word[s:]
    if params.mode is Mode.KPERM:
        ordinal = kperm_rank(tail, _remaining_pool(source, params))
    else:
        ordinal = arrangement_rank(tail, _remaining_counts(source, params))
    return Edge(word, source, word[-s:], ordinal)


@dataclass
class BalanceReport:
    balanced: bool
    vertex_count: int
    edge_count: int
    violations: list[tuple[Vertex, int, int]]  # (vertex, out-degree, in-degree)
    prefixes_match_suffixes: bool


def check_balance(g: TransitionGraph, limit: int = DEFAULT_EDGE_LIMIT) -> BalanceReport:
    """Sweep every edge and compare in- and out-degrees at every vertex.

    The graph is Eulerian-ready only if every vertex is balanced and the set
    of s-prefixes equals the set of s-suffixes.
    """
    params = g.params
    s = params.s
    outd: Counter = Counter()
    ind: Counter = Counter()
    for word in enumerate_objects(params, limit):
        outd[word[:s]] += 1
        ind[word[-s:]] += 1
    seen = set(outd) | set(ind)
    violations = sorted((v, outd[v], ind[v]) for v in seen if outd[v] != ind[v])
    prefixes_match = set(outd) == set(ind)
    return BalanceReport(
        balanced=not violations and prefixes_match,
        vertex_count=len(seen),
        edge_count=sum(outd.values()),
        violations=violations,
        prefixes_match_suffixes=prefixes_match,
    )
