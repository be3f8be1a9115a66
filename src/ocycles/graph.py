"""The implicit transition graph: length-s prefixes as vertices, objects as edges.

Every object contributes one directed edge from its s-prefix to its s-suffix.
The graph is never materialized and hands out words, not edge objects: the
k-s symbols that complete a vertex v are generated on demand in lexicographic
order, and serve both as tails (the words v + tail leave v) and as heads (the
words head + v enter v), so traversals need only per-vertex cursors.  An
``Edge`` is a certificate step's word; its endpoints are ``word[:s]`` and
``word[-s:]``.
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
    _multiset_sequences,
    is_valid_word,
    object_count,
)

# not called here: perfbench/spans.py wraps these two names in this module
from .core import arrangement_rank, kperm_rank


@dataclass(frozen=True)
class Edge:
    word: Word


@dataclass(frozen=True)
class TransitionGraph:
    params: InstanceParams
    edge_count: int


def build_graph(params: InstanceParams, limit: int = DEFAULT_EDGE_LIMIT) -> TransitionGraph:
    count = object_count(params)
    if count > limit:
        raise LimitError(count, limit)
    return TransitionGraph(params, count)


def _remaining_pool(v: Vertex, params: InstanceParams) -> list[int]:
    used = set(v)
    return [x for x in range(1, params.n + 1) if x not in used]


def _remaining_counts(v: Vertex, params: InstanceParams) -> Counter:
    counts = Counter(params.multiset)
    counts.subtract(v)
    return +counts


def _completions(v: Vertex, params: InstanceParams) -> Iterator[tuple[int, ...]]:
    """The k-s symbol sequences that complete v to an object, lexicographically."""
    length = params.k - params.s
    if params.mode is Mode.KPERM:
        from itertools import permutations

        yield from permutations(_remaining_pool(v, params), length)
    else:
        yield from _multiset_sequences(_remaining_counts(v, params), length)


def edge_for_word(word: Sequence[int], params: InstanceParams) -> Edge:
    """Wrap an object of the instance as an edge; anything else is a ValueError."""
    word = tuple(word)
    if not is_valid_word(word, params):
        raise ValueError(f"{word} is not an object of instance ({params.describe()})")
    return Edge(word)
