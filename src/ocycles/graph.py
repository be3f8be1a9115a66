"""The implicit transition graph: length-s prefixes as vertices, objects as edges.

Every object contributes one directed edge from its s-prefix to its s-suffix.
The graph is never materialized and hands out words, not edge objects:
``core.completions(v, k - s, params)`` generates the k-s symbols that
complete a vertex v in lexicographic order, and they serve both as tails
(the words v + tail leave v) and as heads (the words head + v enter v), so a
traversal needs only a cursor per vertex.  They depend only on v's letter
set (a multiset vertex's sorted symbols), so the Euler tour's cursors share
one table of tails per letter set, within a memory budget
(``euler.TABLE_TAILS_PER_EDGE``).  When k - s >= s a tail's last s symbols
are the vertex it enters, so where s >= 3 each table also lists, after
each tail, where its head's cursor is, and the tour steps from cursor to
cursor with no slice and no lookup.  This module holds the edge count and
its limit.  An ``Edge`` is a certificate step's word; its endpoints are
``word[:s]`` and ``word[-s:]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DEFAULT_EDGE_LIMIT,
    InstanceParams,
    LimitError,
    Word,
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


def edge_for_word(word: Sequence[int], params: InstanceParams) -> Edge:
    """Wrap an object of the instance as an edge; anything else is a ValueError."""
    word = tuple(word)
    if not is_valid_word(word, params):
        raise ValueError(f"{word} is not an object of instance ({params.describe()})")
    return Edge(word)
