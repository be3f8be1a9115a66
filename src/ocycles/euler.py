"""Euler tours over the transition graph and their compressed cycle strings.

A closed tour that uses every edge exactly once is exactly an overlap cycle:
writing, for each word on the tour, only the k-s symbols that extend past the
shared overlap produces the cyclic string form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    InstanceParams,
    SymbolString,
    Vertex,
    Word,
    completions,
    min_vertex,
    symbol_string,
)
from .graph import TransitionGraph


@dataclass(frozen=True)
class EulerTour:
    params: InstanceParams
    edges: tuple[Word, ...]  # the objects in tour order; each object is an edge


@dataclass(frozen=True)
class OverlapCycle:
    symbols: SymbolString  # bytes when every symbol fits in a byte (n <= 255)
    params: InstanceParams

    @property
    def object_count(self) -> int:
        return len(self.symbols) // (self.params.k - self.params.s)


class TourIncomplete(RuntimeError):
    """The traversal ran out of edges before covering the whole graph.

    This means the graph is disconnected.  The closed partial tour over the
    minimum vertex's component is attached for inspection.
    """

    def __init__(self, used: int, total: int, partial: EulerTour):
        super().__init__(f"tour covered {used} of {total} edges; graph is disconnected")
        self.used = used
        self.total = total
        self.partial = partial


def euler_tour(g: TransitionGraph) -> EulerTour:
    """Closed tour using every edge exactly once (Hierholzer, iterative).

    Each object is the edge from its s-prefix to its s-suffix, so the tour is
    a sequence of words.  It starts at the minimum vertex, and every vertex
    keeps a cursor over its tails (the k-s symbols completing it to an
    object) in lexicographic order, so the result is deterministic.  One
    stack holds the open trail of words in place of recursion; memory is
    O(vertices) plus the tour itself.
    """
    params = g.params
    s = params.s
    start = min_vertex(params)

    cursors: dict[Vertex, Iterator[tuple[int, ...]]] = {}
    trail: list[Word] = []
    tour: list[Word] = []
    v = start
    while True:
        cursor = cursors.get(v)
        if cursor is None:
            cursor = cursors[v] = completions(v, params.k - s, params)
        tail = next(cursor, None)
        if tail is not None:
            word = v + tail
            trail.append(word)
            v = word[-s:]
        elif trail:
            tour.append(trail.pop())
            v = trail[-1][-s:] if trail else start
        else:
            break
    tour.reverse()
    if len(tour) != g.edge_count:
        raise TourIncomplete(len(tour), g.edge_count, EulerTour(params, tuple(tour)))
    return EulerTour(params, tuple(tour))


def tour_to_cycle(tour: EulerTour) -> OverlapCycle:
    """Compress a closed tour into its cyclic symbol string.

    Each word contributes its trailing k-s symbols; cyclically the start
    vertex's symbols (the trailing s symbols of the final word) precede the
    first contributed block.  The linear form is aligned so that decoding
    length-k windows at offsets 0, k-s, 2(k-s), ... returns the tour's words
    in order.  The string is ``bytes`` when every symbol fits in a byte.
    """
    s = tour.params.s
    tail: list[int] = []
    for word in tour.edges:
        tail.extend(word[s:])
    symbols = symbol_string(tail)
    del tail  # eight bytes per symbol; the string needs one
    # rotate right by s to align window offset 0 with the first word
    return OverlapCycle(symbols[-s:] + symbols[:-s], tour.params)

