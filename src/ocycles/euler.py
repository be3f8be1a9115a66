"""Euler tours over the transition graph and their compressed cycle strings.

A closed tour that uses every edge exactly once is exactly an overlap cycle:
writing, for each word on the tour, only the k-s symbols that extend past the
shared overlap produces the cyclic string form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter

from .core import (
    InstanceParams,
    SymbolString,
    Windows,
    completions,
    min_vertex,
)
from .graph import TransitionGraph


TABLE_TAILS_PER_EDGE = 1 / 8
"""The budget of ``euler_tour``'s shared tail tables, in tails per edge.

A letter set gets a table while the tables built so far hold fewer than
edge_count / 8 tails, so they hold at most that many plus one vertex's
out-degree.  A tail in a table is a ``bytes`` object and a pointer, about
45 B, so edge_count / 8 of them cost about 6 B per object.

A table saves work only where the s! vertices of its letter set share it,
but it holds one tail per s! edges: without the budget the tables grow with
the edge count at s = 2.  At s = 1 a letter set is one vertex, so no table
is built: tables at (9,5,1) read 26.4 traced bytes per object within the
budget and 61.3 without it, against 16.3 with lazy cursors.  Traced tour
peaks elsewhere (lazy cursors / budget / no budget): (12,5,2) 15.3 / 20.9 /
36.9, (8,8,3) 20.9 / 25.8 / 27.4, and (10,5,4) 90.6 / 40.5 / 40.5, where
each vertex's ``permutations`` iterator outweighs the tables.
"""


@dataclass(frozen=True)
class OverlapCycle:
    """An Euler tour written as its cyclic symbol string.

    Each word contributes its trailing k-s symbols; cyclically the start
    vertex's symbols (the trailing s symbols of the final word) precede the
    first contributed block.  The linear form is aligned so that decoding
    length-k windows at offsets 0, k-s, 2(k-s), ... returns the tour's words
    in order.
    """

    symbols: SymbolString  # bytes when every symbol fits in a byte (n <= 255)
    params: InstanceParams

    @property
    def object_count(self) -> int:
        return len(self.symbols) // (self.params.k - self.params.s)

    @property
    def edges(self) -> Windows:
        """The objects in tour order; each object is an edge."""
        return Windows(self.symbols, self.params.k, self.params.k - self.params.s)


class TourIncomplete(RuntimeError):
    """The traversal ran out of edges before covering the whole graph.

    This means the graph is disconnected.  The closed partial tour over the
    minimum vertex's component is attached for inspection.
    """

    def __init__(self, used: int, total: int, partial: OverlapCycle):
        super().__init__(f"tour covered {used} of {total} edges; graph is disconnected")
        self.used = used
        self.total = total
        self.partial = partial


def euler_tour(g: TransitionGraph) -> OverlapCycle:
    """Closed tour using every edge exactly once (Hierholzer, iterative).

    Each object is the edge from its s-prefix to its s-suffix, so the tour is
    a sequence of words.  It starts at the minimum vertex, and every vertex
    keeps a cursor over its tails (the k-s symbols completing it to an
    object) in lexicographic order, so the result is deterministic.  The
    tour is returned as its cycle string, an ``OverlapCycle``.

    The tour is kept in its cycle-string form, one byte per symbol when
    n <= 255 (lists and tuples otherwise).  The open trail holds each
    step's tail, and a stack holds the cursor entry of the vertex each step
    reached, one pointer per step, so no slice is needed to find a vertex.
    When the walk reaches a vertex with no tail left, the steps it finishes
    are the last r on the trail, and their tails move into the output,
    which fills from the end, in one slice.  If every edge is taken, which
    the lengths of the trail and the output tell, that run is the whole
    trail.  Otherwise one C-level pass over the stack, from the top down,
    finds the topmost vertex with a tail left, and the r entries above it
    are deleted in one slice; with none left, the whole trail is the run.
    Where the walk ends the stack is cleared, not sliced: deleting a slice
    holds a buffer of the deleted pointers, and all of them there.

    A vertex's tails depend only on its letter set (for a multiset, on its
    sorted symbols), so a cursor is an iterator over one tuple of tails
    built per letter set and shared by its s! vertices: each edge then
    costs no ``permutations`` tuple and no ``bytes`` object of its own.  The
    tables are kept within ``TABLE_TAILS_PER_EDGE``; once it is spent, and
    at s = 1, where no two vertices share a letter set, a new letter set's
    vertices each get a lazy cursor over ``completions``.
    The tails come in the same order either way.  Memory is O(vertices)
    plus a few bytes per edge.
    """
    params = g.params
    s, stride = params.s, params.k - params.s
    if params.n <= 255:
        key, trail, out = bytes, bytearray(), bytearray(g.edge_count * stride)
    else:
        key, trail, out = tuple, [], [0] * (g.edge_count * stride)
    tables = {}
    # at s = 1 a letter set is a single vertex, so a table would serve one
    # cursor and save nothing
    room = g.edge_count * TABLE_TAILS_PER_EDGE if s > 1 else 0

    def cursor(v):
        nonlocal room
        letters = key(sorted(v))
        table = tables.get(letters)
        if table is None:
            if room <= 0:
                return map(key, completions(v, stride, params))
            table = tables[letters] = tuple(map(key, completions(v, stride, params)))
            room -= len(table)
        return iter(table)

    start = key(min_vertex(params))
    entry = (start, cursor(start))
    cursors = {start: entry}
    stack = [entry]
    pos = len(out)
    wide = stride >= s  # the next vertex lies inside the tail: one slice
    while True:
        tail = next(entry[1], None)
        if tail is None:
            # the step into this vertex is finished, and so is each step
            # before it down to the topmost vertex with a tail left; when
            # every edge is taken, that is the whole trail
            found = None
            if len(trail) < pos:  # an edge is left
                below = reversed(stack)
                next(below)  # the top, which has no tail
                tails = map(next, map(itemgetter(1), below), repeat(None))
                found = next(filter(itemgetter(1), zip(count(1), tails)), None)
            if found is None:  # the walk ends: the whole trail is finished
                out[pos - len(trail) : pos] = trail
                pos -= len(trail)
                trail.clear()
                stack.clear()
                break
            depth, tail = found
            entry = stack[-1 - depth]
            del stack[-depth:]
            run = depth * stride
            out[pos - run : pos] = trail[-run:]
            del trail[-run:]
            pos -= run
        trail += tail
        v = tail[-s:] if wide else (entry[0] + tail)[-s:]
        entry = cursors.get(v)
        if entry is None:
            entry = cursors[v] = (v, cursor(v))
        stack.append(entry)
    # the tails in tour order, rotated right by s so that window 0 is the
    # first word: cyclically the start vertex precedes the first tail
    if key is bytes:
        tails = memoryview(out)[pos:]
        symbols = b"".join((tails[-s:], tails[:-s]))
    else:
        tails = out[pos:]
        symbols = tuple(tails[-s:] + tails[:-s])
    cycle = OverlapCycle(symbols, params)
    if pos:
        raise TourIncomplete(cycle.object_count, g.edge_count, cycle)
    return cycle


def tour_to_cycle(cycle: OverlapCycle) -> OverlapCycle:
    """The cycle itself: ``euler_tour`` already returns the cycle string."""
    return cycle
