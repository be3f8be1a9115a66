"""Euler tours over the transition graph and their compressed cycle strings.

A closed tour that uses every edge exactly once is exactly an overlap cycle:
writing, for each word on the tour, only the k-s symbols that extend past the
shared overlap produces the cyclic string form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, repeat
from operator import itemgetter

from .core import (
    InstanceParams,
    SymbolString,
    Windows,
    completions,
    min_vertex,
)
from .graph import TransitionGraph


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


class _Positions(dict):
    """Each vertex's position in ``cursors``.  A vertex looked up for the
    first time gets the next position and its cursor from ``make``, so that
    a ``map`` over ``__getitem__`` finds or makes positions in C."""

    __slots__ = ("cursors", "make")

    def __missing__(self, v):
        i = self[v] = len(self.cursors)
        self.cursors.append(self.make(v))
        return i


def _unwind(stack, cursors, trail, out, pos, stride):
    """Where the walk is stuck, move its finished steps from the trail into
    the output, which fills from `pos` down.  Returns the new `pos` and the
    next item of the topmost cursor with one left, or None if there is none.

    `cursors` runs over the stack's cursors from the top down.  The step
    into the top vertex is finished, and so is each step before it down to
    the topmost vertex with a tail left, whose entry stays on the stack.
    When every edge is taken, which the lengths of the trail and the output
    tell, or no cursor has a tail left, the walk ends: the whole trail is
    finished, and the stack is cleared, not sliced, since deleting a slice
    holds a buffer of the deleted pointers, and there all of them.
    """
    found = None
    if len(trail) < pos:  # an edge is left
        next(cursors)  # the top, which has no tail
        items = map(next, cursors, repeat(None))
        found = next(filter(itemgetter(1), zip(count(1), items)), None)
    if found is None:
        out[pos - len(trail) : pos] = trail
        pos -= len(trail)
        trail.clear()
        stack.clear()
        return pos, None
    depth, item = found
    del stack[-depth:]
    run = depth * stride
    out[pos - run : pos] = trail[-run:]
    del trail[-run:]
    return pos - run, item


def _linked_walk(params, key, trail, out):
    """The walk where k - s >= s >= 3; returns where the output starts.

    A cursor yields a tail and then the position in ``cursors`` of the
    cursor of the vertex the tail leads to.  A table is a list of its
    letter set's tails, each followed by that position, linked by a
    worklist before the walk, and a vertex's cursor is an iterator over its
    table: a step is two ``next`` calls, one ``+=``, one index and one
    ``append``.  A ``zip`` of a tails iterator and a heads iterator would
    cost about 270 traced bytes more per vertex, 5 B per object on the
    multiset 1,1,2,2,3,3,4,4,5.  The heads are positions, not cursors, so
    that no cursor holds another and nothing is left to the cycle
    collector.
    """
    s, stride = params.s, params.k - params.s
    tables = {}
    unlinked = []  # tables whose heads are not linked yet

    def cursor(v):
        # an iterator over v's letter set's table, whose heads the worklist
        # below links
        letters = key(sorted(v))
        table = tables.get(letters)
        if table is None:
            tails = tuple(map(key, completions(v, stride, params)))
            table = tables[letters] = [None] * (2 * len(tails))
            table[::2] = tails
            unlinked.append(table)
        return iter(table)

    positions = _Positions()
    positions.cursors = cursors = []
    positions.make = cursor
    cur = cursors[positions[key(min_vertex(params))]]
    head = itemgetter(slice(-s, None))
    while unlinked:  # a lookup may make a table, and add it here
        table = unlinked.pop()
        tails = islice(table, 0, None, 2)
        table[1::2] = map(positions.__getitem__, map(head, tails))
    positions.clear()  # every cursor is linked: none is looked up again
    stack = [cur]
    pos = len(out)
    while True:
        try:
            tail = next(cur)
        except StopIteration:
            pos, tail = _unwind(stack, reversed(stack), trail, out, pos, stride)
            if tail is None:
                return pos
            cur = stack[-1]
        trail += tail
        cur = cursors[next(cur)]
        stack.append(cur)


def _walk(params, key, trail, out):
    """The walk where k - s < s or s <= 2, whose cursors yield bare tails
    and whose every step slices and looks up its head; returns where the
    output starts.  At s >= 3 a cursor reads its letter set's table, and
    at s <= 2 it is lazy, over ``completions``."""
    s, stride = params.s, params.k - params.s
    tables = {}

    def cursor(v):
        if s <= 2:
            return map(key, completions(v, stride, params))
        letters = key(sorted(v))
        table = tables.get(letters)
        if table is None:
            table = tables[letters] = tuple(map(key, completions(v, stride, params)))
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
            below = map(itemgetter(1), reversed(stack))
            pos, tail = _unwind(stack, below, trail, out, pos, stride)
            if tail is None:
                return pos
            entry = stack[-1]
        trail += tail
        v = tail[-s:] if wide else (entry[0] + tail)[-s:]
        entry = cursors.get(v)
        if entry is None:
            entry = cursors[v] = (v, cursor(v))
        stack.append(entry)


def euler_tour(g: TransitionGraph) -> OverlapCycle:
    """Closed tour using every edge exactly once (Hierholzer, iterative).

    Each object is the edge from its s-prefix to its s-suffix, so the tour is
    a sequence of words.  It starts at the minimum vertex, and every vertex
    keeps a cursor over its tails (the k-s symbols completing it to an
    object) in lexicographic order, so the result is deterministic.  The
    tour is returned as its cycle string, an ``OverlapCycle``.

    The tour is kept in its cycle-string form, one byte per symbol when
    n <= 255 (lists and tuples otherwise).  The open trail holds each
    step's tail, and a stack holds the cursor of the vertex each step
    reached, one pointer per step.  When the walk reaches a vertex with no
    tail left, ``_unwind`` moves the steps it finishes, the last r on the
    trail, into the output, which fills from the end, in one slice; one
    C-level pass over the stack finds the vertex to go on from.

    A vertex's tails depend only on its letter set (for a multiset, on its
    sorted symbols).  Where s >= 3 a table of them is built once per letter
    set and shared by its vertices: each edge then costs no
    ``permutations`` tuple and no ``bytes`` object of its own.  A
    k-permutation's letter set has s! >= 6 vertices, so its tables hold at
    most one tail per 6 edges, and a multiset's at most one per edge.  At
    s <= 2 a letter set has at most two vertices, so a table would be read
    by at most two cursors and hold a tail for every one or two edges:
    tables there read 37.0 traced bytes per object at (12,5,2) and 61.4 at
    (9,5,1), against 15.5 and 16.6 with lazy cursors.  So at s <= 2 every
    cursor is lazy, over ``completions``.  The tails come in the same
    order either way.

    When k - s >= s, a tail's last s symbols are the vertex it leads to,
    whatever vertex it leaves.  For s >= 3 ``_linked_walk`` links each
    table to its heads' cursors once, before the walk, so a step needs no
    slice and no lookup.  When k - s < s the head depends on the vertex
    too, and at s <= 2 there is no table to link.  There ``_walk`` slices
    and looks up every step's head.
    Memory is O(vertices) plus a few bytes per edge.
    """
    params = g.params
    s, stride = params.s, params.k - params.s
    if params.n <= 255:
        key, trail, out = bytes, bytearray(), bytearray(g.edge_count * stride)
    else:
        key, trail, out = tuple, [], [0] * (g.edge_count * stride)
    walk = _linked_walk if stride >= s > 2 else _walk
    pos = walk(params, key, trail, out)
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
