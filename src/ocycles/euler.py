"""Euler tours over the transition graph and their compressed cycle strings.

A closed tour that uses every edge exactly once is exactly an overlap cycle:
writing, for each word on the tour, only the k-s symbols that extend past the
shared overlap produces the cyclic string form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat
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
out-degree.  A tail in a table is a ``bytes`` object and a pointer, plus a
pointer to its head's position where the walk is linked (k - s >= s >= 3),
about 56 B, so edge_count / 8 of them cost about 7 B per object.

A table saves work only where the s! vertices of its letter set share it,
but it holds one tail per s! edges: without the budget the tables grow with
the edge count at s = 2.  At s = 1 a letter set is one vertex, so no table
is built: tables at (9,5,1) read 26.4 traced bytes per object within the
budget and 61.3 without it, against 16.3 with lazy cursors.  Traced tour
peaks elsewhere (lazy cursors / budget / no budget), each the second tour
in its process: (12,5,2) 15.1 / 20.7 / 36.9, (8,8,3) 22.2 / 26.8 / 28.3,
and (10,5,4) 79.2 / 37.5 / 37.5, where each vertex's ``permutations``
iterator outweighs the tables.
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


def _linked_walk(params, key, room, trail, out):
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
    collector.  A lazy cursor yields None in place of the position, and the
    walk slices and looks up the head of that tail.
    """
    s, stride = params.s, params.k - params.s
    tables = {}
    unlinked = []  # tables whose heads are not linked yet

    def cursor(v):
        # an iterator over v's letter set's table, whose heads the worklist
        # below links, or once the budget is spent a lazy one
        nonlocal room
        letters = key(sorted(v))
        table = tables.get(letters)
        if table is None:
            tails = map(key, completions(v, stride, params))
            if room <= 0:
                return chain.from_iterable(zip(tails, repeat(None)))
            tails = tuple(tails)
            table = tables[letters] = [None] * (2 * len(tails))
            table[::2] = tails
            unlinked.append(table)
            room -= len(tails)
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
    if room > 0:  # every cursor is linked: none is looked up again
        positions.clear()
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
        i = next(cur)
        if i is None:  # a lazy cursor's tail
            i = positions[tail[-s:]]
        cur = cursors[i]
        stack.append(cur)


def _walk(params, key, room, trail, out):
    """The walk where k - s < s or s <= 2, whose cursors yield bare tails
    and whose every step slices and looks up its head; returns where the
    output starts."""
    s, stride = params.s, params.k - params.s
    tables = {}

    def cursor(v):
        # an iterator over the tails of v's letter set's table, or once the
        # budget is spent a lazy one over completions
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
    sorted symbols), so a table of them is built once per letter set and
    shared by its s! vertices: each edge then costs no ``permutations``
    tuple and no ``bytes`` object of its own.  The tables are kept within
    ``TABLE_TAILS_PER_EDGE``; once it is spent, and at s = 1, where no two
    vertices share a letter set, a vertex gets a lazy cursor over
    ``completions``.  The tails come in the same order either way.

    When k - s >= s, a tail's last s symbols are the vertex it leads to,
    whatever vertex it leaves.  For s >= 3 ``_linked_walk`` links each
    table to its heads' cursors once, before the walk, so a step needs no
    slice and no lookup.  When k - s < s the head depends on the vertex
    too; at s <= 2 a table serves at most two vertices, and the budget
    holds about a quarter of the tables at s = 2, so linking did not pay.
    There ``_walk`` slices and looks up every step's head.
    Memory is O(vertices) plus a few bytes per edge.
    """
    params = g.params
    s, stride = params.s, params.k - params.s
    if params.n <= 255:
        key, trail, out = bytes, bytearray(), bytearray(g.edge_count * stride)
    else:
        key, trail, out = tuple, [], [0] * (g.edge_count * stride)
    # at s = 1 a letter set is a single vertex, so a table would serve one
    # cursor and save nothing
    room = g.edge_count * TABLE_TAILS_PER_EDGE if s > 1 else 0
    walk = _linked_walk if stride >= s > 2 else _walk
    pos = walk(params, key, room, trail, out)
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
