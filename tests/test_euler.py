import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocycles import euler
from ocycles.core import enumerate_objects, min_vertex, object_count, validate_params
from ocycles.graph import build_graph
from ocycles.euler import TourIncomplete, euler_tour, tour_to_cycle
from conftest import decode_cycle, decode_symbols, guaranteed_instances


def tour_of(**kwargs):
    p = validate_params(**kwargs)
    return p, euler_tour(build_graph(p))


def reference_tour(g):
    """The words of the tour from the minimum vertex, complete or partial,
    found by a vertex-stack and edge-stack traversal whose cursors run
    through the objects sharing each prefix, in lexicographic order."""
    s = g.params.s
    out_words = {}
    for w in enumerate_objects(g.params):
        out_words.setdefault(w[:s], []).append(w)
    cursors = {}
    vertex_stack = [min_vertex(g.params)]
    edge_stack = []
    tour = []
    while vertex_stack:
        v = vertex_stack[-1]
        if v not in cursors:
            cursors[v] = iter(out_words.get(v, ()))
        word = next(cursors[v], None)
        if word is None:
            vertex_stack.pop()
            if edge_stack:
                tour.append(edge_stack.pop())
        else:
            vertex_stack.append(word[-s:])
            edge_stack.append(word)
    tour.reverse()
    return tour


class TestEulerTour:
    def test_kperm_3_2_1(self):
        p, t = tour_of(n=3, k=2, s=1)
        assert len(t.edges) == 6
        assert t.edges[0][:1] == min_vertex(p) == (1,)
        # frozen deterministic tour (lexicographic successor consumption)
        assert list(t.edges) == [
            (1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (3, 1),
        ]

    def test_full_perm_120_edges(self):
        p, t = tour_of(n=5, k=5, s=3)
        assert len(t.edges) == 120

    def test_multiset_112(self):
        p, t = tour_of(multiset=(1, 1, 2), s=1)
        assert list(t.edges) == [(1, 1, 2), (2, 1, 1), (1, 2, 1)]

    def test_chaining_and_coverage(self):
        for kwargs in (dict(n=6, k=4, s=2), dict(n=5, k=5, s=2), dict(multiset=(1, 1, 2, 2, 3), s=2)):
            p, t = tour_of(**kwargs)
            s = p.s
            for a, b in zip(t.edges, t.edges[1:] + t.edges[:1]):
                assert a[-s:] == b[:s]
            assert Counter(t.edges) == Counter(enumerate_objects(p))

    def test_deterministic(self):
        p = validate_params(n=6, k=4, s=2)
        t1 = euler_tour(build_graph(p))
        t2 = euler_tour(build_graph(p))
        assert t1 == t2

    def test_incomplete_on_disconnected_instance(self):
        # full permutations of [4] with s=2 split into three components
        p = validate_params(n=4, k=4, s=2)
        with pytest.raises(TourIncomplete) as e:
            euler_tour(build_graph(p))
        assert e.value.total == 24
        assert 0 < e.value.used < 24
        partial = e.value.partial
        for a, b in zip(partial.edges, partial.edges[1:] + partial.edges[:1]):
            assert a[-2:] == b[:2]


class TestReferenceTraversal:
    def test_guaranteed_instances_match_word_for_word(self):
        for p in guaranteed_instances(max_n=6):
            g = build_graph(p)
            assert list(euler_tour(g).edges) == reference_tour(g), p

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=4, k=4, s=2), dict(n=6, k=6, s=4), dict(multiset=(1, 2, 3, 4), s=2)],
    )
    def test_partial_tours_match(self, kwargs):
        g = build_graph(validate_params(**kwargs))
        with pytest.raises(TourIncomplete) as e:
            euler_tour(g)
        assert list(e.value.partial.edges) == reference_tour(g)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, k=5, s=4),
            dict(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4),
            dict(n=9, k=6, s=3),
            dict(n=8, k=8, s=4),
        ],
    )
    def test_tours_that_backtrack_mid_tour_match(self, kwargs):
        # the walk gets stuck 56, 16, 20 and 2 times, each time with edges
        # left but for the last, and backs down a run of finished steps.
        # (8,8,4) is disconnected: its walk reaches the letter sets 1..4 and
        # 5..8 only, both linked at the default budget, and ends after 1,152
        # of 40,320 edges.  On a connected instance the reference covers
        # every edge, so a partial tour cannot match it.
        g = build_graph(validate_params(**kwargs))
        try:
            tour = euler_tour(g)
        except TourIncomplete as e:
            tour = e.partial
        assert list(tour.edges) == reference_tour(g)


class TestListBranch:
    """Above n = 255 the tour runs over lists and tuple keys.  Relabelling
    the symbols monotonically keeps every cursor's order, so the byte tour of
    the relabelled multiset is the same tour, complete or partial."""

    @pytest.mark.parametrize(
        "wide, narrow, complete",
        [
            ((1, 1, 2, 2, 300), (1, 1, 2, 2, 3), True),  # small-overlap
            ((1, 2, 3, 300), (1, 2, 3, 4), False),  # open case, disconnected
        ],
    )
    def test_matches_the_byte_branch(self, wide, narrow, complete):
        relabel = dict(zip(wide, narrow))

        def run(multiset):
            g = build_graph(validate_params(multiset=multiset, s=2))
            try:
                return g, euler_tour(g), None
            except TourIncomplete as e:
                return g, e.partial, e

        wide_graph, wide_tour, wide_error = run(wide)
        _, narrow_tour, narrow_error = run(narrow)
        assert type(wide_tour.symbols) is tuple and type(narrow_tour.symbols) is bytes
        assert tuple(map(relabel.get, wide_tour.symbols)) == tuple(narrow_tour.symbols)
        relabelled = [tuple(map(relabel.get, w)) for w in wide_tour.edges]
        assert relabelled == list(narrow_tour.edges)
        assert list(wide_tour.edges) == reference_tour(wide_graph)
        if complete:
            assert wide_error is None and narrow_error is None
        else:
            assert (wide_error.used, wide_error.total) == (narrow_error.used, narrow_error.total)
            assert wide_error.used == len(wide_tour.edges) < wide_error.total


# no table; tables that run out mid-tour; a table for every letter set
BUDGETS = [0, 1 / 4, math.inf]


@pytest.fixture(params=BUDGETS, ids=["no-table", "runs-out", "unlimited"])
def table_budget(request, monkeypatch):
    monkeypatch.setattr(euler, "TABLE_TAILS_PER_EDGE", request.param)
    return request.param


@pytest.mark.usefixtures("table_budget")
class TestReferenceTraversalAtBudgets(TestReferenceTraversal):
    """The word-for-word checks with the tail tables' budget at each extreme
    and spent mid-tour: shared and lazy cursors give the same tails."""


@pytest.mark.usefixtures("table_budget")
class TestListBranchAtBudgets(TestListBranch):
    """The tuple-keyed tables of the list branch at the same budgets."""


@st.composite
def small_instances(draw):
    """A k-permutation instance with n <= 7 or a multiset of up to 7 symbols
    from 1..4, with any overlap; complete or disconnected."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        k = draw(st.integers(2, n))
        return validate_params(n=n, k=k, s=draw(st.integers(1, k - 1)))
    multiset = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=2, max_size=7))))
    return validate_params(multiset=multiset, s=draw(st.integers(1, len(multiset) - 1)))


def tour_or_partial(p, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler, "TABLE_TAILS_PER_EDGE", budget)
        try:
            return euler_tour(build_graph(p)), None
        except TourIncomplete as e:
            return e.partial, (e.used, e.total)


class TestTableBudget:
    def test_tables_are_shared_until_the_budget_is_spent(self, table_budget, monkeypatch):
        # (6,4,2): 30 vertices, 15 letter sets, 12 tails each, 360 edges; a
        # budget of 90 tails builds 8 tables, and the other 7 letter sets'
        # vertices each get a lazy cursor
        calls = []
        completions = euler.completions

        def counted(v, length, params):
            calls.append(tuple(sorted(v)))
            return completions(v, length, params)

        monkeypatch.setattr(euler, "completions", counted)
        p, t = tour_of(n=6, k=4, s=2)
        assert list(t.edges) == reference_tour(build_graph(p))
        assert len(set(calls)) == 15
        assert len(calls) == {0: 30, 1 / 4: 8 + 7 * 2, math.inf: 15}[table_budget]

    @given(p=small_instances(), budget=st.one_of(st.floats(0, 1), st.just(math.inf)))
    @settings(max_examples=150, deadline=None)
    def test_any_budget_gives_the_lazy_tour(self, p, budget):
        assert tour_or_partial(p, budget) == tour_or_partial(p, 0)


class TestSharedState:
    def test_tours_in_two_threads_match_the_sequential_ones(self):
        # distinct calls share no mutable state: each call links its own
        # tables and cursors.  Both instances take the linked walk; a short
        # switch interval makes the two threads take turns within each tour
        graphs = [
            build_graph(validate_params(n=9, k=6, s=3)),
            build_graph(validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)),
        ]
        sequential = [euler_tour(g) for g in graphs]
        start = threading.Barrier(len(graphs))
        results = [[] for _ in graphs]

        def run(g, out):
            start.wait()
            out.extend(euler_tour(g) for _ in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=pair) for pair in zip(graphs, results)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert results == [[tour] * 3 for tour in sequential]


class TestCycleString:
    def test_kperm_3_2_1_string(self):
        p, t = tour_of(n=3, k=2, s=1)
        c = tour_to_cycle(t)
        assert tuple(c.symbols) == (1, 2, 1, 3, 2, 3)
        assert c.object_count == 6

    def test_length_formula(self):
        for kwargs in (dict(n=5, k=5, s=3), dict(n=3, k=2, s=1), dict(n=6, k=4, s=1)):
            p, t = tour_of(**kwargs)
            c = tour_to_cycle(t)
            assert len(c.symbols) == (p.k - p.s) * object_count(p)

    def test_round_trip_in_tour_order(self):
        for kwargs in (dict(n=5, k=4, s=2), dict(n=5, k=5, s=3), dict(multiset=(1, 1, 1, 2, 2, 2), s=2)):
            p, t = tour_of(**kwargs)
            decoded = list(decode_cycle(tour_to_cycle(t)))
            assert decoded == list(t.edges)

    def test_start_vertex_opens_the_string(self):
        p, t = tour_of(n=5, k=4, s=2)
        c = tour_to_cycle(t)
        # the start vertex, the minimum one (trailing s symbols of the final
        # edge) leads the aligned string, so the window at offset 0 is the
        # first word and the final word's suffix wraps around onto it
        assert tuple(c.symbols[: p.s]) == min_vertex(p)
        assert min_vertex(p) == t.edges[-1][-p.s:]
        assert tuple(c.symbols[: p.k]) == t.edges[0]


class TestDecode:
    def test_hand_decoded_example(self):
        words = list(decode_symbols((1, 2, 1, 3, 2, 3), 2, 1))
        assert words == [(1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (3, 1)]

    def test_divisibility_error(self):
        with pytest.raises(ValueError, match="divisible"):
            list(decode_symbols((1, 2, 3, 4, 5), 4, 2))

    def test_single_object_cycle(self):
        p = validate_params(multiset=(1, 1, 1), s=1)
        t = euler_tour(build_graph(p))
        assert len(t.edges) == 1
        c = tour_to_cycle(t)
        # one word contributes its trailing k-s symbols
        assert tuple(c.symbols) == t.edges[0][p.s:]
        assert list(decode_cycle(c)) == [(1, 1, 1)]

    def test_generator_verifier_closure(self):
        for p in guaranteed_instances(max_n=6):
            t = euler_tour(build_graph(p))
            c = tour_to_cycle(t)
            assert Counter(decode_cycle(c)) == Counter(enumerate_objects(p))


class TestScale:
    def test_forty_thousand_edges(self):
        # guards against accidental quadratic behavior in the traversal
        p = validate_params(n=8, k=8, s=3)
        t = euler_tour(build_graph(p))
        assert len(t.edges) == 40320
        c = tour_to_cycle(t)
        assert len(c.symbols) == 5 * 40320

    def test_open_region_probes_report_disconnection(self):
        # outside every known guarantee the attempt is made anyway and the
        # reachable component size is reported
        for kwargs, component in [
            (dict(n=6, k=6, s=4), 24),
            (dict(n=6, k=6, s=3), 72),
            (dict(multiset=(1, 2, 3, 4), s=2), 8),
        ]:
            p = validate_params(**kwargs)
            with pytest.raises(TourIncomplete) as e:
                euler_tour(build_graph(p))
            assert e.value.used == component
