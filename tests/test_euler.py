from collections import Counter

import pytest

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


class TestCycleString:
    def test_kperm_3_2_1_string(self):
        p, t = tour_of(n=3, k=2, s=1)
        c = tour_to_cycle(t)
        assert c.symbols == (1, 2, 1, 3, 2, 3)
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
        assert c.symbols[: p.s] == min_vertex(p)
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
        assert c.symbols == t.edges[0][p.s:]
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
