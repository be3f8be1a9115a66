from collections import Counter

import pytest

from ocycles import (
    Edge,
    build_graph,
    check_balance,
    edge_for_word,
    enumerate_objects,
    out_degree,
    validate_params,
)
from ocycles.graph import _completions
from conftest import guaranteed_instances


class TestOutDegree:
    @pytest.mark.parametrize(
        "kwargs, vertex, expected",
        [
            (dict(n=3, k=2, s=1), (1,), 2),
            (dict(n=5, k=5, s=3), (1, 2, 3), 2),
            (dict(n=6, k=4, s=2), (1, 2), 12),
            (dict(multiset=(1, 1, 2), s=1), (1,), 2),
            (dict(multiset=(1, 1, 2), s=1), (2,), 1),
        ],
    )
    def test_examples(self, kwargs, vertex, expected):
        g = build_graph(validate_params(**kwargs))
        assert out_degree(vertex, g) == expected

    def test_matches_brute_force_count(self):
        for kwargs in (dict(n=5, k=3, s=2), dict(multiset=(1, 1, 2, 2, 3), s=2)):
            p = validate_params(**kwargs)
            g = build_graph(p)
            by_prefix = Counter(w[: p.s] for w in enumerate_objects(p))
            for v, count in by_prefix.items():
                assert out_degree(v, g) == count

    def test_invalid_vertex(self):
        g = build_graph(validate_params(n=3, k=2, s=1))
        with pytest.raises(ValueError):
            out_degree((9,), g)


def words_by_ordinal(v, p):
    """The objects with prefix v, each placed at its edge ordinal."""
    words = [w for w in enumerate_objects(p) if w[: p.s] == v]
    placed = [None] * len(words)
    for w in words:
        placed[edge_for_word(w, p).ordinal] = w
    return placed


class TestSuccessors:
    def test_small_example(self):
        p = validate_params(n=3, k=2, s=1)
        assert words_by_ordinal((1,), p) == [(1, 2), (1, 3)]

    def test_full_perm_example(self):
        p = validate_params(n=5, k=5, s=3)
        assert words_by_ordinal((1, 2, 3), p) == [(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)]

    def test_multiset_example(self):
        p = validate_params(multiset=(1, 1, 2), s=1)
        assert words_by_ordinal((1,), p) == [(1, 1, 2), (1, 2, 1)]

    def test_against_enumeration_filter(self):
        # independent oracle: the words leaving v, as the graph hands them
        # out, must be the lexicographic sublist of all objects whose prefix
        # is v, and each edge's ordinal its index in that sublist
        for kwargs in (dict(n=5, k=3, s=1), dict(n=4, k=4, s=2), dict(multiset=(1, 1, 2, 2), s=1)):
            p = validate_params(**kwargs)
            objects = list(enumerate_objects(p))
            seen_vertices = {w[: p.s] for w in objects}
            for v in seen_vertices:
                expected = [w for w in objects if w[: p.s] == v]
                assert [v + tail for tail in _completions(v, p)] == expected
                got = [edge_for_word(w, p) for w in expected]
                assert [e.ordinal for e in got] == list(range(len(got)))
                assert all(e.source == v and e.target == e.word[-p.s:] for e in got)

    def test_predecessors_mirror(self):
        p = validate_params(n=4, k=3, s=2)
        objects = list(enumerate_objects(p))
        for v in {w[-p.s:] for w in objects}:
            expected = sorted(w for w in objects if w[-p.s:] == v)
            assert [head + v for head in _completions(v, p)] == expected


class TestEdgeForWord:
    def test_round_trips_with_successors(self):
        # an edge's ordinal is its word's index among the objects that share
        # its prefix, in lexicographic order
        for kwargs in (dict(n=5, k=4, s=2), dict(multiset=(1, 1, 2, 2, 3), s=2)):
            p = validate_params(**kwargs)
            by_prefix = {}
            for w in enumerate_objects(p):
                by_prefix.setdefault(w[: p.s], []).append(w)
            for v, listed in by_prefix.items():
                for i, w in enumerate(listed):
                    assert edge_for_word(w, p) == Edge(w, v, w[-p.s:], i)

    def test_rejects_non_object(self):
        p = validate_params(n=4, k=3, s=1)
        with pytest.raises(ValueError):
            edge_for_word((1, 1, 2), p)


class TestBalance:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=3, k=2, s=1), dict(n=5, k=5, s=3), dict(n=6, k=4, s=3)],
    )
    def test_examples_balanced(self, kwargs):
        g = build_graph(validate_params(**kwargs))
        report = check_balance(g)
        assert report.balanced
        assert report.violations == []
        assert report.prefixes_match_suffixes
        assert report.edge_count == g.edge_count
        assert report.vertex_count == g.vertex_count

    def test_uniform_degrees_small(self):
        g = build_graph(validate_params(n=3, k=2, s=1))
        degrees = Counter()
        for w in enumerate_objects(g.params):
            degrees[w[:1]] += 1
        assert set(degrees.values()) == {2}

    def test_all_guaranteed_instances_balanced(self):
        for p in guaranteed_instances(max_n=6):
            report = check_balance(build_graph(p))
            assert report.balanced, p
