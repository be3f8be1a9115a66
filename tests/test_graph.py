import dataclasses
from collections import Counter

import pytest

from ocycles import (
    Edge,
    build_graph,
    edge_for_word,
    enumerate_objects,
    validate_params,
    vertex_count,
)
from ocycles.cli import main
from ocycles.core import completions
from conftest import brute_objects, check_balance, guaranteed_instances


def stats_out_degree(p, capsys):
    """The out-degree line that ``ocycles stats`` prints for a k-permutation instance."""
    assert main(["stats", "--n", str(p.n), "--k", str(p.k), "--s", str(p.s)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return int(next(line for line in lines if line.startswith("out-degree: ")).split(": ")[1])


class TestOutDegree:
    @pytest.mark.parametrize(
        "kwargs, vertex, expected",
        [
            (dict(n=3, k=2, s=1), (1,), 2),
            (dict(n=5, k=5, s=3), (1, 2, 3), 2),
            (dict(n=6, k=4, s=2), (1, 2), 12),
        ],
    )
    def test_examples(self, kwargs, vertex, expected, capsys):
        p = validate_params(**kwargs)
        assert stats_out_degree(p, capsys) == expected
        assert sum(1 for w in enumerate_objects(p) if w[: p.s] == vertex) == expected

    def test_matches_brute_force_count(self, capsys):
        for kwargs in (dict(n=5, k=3, s=2), dict(n=5, k=5, s=2), dict(n=6, k=4, s=1)):
            p = validate_params(**kwargs)
            by_prefix = Counter(w[: p.s] for w in enumerate_objects(p))
            assert set(by_prefix.values()) == {stats_out_degree(p, capsys)}


class TestSuccessors:
    def test_small_example(self):
        p = validate_params(n=3, k=2, s=1)
        assert [(1,) + t for t in completions((1,), p.k - p.s, p)] == [(1, 2), (1, 3)]

    def test_full_perm_example(self):
        p = validate_params(n=5, k=5, s=3)
        v = (1, 2, 3)
        assert [v + t for t in completions(v, p.k - p.s, p)] == [(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)]

    def test_multiset_example(self):
        p = validate_params(multiset=(1, 1, 2), s=1)
        assert [(1,) + t for t in completions((1,), p.k - p.s, p)] == [(1, 1, 2), (1, 2, 1)]

    def test_against_enumeration_filter(self):
        # independent oracle: the words leaving v, as the graph hands them
        # out, must be the lexicographic sublist of all objects (found by
        # brute force) whose prefix is v, and each wraps as the edge holding
        # that word
        for kwargs in (dict(n=5, k=3, s=1), dict(n=4, k=4, s=2), dict(multiset=(1, 1, 2, 2), s=1)):
            p = validate_params(**kwargs)
            objects = brute_objects(p)
            seen_vertices = {w[: p.s] for w in objects}
            for v in seen_vertices:
                expected = [w for w in objects if w[: p.s] == v]
                assert [v + tail for tail in completions(v, p.k - p.s, p)] == expected
                assert [edge_for_word(w, p) for w in expected] == [Edge(w) for w in expected]

    def test_predecessors_mirror(self):
        p = validate_params(n=4, k=3, s=2)
        objects = brute_objects(p)
        for v in {w[-p.s:] for w in objects}:
            expected = sorted(w for w in objects if w[-p.s:] == v)
            assert [head + v for head in completions(v, p.k - p.s, p)] == expected


class TestEdgeForWord:
    def test_round_trips_with_successors(self):
        # the edges built from v's completions, in order, are the objects
        # that share the prefix v, in lexicographic order; an edge is its word
        for kwargs in (dict(n=5, k=4, s=2), dict(multiset=(1, 1, 2, 2, 3), s=2)):
            p = validate_params(**kwargs)
            by_prefix = {}
            for w in brute_objects(p):
                by_prefix.setdefault(w[: p.s], []).append(w)
            for v, listed in by_prefix.items():
                edges = [edge_for_word(v + t, p) for t in completions(v, p.k - p.s, p)]
                assert edges == [Edge(w) for w in listed]
        assert [f.name for f in dataclasses.fields(Edge)] == ["word"]

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
        p = validate_params(**kwargs)
        g = build_graph(p)
        report = check_balance(p)
        assert report.balanced
        assert report.violations == []
        assert report.prefixes_match_suffixes
        assert report.edge_count == g.edge_count
        assert report.vertex_count == vertex_count(p)

    def test_uniform_degrees_small(self):
        g = build_graph(validate_params(n=3, k=2, s=1))
        degrees = Counter()
        for w in enumerate_objects(g.params):
            degrees[w[:1]] += 1
        assert set(degrees.values()) == {2}

    def test_all_guaranteed_instances_balanced(self):
        for p in guaranteed_instances(max_n=6):
            report = check_balance(p)
            assert report.balanced, p
