import math
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocycles.core import (
    Feasibility,
    Mode,
    ParamError,
    Reason,
    completions,
    enumerate_objects,
    feasibility,
    is_valid_vertex,
    is_valid_word,
    kperm_rank,
    min_vertex,
    object_count,
    validate_params,
    vertex_count,
    vertices,
)
from conftest import brute_objects, guaranteed_instances


class TestValidateParams:
    def test_kperm_valid(self):
        p = validate_params(n=5, k=4, s=2)
        assert (p.mode, p.n, p.k, p.s) == (Mode.KPERM, 5, 4, 2)

    def test_s_must_be_below_k(self):
        with pytest.raises(ParamError, match="1 <= s < k"):
            validate_params(n=5, k=5, s=5)

    def test_k_must_not_exceed_n(self):
        with pytest.raises(ParamError, match="k <= n"):
            validate_params(n=4, k=5, s=2)

    def test_multiset_valid_and_normalized(self):
        p = validate_params(multiset=[3, 1, 1, 2], s=1)
        assert p.mode is Mode.MULTISET
        assert p.multiset == (1, 1, 2, 3)
        assert p.k == 4
        assert p.n == 3

    def test_multiset_must_be_nonempty(self):
        with pytest.raises(ParamError):
            validate_params(multiset=[], s=1)

    def test_multiset_symbols_positive(self):
        with pytest.raises(ParamError):
            validate_params(multiset=[0, 1, 2], s=1)

    def test_multiset_k_mismatch(self):
        with pytest.raises(ParamError, match="multiset size"):
            validate_params(multiset=[1, 1, 2], k=4, s=1)

    def test_s_required(self):
        with pytest.raises(ParamError):
            validate_params(n=5, k=4)


class TestFeasibility:
    @pytest.mark.parametrize(
        "kwargs, status, reason",
        [
            (dict(n=5, k=5, s=3), Feasibility.GUARANTEED, Reason.COPRIME_OVERLAP),
            (dict(n=6, k=4, s=2), Feasibility.GUARANTEED, Reason.PROPER_KPERM),
            (dict(n=6, k=6, s=4), Feasibility.UNKNOWN, Reason.OPEN_CASE),
            (dict(n=4, k=4, s=3), Feasibility.INFEASIBLE, Reason.UCYCLE_IMPOSSIBLE),
            (dict(n=5, k=5, s=2), Feasibility.GUARANTEED, Reason.SMALL_OVERLAP),
            (dict(multiset=(1, 1, 2, 3), s=1), Feasibility.GUARANTEED, Reason.SMALL_OVERLAP),
            (dict(multiset=(1, 2, 3, 4, 5), s=3), Feasibility.GUARANTEED, Reason.COPRIME_OVERLAP),
            (dict(multiset=(1, 1, 2, 2), s=2), Feasibility.UNKNOWN, Reason.OPEN_CASE),
            # s = k-1 but k = 2: the cycle "1 2" exists
            (dict(n=2, k=2, s=1), Feasibility.UNKNOWN, Reason.OPEN_CASE),
        ],
    )
    def test_classification(self, kwargs, status, reason):
        verdict = feasibility(validate_params(**kwargs))
        assert verdict.status is status
        assert verdict.reason is reason

    def test_guaranteed_iff_granting_reason(self):
        for p in guaranteed_instances():
            v = feasibility(p)
            assert v.status is Feasibility.GUARANTEED
            assert v.reason in (Reason.PROPER_KPERM, Reason.SMALL_OVERLAP, Reason.COPRIME_OVERLAP)


class TestEnumeration:
    def test_kperm_3_2_exact_list(self):
        p = validate_params(n=3, k=2, s=1)
        assert list(enumerate_objects(p)) == [
            (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
        ]

    def test_full_perm_count_5(self):
        p = validate_params(n=5, k=5, s=3)
        assert object_count(p) == 120
        assert len(list(enumerate_objects(p))) == 120

    def test_multiset_112_exact_list(self):
        p = validate_params(multiset=[1, 1, 2], s=1)
        assert list(enumerate_objects(p)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8) for k in range(1, n + 1) if k >= 2])
    def test_kperm_counts_against_brute_force(self, n, k):
        p = validate_params(n=n, k=k, s=1)
        brute = set(permutations(range(1, n + 1), k))
        got = list(enumerate_objects(p))
        assert len(got) == len(brute) == object_count(p)
        assert set(got) == brute
        assert got == sorted(got)

    @pytest.mark.parametrize("m", [(1, 1, 2), (1, 1, 2, 2), (1, 2, 3), (1, 1, 1, 2, 3)])
    def test_multiset_counts_against_brute_force(self, m):
        p = validate_params(multiset=m, s=1)
        brute = sorted(set(permutations(m)))
        got = list(enumerate_objects(p))
        assert got == brute
        counts = Counter(m)
        expected = math.factorial(len(m))
        for c in counts.values():
            expected //= math.factorial(c)
        assert object_count(p) == expected


# kperm (5,3) and (4,4) and three multisets; s is only needed to validate
COMPLETION_INSTANCES = [
    dict(n=5, k=3, s=1),
    dict(n=4, k=4, s=1),
    dict(multiset=(1, 1, 2, 2), s=1),
    dict(multiset=(1, 1, 2, 3, 4), s=1),
    dict(multiset=(1, 1, 1, 2, 2, 2), s=1),
]


class TestCompletions:
    """``completions`` against the brute-force object list."""

    @pytest.mark.parametrize("kwargs", COMPLETION_INSTANCES)
    def test_every_prefix_and_length(self, kwargs):
        p = validate_params(**kwargs)
        objects = brute_objects(p)
        prefixes = {w[:i] for w in objects for i in range(p.k + 1)}
        for prefix in prefixes:
            i = len(prefix)
            below = [w for w in objects if w[:i] == prefix]
            for length in range(p.k - i + 1):
                expected = sorted({w[i : i + length] for w in below})
                assert list(completions(prefix, length, p)) == expected, (prefix, length)

    @pytest.mark.parametrize("kwargs", COMPLETION_INSTANCES)
    def test_vertices_min_vertex_and_count(self, kwargs):
        base = validate_params(**kwargs)
        objects = brute_objects(base)
        for s in range(1, base.k):
            p = validate_params(**{**kwargs, "s": s})
            expected = sorted({w[:s] for w in objects})
            assert list(vertices(p)) == expected
            assert min_vertex(p) == expected[0]
            assert vertex_count(p) == len(expected)


class TestValidity:
    """``is_valid_word`` and ``is_valid_vertex`` accept exactly the objects
    and their prefixes among all tuples over {0..n+1}."""

    @pytest.mark.parametrize(
        "kwargs", [dict(n=4, k=3), dict(n=4, k=4), dict(multiset=(1, 1, 2, 3))]
    )
    def test_against_brute_objects(self, kwargs):
        base = validate_params(**kwargs, s=1)
        objects = set(brute_objects(base))
        alphabet = range(base.n + 2)
        assert {w for w in product(alphabet, repeat=base.k) if is_valid_word(w, base)} == objects
        for s in range(1, base.k):
            p = validate_params(**kwargs, s=s)
            accepted = {v for v in product(alphabet, repeat=s) if is_valid_vertex(v, p)}
            assert accepted == {w[:s] for w in objects}, s


class TestRanking:
    def test_singleton_vertices(self):
        assert [kperm_rank((x,), range(1, 4)) for x in (1, 2, 3)] == [0, 1, 2]

    def test_vertex_count_5_3(self):
        p = validate_params(n=5, k=5, s=3)
        assert vertex_count(p) == 60

    def test_multiset_vertex_count(self):
        p = validate_params(multiset=[1, 1, 2], s=1)
        assert vertex_count(p) == 2
        assert list(vertices(p)) == [(1,), (2,)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=5, k=5, s=3),
            dict(n=7, k=4, s=2),
            dict(multiset=(1, 1, 2, 2, 3), s=2),
            dict(multiset=(1, 1, 1, 2, 2, 2), s=3),
        ],
    )
    def test_vertices_count_and_order(self, kwargs):
        p = validate_params(**kwargs)
        listed = list(vertices(p))
        assert len(listed) == vertex_count(p)
        assert listed == sorted(set(listed))

    def test_word_rank_is_lexicographic(self):
        p = validate_params(n=4, k=3, s=1)
        words = list(enumerate_objects(p))
        assert [kperm_rank(w, range(1, 5)) for w in words] == list(range(len(words)))

    @given(st.integers(min_value=3, max_value=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_unrank_property(self, n, data):
        # a vertex's kperm rank is its position in the lexicographic listing
        s = data.draw(st.integers(min_value=1, max_value=n - 1))
        p = validate_params(n=n, k=n, s=s)
        r = data.draw(st.integers(min_value=0, max_value=vertex_count(p) - 1))
        assert kperm_rank(list(vertices(p))[r], range(1, n + 1)) == r


def test_min_vertex():
    assert min_vertex(validate_params(n=6, k=4, s=3)) == (1, 2, 3)
    assert min_vertex(validate_params(multiset=[2, 1, 1, 3], s=2)) == (1, 1)
