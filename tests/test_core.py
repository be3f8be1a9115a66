import math
import sys
from array import array
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocycles.core
from ocycles.core import (
    Feasibility,
    Mode,
    ParamError,
    Reason,
    Windows,
    completions,
    count_text,
    enumerate_objects,
    feasibility,
    is_valid_vertex,
    is_valid_word,
    kperm_rank,
    min_vertex,
    object_count,
    symbol_string,
    validate_params,
    vertex_count,
    vertices,
)
from conftest import brute_objects, guaranteed_instances


class TestSymbolString:
    def test_bytes_for_every_byte_value(self):
        assert symbol_string(list(range(256))) == bytes(range(256))
        assert symbol_string(()) == b""

    @pytest.mark.parametrize("symbols", [(0, 256), (255, -1), (1, 10**6), (1, 2.0)])
    def test_tuple_once_a_symbol_leaves_the_byte_range(self, symbols):
        got = symbol_string(list(symbols))
        assert type(got) is tuple and got == symbols
        # a one-shot iterator keeps the symbols bytes() read before failing
        got = symbol_string(iter(symbols))
        assert type(got) is tuple and got == symbols

    def test_bytes_are_returned_unchanged(self):
        symbols = bytes(range(1, 10)) * 1000
        assert symbol_string(symbols) is symbols

    def test_buffers_are_read_symbol_by_symbol(self):
        # bytes() of an array('H') copies two bytes of raw memory per item
        assert symbol_string(array("H", [1, 2, 255])) == b"\x01\x02\xff"
        assert symbol_string(array("H", [1, 300])) == (1, 300)


class TestWindows:
    @given(
        symbols=st.lists(st.integers(0, 300), min_size=1, max_size=12),
        k=st.integers(1, 5),
        stride=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_read_cyclically(self, symbols, k, stride):
        # window i is the k symbols from i * stride on, the string read as a
        # cycle; indexes and slices behave as a tuple of those windows would
        symbols = symbol_string(symbols)
        length = len(symbols)
        expected = tuple(
            tuple(symbols[j % length] for j in range(i, i + k)) for i in range(0, length - stride + 1, stride)
        )
        windows = Windows(symbols, k, stride)
        assert len(windows) == len(expected) == length // stride
        assert tuple(windows) == expected
        assert windows[::-1] == expected[::-1] and windows[1:3] == expected[1:3]
        for i in range(-len(expected), len(expected)):
            assert windows[i] == expected[i]
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                windows[i]


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

    def test_k_must_fit_an_index(self):
        # math.perm, which counts the objects, takes no larger k
        k = sys.maxsize
        assert validate_params(n=k, k=k, s=1).k == k
        with pytest.raises(ParamError, match=f"k must be at most {k}"):
            validate_params(n=k + 1, k=k + 1, s=1)


@pytest.mark.parametrize(
    "count, text",
    [(0, "0"), (40_320, "40320"), (10**4299, "1" + "0" * 4299), (10**4300, "about 10^4300"),
     (math.factorial(2000), "about 10^5735")],
    ids=["0", "8!", "4300 digits", "4301 digits", "2000!"],
)
def test_count_text(count, text):
    # exact while str() converts the count (4,300 digits by default), else
    # its order of magnitude
    assert count_text(count) == text


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


def recursive_sequences(counts, length):
    """The multiset enumerator as it was written before it became one loop:
    a generator per position, the reference for order and content."""
    symbols = sorted(counts)
    prefix = []

    def rec():
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for x in symbols:
            if counts[x] > 0:
                counts[x] -= 1
                prefix.append(x)
                yield from rec()
                prefix.pop()
                counts[x] += 1

    yield from rec()


@pytest.fixture(params=["iterative", "recursive"])
def multiset_enumerator(request, monkeypatch):
    """Runs a test once with core's enumerator and once with the reference."""
    if request.param == "recursive":
        monkeypatch.setattr(ocycles.core, "_multiset_sequences", recursive_sequences)
    return request.param


def brute_completions(objects, prefix, length):
    i = len(prefix)
    return sorted({w[i : i + length] for w in objects if w[:i] == prefix and len(w) >= i + length})


MULTISET_EDGE_INSTANCES = [kw for kw in COMPLETION_INSTANCES if "multiset" in kw] + [
    dict(multiset=(3, 3, 3, 3), s=1),  # a single distinct symbol
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

    @pytest.mark.parametrize("kwargs", MULTISET_EDGE_INSTANCES)
    def test_every_length_with_either_enumerator(self, kwargs, multiset_enumerator):
        # length 0 gives one empty tuple, and a length past what remains none
        p = validate_params(**kwargs)
        objects = brute_objects(p)
        for prefix in {w[:i] for w in objects for i in range(p.k + 1)}:
            rest = p.k - len(prefix)
            for length in range(rest + 2):
                got = list(completions(prefix, length, p))
                assert got == brute_completions(objects, prefix, length), (prefix, length)
            assert list(completions(prefix, 0, p)) == [()]
            assert list(completions(prefix, rest + 1, p)) == []

    @pytest.mark.parametrize(
        "counts", [{1: 2, 2: 2, 3: 1}, {2: 1, 7: 2, 300: 1}, {5: 3}, {1: 2, 2: 0, 3: 1}]
    )
    def test_iterative_matches_recursive(self, counts):
        for length in range(sum(counts.values()) + 2):
            got = list(ocycles.core._multiset_sequences(Counter(counts), length))
            assert got == list(recursive_sequences(Counter(counts), length)), length

    def test_enumeration_is_lazy(self):
        # the tour holds one open cursor per vertex; the first of the
        # C(100, 50) arrangements must come without listing the rest
        sequences = ocycles.core._multiset_sequences(Counter({1: 50, 2: 50}), 100)
        assert next(sequences) == (1,) * 50 + (2,) * 50
        assert next(sequences) == (1,) * 49 + (2, 1) + (2,) * 49


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


def test_min_vertex_is_the_first_vertex_on_the_acceptance_sweep():
    for p in guaranteed_instances():
        assert min_vertex(p) == next(vertices(p)), p
