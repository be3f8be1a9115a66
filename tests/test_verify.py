import ast
import dataclasses
import gc
import random
import tracemalloc
import weakref
from array import array
from collections import Counter
from functools import partial
from itertools import chain, permutations, product
from math import perm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocycles.cli
import ocycles.verify
from ocycles.cli import emit_document, emit_list, parse_text
from ocycles.core import (
    Feasibility,
    InstanceParams,
    LimitError,
    Mode,
    Windows,
    arrangement_rank,
    enumerate_objects,
    feasibility,
    kperm_rank,
    object_count,
    validate_params,
)
from ocycles.graph import build_graph
from ocycles.euler import euler_tour, tour_to_cycle
from ocycles.verify import (
    DEFAULT_ORACLE_BUDGET,
    ORACLE_OBJECT_CAP,
    OracleStatus,
    VerificationReport,
    _coverage_report,
    hamilton_oracle,
    verify_cycle_string,
    verify_object_list,
)
from conftest import (
    decode_cycle,
    decode_symbols,
    multiset_instances,
    oracle_sweep_instances,
    reference_coverage,
    reference_object_list,
)
from test_perfbench_contract import load_spans


def decoded_report(symbols, p):
    """The cycle-string report built from `decode_symbols` windows."""
    return _coverage_report(list(decode_symbols(symbols, p.k, p.s)), [], True, p)


class TestVerifyCycleString:
    def test_hand_witness(self):
        p = validate_params(n=3, k=2, s=1)
        report = verify_cycle_string((1, 2, 1, 3, 2, 3), p)
        assert report.valid
        assert report.object_count == 6

    def test_out_of_alphabet_symbol(self):
        p = validate_params(n=3, k=2, s=1)
        report = verify_cycle_string((1, 2, 1, 3, 2, 4), p)
        assert not report.valid
        assert report.invalid_words
        assert report.missing_count > 0

    def test_bad_length(self):
        p = validate_params(n=5, k=4, s=2)
        report = verify_cycle_string((1, 2, 3), p)
        assert not report.valid
        assert not report.length_ok

    def test_empty_string(self):
        p = validate_params(n=3, k=2, s=1)
        report = verify_cycle_string((), p)
        assert not report.valid

    def test_duplicates_detected(self):
        p = validate_params(n=3, k=2, s=1)
        # "121212" decodes to 12,21 repeated three times
        report = verify_cycle_string((1, 2, 1, 2, 1, 2), p)
        assert not report.valid
        assert report.duplicates
        assert report.missing_count == 4

    def test_fixture_string_form(self, perm5_fixture_words):
        p = validate_params(n=5, k=5, s=3)
        symbols = []
        for w in perm5_fixture_words:
            symbols.extend(w[: p.k - p.s])
        report = verify_cycle_string(tuple(symbols), p)
        assert report.valid
        assert report.object_count == 120

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_symbol_mutation_always_invalid(self, data):
        p = validate_params(n=4, k=3, s=1)
        symbols = list(tour_to_cycle(euler_tour(build_graph(p))).symbols)
        pos = data.draw(st.integers(min_value=0, max_value=len(symbols) - 1))
        new = data.draw(st.integers(min_value=1, max_value=4).filter(lambda x: x != symbols[pos]))
        symbols[pos] = new
        assert not verify_cycle_string(tuple(symbols), p).valid


class TestSlicedWindows:
    @pytest.mark.parametrize(
        "kwargs, symbols",
        [
            (dict(multiset=(1, 1, 1), s=2), (1,)),  # the one-object cycle, L < s
            (dict(multiset=(1, 1, 1), s=2), (2,)),
            (dict(n=5, k=5, s=4), (1,)),
            (dict(n=5, k=5, s=4), (1, 2, 3)),
            (dict(n=5, k=5, s=4), (5, 4, 3, 2, 1, 1)),
            (dict(n=3, k=2, s=1), (1, 2)),
            (dict(n=3, k=2, s=1), (1, 2, 1, 2, 1, 2)),
            (dict(n=4, k=3, s=2), (1, 2, 3, 4)),
            (dict(n=3, k=2, s=1), (1, 2, 3, -1)),
        ],
    )
    def test_short_strings_match_decoded_windows(self, kwargs, symbols):
        p = validate_params(**kwargs)
        report = verify_cycle_string(symbols, p)
        assert report == decoded_report(symbols, p)
        # a one-shot iterator of the symbols is read once, whole
        assert verify_cycle_string(iter(symbols), p) == report

    def test_single_object_cycle_shorter_than_overlap(self):
        p = validate_params(multiset=(1, 1, 1), s=2)
        symbols = tour_to_cycle(euler_tour(build_graph(p))).symbols
        assert tuple(symbols) == (1,)
        assert verify_cycle_string(symbols, p).valid

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=4, k=3, s=1), dict(n=4, k=4, s=1), dict(multiset=(1, 1, 2, 2, 3), s=2)],
    )
    def test_tampered_strings_match_decoded_windows(self, kwargs):
        p = validate_params(**kwargs)
        symbols = tour_to_cycle(euler_tour(build_graph(p))).symbols
        assert verify_cycle_string(symbols, p) == decoded_report(symbols, p)
        for pos in range(len(symbols)):
            for new in range(1, p.n + 2):
                tampered = (*symbols[:pos], new, *symbols[pos + 1 :])
                assert verify_cycle_string(tampered, p) == decoded_report(tampered, p)


def reference_cycle_string(symbols, p):
    symbols = tuple(symbols)
    stride = p.k - p.s
    if not symbols or len(symbols) % stride != 0:
        return VerificationReport(False, 0, [], object_count(p), [], [], False)
    ext = symbols + (symbols[: p.s] * p.s)[: p.s]
    windows = [ext[i : i + p.k] for i in range(0, len(symbols), stride)]
    return reference_coverage(windows, [], True, p)


def assert_same_report(got, want):
    """Field by field, so a mismatch names the field; lists compare in order."""
    for f in dataclasses.fields(VerificationReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def single_symbol_edits(seq, values):
    """Every change, deletion, insertion and adjacent swap of one position."""
    seq = tuple(seq)
    for i in range(len(seq)):
        yield seq[:i] + seq[i + 1 :]
        for v in values:
            yield seq[:i] + (v,) + seq[i:]
            if v != seq[i]:
                yield seq[:i] + (v,) + seq[i + 1 :]
        if i + 1 < len(seq):
            yield seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]
    for v in values:
        yield seq + (v,)


DIFFERENTIAL_INSTANCES = [
    dict(n=4, k=3, s=1),
    dict(n=5, k=3, s=1),
    dict(n=6, k=4, s=2),
    dict(multiset=(1, 1, 2, 2, 3), s=2),
]


class TestAgainstPerWordReference:
    """The bulk validity passes give the per-word reference's reports."""

    @pytest.mark.parametrize("kwargs", DIFFERENTIAL_INSTANCES)
    def test_string_edits(self, kwargs):
        p = validate_params(**kwargs)
        symbols = tour_to_cycle(euler_tour(build_graph(p))).symbols
        values = range(0, p.n + 2)  # includes 0 and n + 1, outside the alphabet
        for edited in single_symbol_edits(symbols, values):
            assert_same_report(verify_cycle_string(edited, p), reference_cycle_string(edited, p))

    @pytest.mark.parametrize("kwargs", [DIFFERENTIAL_INSTANCES[i] for i in (0, 1, 3)])
    def test_list_symbol_edits(self, kwargs):
        # every single-symbol edit of each word, kept in place in the list;
        # (6,4,2) is left out: its 360 words would need about 27,000 lists
        p = validate_params(**kwargs)
        words = list(decode_cycle(tour_to_cycle(euler_tour(build_graph(p)))))
        for i, w in enumerate(words):
            for edited in single_symbol_edits(w, range(0, p.n + 2)):
                tampered = words[:i] + [edited] + words[i + 1 :]
                assert_same_report(verify_object_list(tampered, p), reference_object_list(tampered, p))

    @pytest.mark.parametrize("kwargs", DIFFERENTIAL_INSTANCES)
    def test_list_word_edits(self, kwargs):
        # every deletion, duplication and adjacent swap of whole words
        p = validate_params(**kwargs)
        words = list(decode_cycle(tour_to_cycle(euler_tour(build_graph(p)))))
        for i in range(len(words)):
            for tampered in (
                words[:i] + words[i + 1 :],
                words[:i] + [words[i]] + words[i:],
                words[:i] + words[i + 1 : i + 2] + [words[i]] + words[i + 2 :],
            ):
                assert_same_report(verify_object_list(tampered, p), reference_object_list(tampered, p))

    @pytest.mark.parametrize(
        "kwargs, words",
        [
            # k-1 and k+1 symbols; (1, 2, 3, 1) covers k = 3 distinct letters
            # yet has k + 1 symbols, so it must stay invalid
            (dict(n=4, k=3, s=1), [(1, 2), (1, 2, 3, 1), (1, 2, 3, 4), (1, 2, 3)]),
            (dict(n=4, k=3, s=1), [(1, 2, 3, 1), (1, 2, 3, 2), (3, 2, 1, 3)]),
            (dict(n=4, k=3, s=1), [(0, 1, 2), (2, 5, 1), (1, 0, 5), (0, 0, 0)]),
            (dict(n=4, k=3, s=1), [(1, 2, 2), (2, 2, 2), (3, 4, 1), (1, 3, 4)]),
            (dict(n=3, k=3, s=1), [(1, 2, 3, 1), (3, 1, 2), (2, 3), (0, 1, 2), (1, 2, 4)]),
            (dict(multiset=(1, 1, 2, 2, 3), s=2),
             [(1, 1, 2, 2), (1, 1, 2, 2, 3, 3), (1, 1, 2, 2, 3, 1), (0, 1, 1, 2, 2)]),
            (dict(multiset=(1, 1, 2, 2, 3), s=2),
             [(1, 1, 2, 2, 4), (1, 2, 1, 2, 3), (3, 2, 2, 1, 1), (1, 2, 1, 2, 3)]),
        ],
    )
    def test_off_length_and_off_alphabet_words(self, kwargs, words):
        p = validate_params(**kwargs)
        report = verify_object_list(words, p)
        assert_same_report(report, reference_object_list(words, p))
        for w in words:
            if len(w) != p.k or 0 in w or p.n + 1 in w:
                assert w in report.invalid_words
        # the same words as one string exercise the string form too
        flat = [x for w in words for x in w]
        assert_same_report(verify_cycle_string(flat, p), reference_cycle_string(flat, p))


@pytest.fixture(scope="module")
def kperm_300_cycle():
    p = validate_params(n=300, k=2, s=1)
    return p, tour_to_cycle(euler_tour(build_graph(p))).symbols


class TestBothRepresentations:
    """Byte strings (every symbol in 0..255) and tuple strings give the
    per-word reference's reports, with words as int tuples either way."""

    def test_generated_n300_string_and_tamperings(self, kperm_300_cycle):
        p, symbols = kperm_300_cycle
        assert type(symbols) is tuple and len(symbols) == 89_700
        report = verify_cycle_string(symbols, p)
        assert report.valid
        assert_same_report(report, reference_cycle_string(symbols, p))
        assert_same_report(verify_cycle_string(iter(symbols), p), report)
        rng = random.Random(300)
        for _ in range(5):
            i = rng.randrange(len(symbols) - 1)
            new = rng.choice((0, p.n + 1, rng.randrange(1, p.n + 1)))
            for tampered in (
                symbols[:i] + (new,) + symbols[i + 1 :],
                symbols[:i] + (symbols[i + 1], symbols[i]) + symbols[i + 2 :],
            ):
                assert_same_report(verify_cycle_string(tampered, p), reference_cycle_string(tampered, p))

    def test_n300_word_tuples_and_tamperings(self, kperm_300_cycle):
        # a list of words with symbols above 255 is joined into one tuple
        # string, whose overlaps are compared slice by slice
        p, symbols = kperm_300_cycle
        words = list(Windows(symbols, p.k, p.k - p.s))
        assert_same_report(verify_object_list(words, p), reference_object_list(words, p))
        rng = random.Random(301)
        for _ in range(2):
            i, j = rng.sample(range(len(words)), 2)
            swapped = list(words)
            swapped[i], swapped[j] = words[j], words[i]
            edited = list(words)
            edited[i] = (edited[i][0], rng.choice((0, p.n + 1, 255, 256, -1)))
            for tampered in (swapped, edited, words[:i] + words[i + 1 :], words[i:] + words[:i]):
                report = verify_object_list(tampered, p)
                assert_same_report(report, reference_object_list(tampered, p))
        assert report.valid  # the last, a rotation

    @pytest.mark.parametrize("kwargs", [dict(n=4, k=3, s=1), dict(multiset=(1, 1, 2, 2, 3), s=2)])
    def test_symbols_on_both_sides_of_the_byte_range(self, kwargs):
        p = validate_params(**kwargs)
        symbols = tour_to_cycle(euler_tour(build_graph(p))).symbols
        assert type(symbols) is bytes
        listed = []
        for edited in single_symbol_edits(symbols, (0, 1, 255, 256, -1, 10**6)):
            report = verify_cycle_string(edited, p)
            assert_same_report(report, reference_cycle_string(edited, p))
            listed += [*report.invalid_words, *report.duplicates]
        assert listed
        assert all(type(w) is tuple and all(type(x) is int for x in w) for w in listed)


def group_ids(words, p):
    """The group of each word's first symbol, as `verify_cycle_string` counts it."""
    return list(ocycles.verify._first_symbol_groups(tuple(w[0] for w in words), p.n))


class TestFirstSymbolGroups:
    """Windows are counted one group of first symbols at a time; forcing many
    groups on small strings and lists must give the report of one count over
    all."""

    @pytest.mark.parametrize("groups", [1, 2, 3, 5, 256])
    @pytest.mark.parametrize("kwargs", DIFFERENTIAL_INSTANCES)
    def test_duplicates_and_invalid_windows_across_groups(self, monkeypatch, groups, kwargs):
        monkeypatch.setattr(ocycles.verify, "_GROUPS", groups)
        p = validate_params(**kwargs)
        symbols = tuple(tour_to_cycle(euler_tour(build_graph(p))).symbols)
        assert verify_cycle_string(symbols, p) == decoded_report(symbols, p)
        # every window twice: repeats in every group, joined in sorted order.
        # The same windows as a list, one byte string at stride k, overlap
        # in a chain and are counted by the same groups
        doubled = symbols * 2
        report = verify_cycle_string(doubled, p)
        assert report == decoded_report(doubled, p)
        assert both_list_paths(decode_symbols(doubled, p.k, p.s), p) == report
        assert report.duplicates == sorted(report.duplicates)
        assert len(set(group_ids(report.duplicates, p))) == min(groups, p.n)
        # an unused symbol every seventh place: invalid windows of every
        # group, reported in window order
        marked = tuple(p.n + 1 if i % 7 == 3 else x for i, x in enumerate(symbols))
        report = verify_cycle_string(marked, p)
        assert report == decoded_report(marked, p)
        assert both_list_paths(decode_symbols(marked, p.k, p.s), p) == report
        ids = group_ids(report.invalid_words, p)
        if groups > 1:
            assert any(a > b for a, b in zip(ids, ids[1:]))

    @pytest.mark.parametrize("groups", [2, 3])
    @pytest.mark.parametrize("kwargs", [dict(n=4, k=3, s=1), dict(multiset=(1, 1, 2, 2, 3), s=2)])
    def test_symbols_outside_the_alphabet(self, monkeypatch, groups, kwargs):
        # 0, n + 1, 255, 256 and -1 as first symbols go to the last group
        monkeypatch.setattr(ocycles.verify, "_GROUPS", groups)
        p = validate_params(**kwargs)
        symbols = tuple(tour_to_cycle(euler_tour(build_graph(p))).symbols)
        for pos in range(len(symbols)):
            for new in (0, p.n + 1, 255, 256, -1):
                edited = (*symbols[:pos], new, *symbols[pos + 1 :])
                assert verify_cycle_string(edited, p) == decoded_report(edited, p)

    @pytest.mark.parametrize("groups", [3, 7])
    def test_n300_tuple_strings(self, monkeypatch, kperm_300_cycle, groups):
        monkeypatch.setattr(ocycles.verify, "_GROUPS", groups)
        p, symbols = kperm_300_cycle
        assert verify_cycle_string(symbols, p).valid
        rng = random.Random(groups)
        tampered = list(symbols)
        for i in rng.sample(range(len(symbols)), 40):
            tampered[i] = rng.choice((0, p.n + 1, 255, 256, -1, 10**6, rng.randrange(1, p.n + 1)))
        tampered = tuple(tampered)
        report = verify_cycle_string(tampered, p)
        assert_same_report(report, reference_cycle_string(tampered, p))
        assert len(set(group_ids([*report.duplicates, *report.invalid_words], p))) > 1
        # a stretch of windows repeated: its repeats span several groups
        repeated = symbols + symbols[: 2 * 3000]
        report = verify_cycle_string(repeated, p)
        assert_same_report(report, reference_cycle_string(repeated, p))
        assert len(set(group_ids(report.duplicates, p))) > 1


@pytest.mark.parametrize("groups", [1, 2, 3, 4, 5, 256])
@pytest.mark.parametrize("n", [1, 2, 9, 10, 127, 128, 254, 255, 256, 300])
def test_byte_tables_follow_their_rules(monkeypatch, groups, n):
    """The 256-entry `translate` tables, built from byte runs, equal the same
    tables built symbol by symbol from their rules."""
    monkeypatch.setattr(ocycles.verify, "_GROUPS", groups)
    every_byte = bytes(range(256))

    def group(x):
        return (x - 1) * groups // n if 1 <= x <= n else groups - 1

    assert ocycles.verify._first_symbol_groups(every_byte, n) == bytes(map(group, range(256)))
    # one-symbol windows: each window's flag is its symbol's range flag
    flags = ocycles.verify._byte_flags(every_byte, InstanceParams(Mode.KPERM, n, 1, 0))(256, 1)
    assert flags == bytes(0 if 1 <= x <= n else 0x80 for x in range(256))


def generated_bytes(**kwargs):
    p = validate_params(**kwargs)
    return p, bytes(tour_to_cycle(euler_tour(build_graph(p))).symbols)


# stride 2, stride 3, stride 1, and k = 2 with stride 1
KERNEL_INSTANCES = [
    dict(n=5, k=4, s=2),
    dict(n=5, k=4, s=1),
    dict(n=4, k=3, s=2),
    dict(n=4, k=2, s=1),
]


class TestByteKernel:
    """A k-permutation byte string's windows are flagged by whole-string byte
    passes, `_CHUNK` windows at a time; the per-window test in
    `decoded_report` must give the same report however the chunks fall."""

    @pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ocycles.verify, "_CHUNK", request.param)

    @pytest.mark.parametrize("kwargs", KERNEL_INSTANCES)
    def test_repeats_at_every_distance_inside_a_window(self, chunk, kwargs):
        p, symbols = generated_bytes(**kwargs)
        k, length = p.k, len(symbols)
        for start in range(0, length, k - p.s):
            for d in range(1, k):
                for o in range(k - d):
                    edited = bytearray(symbols)
                    edited[(start + o + d) % length] = symbols[(start + o) % length]
                    edited = bytes(edited)
                    report = verify_cycle_string(edited, p)
                    assert report == decoded_report(edited, p)
                    window = tuple((edited + edited)[start : start + k])
                    assert window in report.invalid_words

    @pytest.mark.parametrize("kwargs", KERNEL_INSTANCES)
    def test_equal_symbols_in_adjacent_windows_only(self, chunk, kwargs):
        # a window's symbol recurs in the next window, past the overlap
        p, symbols = generated_bytes(**kwargs)
        k, stride = p.k, p.k - p.s
        ext = symbols + symbols[:k]
        assert any(
            set(ext[i : i + k]) & set(ext[i + k : i + stride + k])
            for i in range(0, len(symbols), stride)
        )
        report = verify_cycle_string(symbols, p)
        assert report.valid and report == decoded_report(symbols, p)

    @pytest.mark.parametrize("kwargs", KERNEL_INSTANCES)
    def test_symbols_outside_the_alphabet(self, chunk, kwargs):
        p, symbols = generated_bytes(**kwargs)
        for pos in range(len(symbols)):
            for new in (0, p.n + 1, 255):
                edited = symbols[:pos] + bytes([new]) + symbols[pos + 1 :]
                report = verify_cycle_string(edited, p)
                assert report == decoded_report(edited, p)
                assert report.invalid_words

    def test_symbol_255_is_in_the_alphabet_of_255(self, chunk):
        p = validate_params(n=255, k=3, s=1)
        symbols = bytes([255, 1, 254, 2, 253, 3])
        report = verify_cycle_string(symbols, p)
        assert report == decoded_report(symbols, p)
        assert report.invalid_words == [] and report.duplicates == []
        edited = symbols.replace(b"\x02", b"\x00")
        report = verify_cycle_string(edited, p)
        assert report == decoded_report(edited, p)
        assert report.invalid_words == [(254, 0, 253)]

    @pytest.mark.parametrize("kwargs", [*KERNEL_INSTANCES, dict(n=4, k=3, s=1)])
    def test_strings_of_one_window(self, chunk, kwargs):
        p = validate_params(**kwargs)
        for window in product(range(p.n + 2), repeat=p.k - p.s):
            symbols = bytes(window)
            report = verify_cycle_string(symbols, p)
            assert report.object_count == 1
            assert report == decoded_report(symbols, p)

    def test_a_repeat_does_not_flag_the_window_before(self, chunk):
        # (2, 3) differ in the low bit only and (3, 3) comes next: a zero-byte
        # test whose borrow crosses bytes would flag (2, 3) as well
        p = validate_params(n=4, k=2, s=1)
        symbols = bytes([2, 3, 3, 1])
        report = verify_cycle_string(symbols, p)
        assert report == decoded_report(symbols, p)
        assert report.invalid_words == [(3, 3)]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_short_random_strings(self, data):
        n = data.draw(st.sampled_from([2, 3, 4, 5, 8, 255]))
        k = data.draw(st.integers(2, min(n, 6)))
        s = data.draw(st.integers(1, k - 1))
        p = validate_params(n=n, k=k, s=s)
        windows = data.draw(st.integers(1, 12))
        # few symbols make repeats and low-bit neighbours likely
        values = st.one_of(
            st.integers(1, min(n, 4)), st.sampled_from(sorted({0, n, min(n + 1, 255), 255}))
        )
        size = windows * (k - s)
        symbols = bytes(data.draw(st.lists(values, min_size=size, max_size=size)))
        chunk = data.draw(st.sampled_from([1, 2, 3, 5, 32_768]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ocycles.verify, "_CHUNK", chunk)
            assert verify_cycle_string(symbols, p) == decoded_report(symbols, p)


class TestMultisetKernel:
    """A multiset byte string's windows are flagged by per-symbol counts in
    byte lanes, `_CHUNK` windows at a time; the per-window test in
    `decoded_report` must give the same report however the chunks fall."""

    @pytest.fixture(params=[1, 3, None], ids=["chunk1", "chunk3", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ocycles.verify, "_CHUNK", request.param)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(multiset=(1, 1, 2, 2, 3), s=2), dict(multiset=(1, 1, 1, 2, 2, 2), s=2),
         dict(multiset=(1, 2, 3, 3), s=1), dict(multiset=(5, 5, 5, 5), s=3),
         dict(multiset=(1, 2, 255), s=1)],
    )
    def test_every_substitution(self, chunk, kwargs):
        p, symbols = generated_bytes(**kwargs)
        assert verify_cycle_string(symbols, p).valid
        for pos in range(len(symbols)):
            for new in {0, *p.multiset, min(p.n + 1, 255), 255}:
                edited = symbols[:pos] + bytes([new]) + symbols[pos + 1 :]
                assert verify_cycle_string(edited, p) == decoded_report(edited, p)

    def test_counts_up_to_255_do_not_carry(self, chunk):
        # k = 255: a window holds up to 255 copies of a symbol, a full lane
        p, symbols = generated_bytes(multiset=(1,) * 254 + (2,), s=1)
        assert verify_cycle_string(symbols, p).valid
        for edited in (symbols.replace(b"\x02", b"\x01", 1), symbols.replace(b"\x01", b"\x02", 1)):
            report = verify_cycle_string(edited, p)
            assert report == decoded_report(edited, p) and report.invalid_words

    @pytest.mark.parametrize(
        "kwargs, symbols",
        [(dict(multiset=(1,) * 255 + (2,), s=255), b"\x01" * 4),  # a count of 256
         (dict(multiset=(1,) * 255 + (2,), s=255), b"\x01\x02"),
         (dict(multiset=(1, 300), s=1), b"\x01\x01")],  # a symbol past a byte
    )
    def test_wide_multisets_are_checked_per_word(self, kwargs, symbols):
        p = validate_params(**kwargs)
        assert verify_cycle_string(symbols, p) == decoded_report(symbols, p)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_short_random_strings(self, data):
        multiset = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
        p = validate_params(multiset=multiset, s=data.draw(st.integers(1, len(multiset) - 1)))
        values = st.one_of(st.sampled_from(p.multiset), st.sampled_from([0, 5, 255]))
        size = data.draw(st.integers(1, 12)) * (p.k - p.s)
        symbols = bytes(data.draw(st.lists(values, min_size=size, max_size=size)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ocycles.verify, "_CHUNK", data.draw(st.sampled_from([1, 2, 3, 32_768])))
            assert verify_cycle_string(symbols, p) == decoded_report(symbols, p)


def both_list_paths(words, p):
    """verify_object_list of `words` as one byte string at stride k, which
    must equal the report on the same words as tuples and the per-word
    reference's."""
    words = [tuple(w) for w in words]
    report = verify_object_list(Windows(bytes(x for w in words for x in w), p.k, p.k), p)
    assert report == verify_object_list(words, p)
    assert report == reference_object_list(words, p)
    return report


# a kperm list, full permutations, a one-window-per-chunk case, multisets
# (one with a symbol 10)
WORD_STRING_INSTANCES = [
    dict(n=5, k=3, s=1),
    dict(n=4, k=4, s=1),
    dict(n=4, k=2, s=1),
    dict(multiset=(1, 1, 2, 2, 3), s=2),
    dict(multiset=(1, 2, 10, 10), s=1),
]


class TestWordStringPath:
    """A list document's words, read as one byte string at stride k, are
    checked in whole-string passes; every report equals the one the same
    words get as tuples, one word at a time."""

    @pytest.fixture(params=[1, 3, None], ids=["chunk1", "chunk3", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ocycles.verify, "_CHUNK", request.param)

    @pytest.mark.parametrize("kwargs", WORD_STRING_INSTANCES)
    def test_every_symbol_edit(self, chunk, kwargs):
        p = validate_params(**kwargs)
        words = list(euler_tour(build_graph(p)).edges)
        assert both_list_paths(words, p).valid
        for i, w in enumerate(words):
            for o in range(p.k):
                for new in {0, p.n + 1, 255, *range(1, p.n + 1)} - {w[o]}:
                    edited = words[:i] + [w[:o] + (new,) + w[o + 1 :]] + words[i + 1 :]
                    report = both_list_paths(edited, p)
                    assert not report.valid

    @pytest.mark.parametrize("kwargs", WORD_STRING_INSTANCES)
    def test_word_edits(self, chunk, kwargs):
        p = validate_params(**kwargs)
        words = list(euler_tour(build_graph(p)).edges)
        for i in range(len(words)):
            j = (i + 1) % len(words)
            swapped = list(words)
            swapped[i], swapped[j] = words[j], words[i]
            for edited in (words[:i] + words[i + 1 :], words[:i] + [words[j]] + words[i:], swapped):
                both_list_paths(edited, p)
            # a cycle read from any word on is still valid
            assert both_list_paths(words[i:] + words[:i], p).valid

    def test_lexicographic_listing(self, chunk):
        # every object once, so every rank is marked, but few overlaps chain
        p = validate_params(n=5, k=3, s=2)
        report = both_list_paths(permutations(range(1, 6), 3), p)
        assert report.missing_count == 0 and report.duplicates == [] and not report.valid
        assert len(report.overlap_violations) == 60

    def test_fixture_transpositions(self, perm5_fixture_words):
        p = validate_params(n=5, k=5, s=3)
        words = perm5_fixture_words
        assert both_list_paths(words, p).valid
        rng = random.Random(5)
        for i, j in [(i, i + 1) for i in range(119)] + [rng.sample(range(120), 2) for _ in range(200)]:
            swapped = list(words)
            swapped[i], swapped[j] = words[j], words[i]
            assert both_list_paths(swapped, p).overlap_violations

    def test_one_word(self):
        # the word's suffix against its own prefix
        p = validate_params(multiset=(1, 1, 1), s=2)
        assert both_list_paths([(1, 1, 1)], p).valid
        p = validate_params(n=3, k=2, s=1)
        assert both_list_paths([(1, 2)], p).overlap_violations == [(0, (2,), (1,))]

    def test_other_sequences_take_the_per_word_path(self, kperm_300_cycle):
        # a view at another stride or width, and tuple symbols, are copied
        # to word tuples and joined into one string at stride k
        p = validate_params(n=4, k=3, s=1)
        cycle = euler_tour(build_graph(p))
        tuples = list(cycle.edges)
        assert verify_object_list(cycle.edges, p) == verify_object_list(tuples, p)
        assert verify_object_list(tuples, p) == reference_object_list(tuples, p)
        flat = bytes(x for w in tuples for x in w)
        q = validate_params(n=4, k=2, s=1)
        assert verify_object_list(Windows(flat, 3, 3), q) == verify_object_list(tuples, q)
        assert verify_object_list(tuples, q) == reference_object_list(tuples, q)
        p, symbols = kperm_300_cycle
        words = Windows(symbols, 2, 1)
        assert verify_object_list(words, p).valid
        assert verify_object_list(words, p) == reference_object_list(words, p)
        # symbols past the last whole word are not read
        p = validate_params(n=3, k=2, s=1)
        words = Windows(bytes([1, 2, 2, 1, 3]), 2, 2)
        assert verify_object_list(words, p) == verify_object_list([(1, 2), (2, 1)], p)
        assert verify_object_list(words, p) == reference_object_list([(1, 2), (2, 1)], p)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_short_random_lists(self, data):
        if data.draw(st.booleans()):
            n = data.draw(st.sampled_from([2, 3, 4, 5, 10]))
            k = data.draw(st.integers(2, min(n, 5)))
            p = validate_params(n=n, k=k, s=data.draw(st.integers(1, k - 1)))
            alphabet = list(range(1, n + 1))
        else:
            multiset = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
            p = validate_params(multiset=multiset, s=data.draw(st.integers(1, len(multiset) - 1)))
            alphabet = sorted(set(p.multiset))
        # few symbols make repeats, chained overlaps and duplicate words likely
        values = st.one_of(st.sampled_from(alphabet[:3]), st.sampled_from([0, p.n + 1, 255]))
        word = st.lists(values, min_size=p.k, max_size=p.k).map(tuple)
        words = data.draw(st.lists(word, min_size=1, max_size=10))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ocycles.verify, "_CHUNK", data.draw(st.sampled_from([1, 2, 3, 32_768])))
            both_list_paths(words, p)


class RankRecorder:
    """Stands in for the verifier's bitmap and records each rank marked,
    with the id it is marked with."""

    def __init__(self):
        self.ranks = []
        self.ids = []

    def __setitem__(self, rank, value):
        self.ranks.append(rank)
        self.ids.append(value)


def marked_kperm(ext, windows, k, n):
    """The flag bytes and the recorded marks of the first pass over the
    k-permutation byte string `ext` at stride k.  Each valid window's rank
    is marked with the id of its group of chunks: its start over
    `_group_windows`, plus one."""
    seen = RankRecorder()
    chunks = ocycles.verify._kperm_ranked(ext, k, k, n, range(windows))
    flags = ocycles.verify._marked(chunks, windows, seen)
    size = ocycles.verify._group_windows(windows)
    assert seen.ids == [w // size + 1 for w in range(windows) if not flags[w]]
    assert set(seen.ids) <= set(range(1, ocycles.verify._MARK_GROUPS + 1))
    return flags, seen


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of the two rank kernels, of the grouped count's
    `_first_symbol_groups` and of `_multiset_invalid`, which run only where
    a string is not ranked."""
    counted = Counter()
    for name in ("_kperm_ranks", "_multiset_ranks", "_first_symbol_groups", "_multiset_invalid"):
        fn = getattr(ocycles.verify, name)

        def spy(*args, _fn=fn, _name=name):
            counted[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ocycles.verify, name, spy)
    return counted


class TestRankPath:
    """A complete k-permutation byte string is counted by ranking its valid
    windows, whatever its defects; only other strings take the grouped
    count."""

    @pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ocycles.verify, "_CHUNK", request.param)

    # digits are read in groups while their radices' product stays at most
    # 256: (16,3) groups 16 * 15, (17,3) keeps 17 alone and groups 16 * 15
    @pytest.mark.parametrize(
        "n, k", [(127, 2), (4, 3), (5, 5), (6, 3), (7, 4), (9, 2), (16, 3), (17, 3)]
    )
    def test_ranks_follow_permutations_order(self, chunk, n, k):
        # every k-permutation once, in lexicographic order, at stride k
        ext = bytes(x for w in permutations(range(1, n + 1), k) for x in w)
        windows = len(ext) // k
        flags, seen = marked_kperm(ext, windows, k, n)
        assert flags == bytes(windows)
        assert seen.ranks == list(range(windows))

    # the widest k with P(n, k) < 2**32 at a group boundary, n = 16 and 17,
    # and at n = 127, where every digit is a group of its own; (12,12), a
    # full permutation whose last digit is left out, groups 6 * 5 * 4, and
    # (13,8) groups its eight digits in pairs
    @pytest.mark.parametrize("n, k", [(16, 9), (17, 8), (127, 4), (12, 12), (13, 8)])
    def test_ranks_of_sampled_windows(self, chunk, n, k):
        rng = random.Random(n * k)
        words = [tuple(rng.sample(range(1, n + 1), k)) for _ in range(500)]
        # the first and the last k-permutation, ranks 0 and P(n, k) - 1
        words += [tuple(range(1, k + 1)), tuple(range(n, n - k, -1))]
        flags, seen = marked_kperm(bytes(chain.from_iterable(words)), 502, k, n)
        assert flags == bytes(502)
        assert seen.ranks == [kperm_rank(w, range(1, n + 1)) for w in words]
        assert seen.ranks[-2:] == [0, perm(n, k) - 1]

    def test_every_valid_window_is_ranked_past_an_invalid_one(self, monkeypatch):
        monkeypatch.setattr(ocycles.verify, "_CHUNK", 3)
        ext = bytes(x for w in permutations(range(1, 5), 2) for x in w)
        ext = ext[:8] + b"\x07" + ext[9:]  # window 4 holds a symbol above n
        flags, seen = marked_kperm(ext, 12, 2, 4)
        assert flags == bytes(4) + b"\x80" + bytes(7)
        assert seen.ranks == [0, 1, 2, 3, *range(5, 12)]

    @pytest.mark.parametrize("kwargs", [*KERNEL_INSTANCES, dict(n=127, k=2, s=1)])
    def test_generated_strings_are_ranked(self, chunk, calls, kwargs):
        p, symbols = generated_bytes(**kwargs)
        report = verify_cycle_string(symbols, p)
        assert report.valid and report == decoded_report(symbols, p)
        assert calls["_kperm_ranks"] and not calls["_first_symbol_groups"]

    def test_n128_falls_back_and_verifies(self, calls):
        p, symbols = generated_bytes(n=128, k=2, s=1)
        report = verify_cycle_string(symbols, p)
        assert report.valid and report.object_count == 128 * 127
        assert calls == {"_first_symbol_groups": 1}

    # at (4,3,2) every symbol's windows hold all four others
    @pytest.mark.parametrize(
        "kwargs", [*KERNEL_INSTANCES[:2], KERNEL_INSTANCES[3], dict(n=6, k=3, s=2)]
    )
    def test_a_repeat_without_an_invalid_window_falls_back(self, chunk, calls, kwargs):
        # a symbol substituted by one that no window holding it holds yet
        # keeps every window valid and repeats one; the repeat is found by
        # rank, and the grouped count never runs
        p, symbols = generated_bytes(**kwargs)
        length, k, stride = len(symbols), p.k, p.k - p.s
        tried = 0
        for pos in range(0, length, 5):
            near = {
                symbols[(i + o) % length]
                for i in range(0, length, stride)
                if (pos - i) % length < k
                for o in range(k)
            }
            new = min(set(range(1, p.n + 1)) - near, default=None)
            if new is None:
                continue
            edited = symbols[:pos] + bytes([new]) + symbols[pos + 1 :]
            calls.clear()
            report = verify_cycle_string(edited, p)
            assert report == decoded_report(edited, p)
            assert report.duplicates and not report.invalid_words
            assert calls["_kperm_ranks"] and not calls["_first_symbol_groups"]
            tried += 1
        assert tried

    @pytest.mark.parametrize("size", [1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
    @pytest.mark.parametrize("kwargs", [*KERNEL_INSTANCES, dict(n=127, k=2, s=1)])
    def test_defects_match_decoded_windows(self, monkeypatch, size, kwargs):
        # one symbol replaced: by 0, n + 1, 127, 128 or 255 (127 is the
        # largest symbol a rank lane reads), or by a neighbour's, which
        # repeats it in a window or repeats a window; or two symbols
        # swapped.  The string and its windows as a list get the report of
        # the per-window test.  Every replacement at every position runs
        # under the default chunk; under the small chunks, where each
        # window is ranked on its own, each position takes one of them in
        # turn.  (127,2,1) has 16,002 windows: one position and two swaps
        if size is not None:
            monkeypatch.setattr(ocycles.verify, "_CHUNK", size)
        p, symbols = generated_bytes(**kwargs)
        length, k = len(symbols), p.k
        rng = random.Random(length)
        small = length < 1_000
        edits = []
        for pos in range(length) if small else [rng.randrange(length)]:
            near = [symbols[pos - 1], symbols[(pos + 1) % length]]
            values = [x for x in [0, p.n + 1, 127, 128, 255, *near] if x != symbols[pos]]
            if size is not None:
                values = values[pos % len(values) :][:1]
            for new in values:
                edits.append(symbols[:pos] + bytes([new]) + symbols[pos + 1 :])
        for _ in range(40 if small else 2):
            i, j = sorted(rng.sample(range(length), 2))
            a, b = symbols[i : i + 1], symbols[j : j + 1]
            edits.append(symbols[:i] + b + symbols[i + 1 : j] + a + symbols[j + 1 :])
        repeats = 0
        for edited in edits:
            want = decoded_report(edited, p)
            assert verify_cycle_string(edited, p) == want
            words = bytes(chain.from_iterable(decode_symbols(edited, k, p.s)))
            assert verify_object_list(Windows(words, k, k), p) == want
            repeats += bool(want.duplicates)
        assert repeats

    def test_defective_documents_are_not_grouped(self, calls, tmp_path):
        # a complete k-permutation document with a swapped pair, a replaced
        # symbol or a duplicated list line is counted by rank, never by the
        # grouped count
        p = validate_params(n=6, k=4, s=2)
        cycle = euler_tour(build_graph(p))
        symbols = cycle.symbols
        swapped = symbols[:3] + symbols[10:11] + symbols[4:10] + symbols[3:4] + symbols[11:]
        replaced = symbols[:7] + bytes([symbols[6]]) + symbols[8:]
        head = emit_document(cycle).rsplit("\n", 2)[0]
        lines = emit_list(cycle).splitlines()
        lines[-1] = lines[-5]
        documents = [
            (head + "\n" + " ".join(map(str, edited)) + "\n", "string")
            for edited in (swapped, replaced)
        ]
        documents.append(("\n".join(lines) + "\n", "list"))
        for text, fmt in documents:
            path = tmp_path / "doc.txt"
            path.write_text(text)
            calls.clear()
            code = ocycles.cli.main(["verify", str(path), "--n", "6", "--k", "4", "--s", "2"])
            assert code == 2 and parse_text(text).fmt == fmt
            assert calls["_kperm_ranks"] and not calls["_first_symbol_groups"]


# inside the multiset rank path's gate: 126, 210 and 630 objects, whose
# tables hold 114, 168 and 300 entries
RANKED_MULTISETS = [
    dict(multiset=(1, 1, 1, 1, 1, 2, 2, 2, 2), s=4),
    dict(multiset=(1, 1, 1, 2, 2, 3, 3), s=3),
    dict(multiset=(1, 1, 2, 2, 3, 3, 4), s=2),
]
# just outside it: 140 objects and tables of 152 entries
OUTSIDE_THE_GATE = dict(multiset=(1, 1, 1, 2, 2, 2, 3), s=3)


def full_second_pass(ranked, windows):
    """The repeated ranks of a ranked string, ascending, from a Counter of
    every valid window's rank: what the second pass must find."""
    counted = Counter(r for ranks, _ in ranked(range(windows)) for r in ranks)
    return sorted(r for r, c in counted.items() if c > 1)


def copied_word(words, i, j):
    """`words` with word i replaced by word j."""
    return words[:i] + [words[j]] + words[i + 1 :]


class TestMultisetRankPath:
    """A complete multiset byte string whose automaton fits the gate is
    counted by rank, defects and all, and every report equals the
    per-window test's; repeated ranks are found by ranking again only the
    groups of chunks whose count falls short, for both families."""

    @pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ocycles.verify, "_CHUNK", request.param)

    def test_the_gate(self):
        # small-sweep's instances, 2 to 60 objects, keep the grouped count:
        # their tables would cost more than their windows
        for p in oracle_sweep_instances():
            if p.mode.value == "multiset":
                total = object_count(p)
                assert ocycles.verify._rank_path(bytes(total * p.k), total, p.k, p) is None, p
        for kwargs, ranked in [*((kw, True) for kw in RANKED_MULTISETS), (OUTSIDE_THE_GATE, False),
                               (dict(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4), True),
                               (dict(multiset=(1, 1, 1, 2, 2, 2, 3, 3, 3, 4), s=3), True)]:
            p, symbols = generated_bytes(**kwargs)
            windows = len(symbols) // (p.k - p.s)
            ext = symbols + symbols[: p.s]
            assert (ocycles.verify._rank_path(ext, windows, p.k - p.s, p) is not None) == ranked
            # a window short or over, a symbol past a byte: the grouped count
            assert ocycles.verify._rank_path(ext, windows - 1, p.k - p.s, p) is None
        # 1..7: the 35 sub-multisets of size 3 and the sink, times 8, are
        # 288 byte values; 1,1,2,2,3,4,5,6: 36 of size 4, 259
        for multiset in [(1, 2, 3, 4, 5, 6, 7), (1, 1, 2, 2, 3, 4, 5, 6)]:
            assert ocycles.verify._multiset_automaton(multiset, 1 << 32) is None

    @pytest.mark.parametrize(
        "multiset",
        [(5, 5, 5, 5), (1, 1, 2), (1, 2, 255), (1, 2, 3, 4, 5, 6), (1, 1, 2, 2, 3, 3),
         (1, 1, 1, 1, 1, 2, 2, 2, 2), (1, 1, 1, 2, 2, 3, 3), (1, 1, 2, 2, 3, 3, 4),
         (1, 1, 1, 1, 2, 2, 2, 2, 3), (1, 1, 1, 2, 2, 2, 3, 3, 3), (1, 1, 2, 2, 3, 3, 4, 4),
         (3, 7, 7, 9, 9, 9, 12, 200), (2,) * 30 + (3,)],
    )
    def test_unranking_inverts_the_kernel(self, chunk, multiset):
        # every arrangement once, in lexicographic order, at stride k: the
        # kernel ranks them 0, 1, ..., and each rank unranks to its word
        p = validate_params(multiset=multiset, s=1)
        words = sorted(enumerate_objects(p))
        assert len(words) == len(set(words)) == object_count(p) <= 5_000
        automaton = ocycles.verify._multiset_automaton(multiset, 1 << 32)
        assert automaton[1] == 2  # ranks below 2**16 take 2-byte lanes
        ext = bytes(chain.from_iterable(words))
        chunks = ocycles.verify._multiset_ranked(ext, p.k, automaton, range(len(words)))
        ranks = [r for ranks, flags in chunks for r in ranks]
        assert ranks == list(range(len(words)))
        assert [ocycles.verify._multiset_word(r, multiset) for r in ranks] == words
        assert ranks[::97] == [arrangement_rank(w, Counter(multiset)) for w in words[::97]]

    # 4-byte lanes: 92,400 and 399,072,960 arrangements, and C(34, 17) =
    # 2,333,606,220 of two symbols, more than half of 2**32
    @pytest.mark.parametrize(
        "multiset", [(1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4), (1,) * 7 + (2,) * 7 + (3,) * 7,
                     (1,) * 17 + (2,) * 17]
    )
    def test_ranks_of_sampled_windows(self, chunk, multiset):
        k = len(multiset)
        rng = random.Random(k)
        words = [tuple(rng.sample(multiset, k)) for _ in range(300)]
        # the first and the last arrangement, ranks 0 and N - 1
        words += [tuple(sorted(multiset)), tuple(sorted(multiset, reverse=True))]
        automaton = ocycles.verify._multiset_automaton(multiset, 1 << 32)
        assert automaton[1] == 4
        ext = bytes(chain.from_iterable(words))
        chunks = ocycles.verify._multiset_ranked(ext, k, automaton, range(302))
        ranks = [r for ranks, flags in chunks for r in ranks]
        assert ranks == [arrangement_rank(w, Counter(multiset)) for w in words]
        assert ranks[-2:] == [0, object_count(validate_params(multiset=multiset, s=1)) - 1]
        assert [ocycles.verify._multiset_word(r, multiset) for r in ranks] == words

    @pytest.mark.parametrize("kwargs", [*RANKED_MULTISETS, OUTSIDE_THE_GATE])
    def test_defects_match_decoded_windows(self, chunk, calls, kwargs):
        # a symbol replaced by 0, by one past the multiset's or by 255, at
        # 60 positions, each by all three under the default chunk and by
        # one in turn under the small ones; swaps, windows copied over
        # others, and every symbol set to the first, which makes every
        # window invalid.  The string and its windows as a list get the
        # report of the per-window test
        p, symbols = generated_bytes(**kwargs)
        length, k, stride = len(symbols), p.k, p.k - p.s
        rng = random.Random(length)
        edits = [symbols[:1] * length]
        for pos in range(0, length, -(-length // 60)):
            values = [0, p.n + 1, 255]
            if ocycles.verify._CHUNK < 8:
                values = values[pos % 3 :][:1]
            for new in values:
                edits.append(symbols[:pos] + bytes([new]) + symbols[pos + 1 :])
        for _ in range(15):
            i, j = sorted(rng.sample(range(length), 2))
            a, b = symbols[i : i + 1], symbols[j : j + 1]
            edits.append(symbols[:i] + b + symbols[i + 1 : j] + a + symbols[j + 1 :])
            i, j = rng.sample(range(0, length - k, stride), 2)
            edits.append(symbols[:i] + symbols[j : j + k] + symbols[i + k :])
        repeats = 0
        for edited in edits:
            calls.clear()
            want = decoded_report(edited, p)
            assert verify_cycle_string(edited, p) == want
            assert bool(calls["_multiset_ranks"]) == (kwargs is not OUTSIDE_THE_GATE)
            assert not calls["_first_symbol_groups"] == (kwargs is not OUTSIDE_THE_GATE)
            words = bytes(chain.from_iterable(decode_symbols(edited, k, p.s)))
            assert verify_object_list(Windows(words, k, k), p) == want
            repeats += bool(want.duplicates)
        assert repeats

    @pytest.mark.parametrize("kwargs", [*RANKED_MULTISETS, OUTSIDE_THE_GATE])
    def test_duplicated_lines(self, chunk, kwargs):
        # a list with a line repeated once, twice and at both ends
        p = validate_params(**kwargs)
        words = list(euler_tour(build_graph(p)).edges)
        last = len(words) - 1
        for i, j in [(0, 1), (1, 0), (0, last), (last, 0), (last - 1, last), (5, 40)]:
            report = both_list_paths(copied_word(words, i, j), p)
            assert len(report.duplicates) == report.missing_count == 1
        edited = copied_word(copied_word(words, 3, 9), 20, 9)
        assert both_list_paths(edited, p).duplicates == [words[9]]

    @pytest.mark.parametrize(
        "kwargs", [dict(n=6, k=4, s=2), dict(n=5, k=5, s=2), *RANKED_MULTISETS[1:]]
    )
    def test_repeat_pass_equals_a_full_second_pass(self, chunk, kwargs):
        # repeats within one chunk, across chunks, in the last chunk, three
        # windows of one rank, and a repeat next to an invalid window
        p = validate_params(**kwargs)
        words = list(euler_tour(build_graph(p)).edges)
        total, k = len(words), p.k
        size = min(ocycles.verify._CHUNK, total // 2)  # where a chunk ends
        last = total - 1
        bad = tuple(0 for _ in range(k))
        lists = [copied_word(words, i, j) for i, j in
                 [(0, 1), (1, 0), (0, last), (last - 1, last), (last, last - 1),
                  (size, size + 1), (size - 1, size), (total // 2, 3)]]
        lists.append(copied_word(copied_word(words, 2, 7), last, 7))
        lists.append(copied_word(copied_word(words, 4, 9), 5, 11))
        lists.append(copied_word(words[:8] + [bad] + words[9:], 10, 7))
        for edited in lists:
            ext = bytes(chain.from_iterable(edited))
            chunks, _ = ocycles.verify._rank_path(ext, total, k, p)
            seen = bytearray(total)
            flags = ocycles.verify._marked(chunks(range(total)), total, seen)
            repeated = ocycles.verify._repeated_ranks(chunks, total, flags, seen)
            assert list(repeated) == full_second_pass(chunks, total)
            assert repeated

    @pytest.mark.parametrize(
        "kwargs, kernel",
        [(dict(n=6, k=4, s=2), "_kperm_ranks"), (RANKED_MULTISETS[2], "_multiset_ranks")],
    )
    def test_a_repeat_ranks_again_only_the_group_of_its_first_window(
        self, monkeypatch, calls, kwargs, kernel
    ):
        # 360 and 630 windows, 8 a chunk: 45 and 79 chunks, in 15 groups
        # of 3 chunks and 16 of 5.  A line copied from a later one makes
        # only the copy's group fall short, and only its chunks are ranked
        # again; the original's group holds the rank's last window
        monkeypatch.setattr(ocycles.verify, "_CHUNK", 8)
        p = validate_params(**kwargs)
        words = list(euler_tour(build_graph(p)).edges)
        total = len(words)
        chunks = -(-total // 8)
        group = ocycles.verify._group_windows(total) // 8  # chunks a group
        for i, j in [(0, total - 1), (30, 100), (total - 9, total - 1), (100, 30)]:
            calls.clear()
            report = verify_object_list(Windows(bytes(chain.from_iterable(copied_word(words, i, j))),
                                                p.k, p.k), p)
            assert report.duplicates == [words[j]]
            first = min(i, j) // 8 // group  # the group of the rank's first window
            again = min(group, chunks - first * group)
            assert calls == {kernel: chunks + again}

    def test_gated_documents_never_take_the_grouped_count(self, calls, tmp_path):
        # the multiset documents a benchmark verifies: the string, a swapped
        # pair, the list and a duplicated line are counted by rank
        p = validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)
        cycle = euler_tour(build_graph(p))
        symbols = cycle.symbols
        swapped = symbols[:3] + symbols[10:11] + symbols[4:10] + symbols[3:4] + symbols[11:]
        head = emit_document(cycle).rsplit("\n", 2)[0]
        lines = emit_list(cycle).splitlines()
        valid_list = "\n".join(lines) + "\n"
        lines[-1] = lines[-5]
        documents = [
            (head + "\n" + " ".join(map(str, symbols)) + "\n", 0),
            (head + "\n" + " ".join(map(str, swapped)) + "\n", 2),
            (valid_list, 0),
            ("\n".join(lines) + "\n", 2),
        ]
        for text, want in documents:
            path = tmp_path / "doc.txt"
            path.write_text(text)
            calls.clear()
            argv = ["verify", str(path), "--multiset", "1,1,2,2,3,3,4,4,5", "--s", "4"]
            assert ocycles.cli.main(argv) == want
            assert calls["_multiset_ranks"] and not calls["_kperm_ranks"]
            assert not calls["_first_symbol_groups"] and not calls["_multiset_invalid"]


@pytest.fixture(scope="module")
def fullperm_8_8_3():
    p = validate_params(n=8, k=8, s=3)
    return p, euler_tour(build_graph(p))


@pytest.fixture(scope="module")
def tour_9_6_3():
    p = validate_params(n=9, k=6, s=3)
    return p, euler_tour(build_graph(p))


def traced_peak(fn, *args):
    """fn(*args) and the peak of Python allocations above the start, in
    bytes.  A full collection first empties CPython's free lists, so that
    the tuples and lists fn makes are allocated, and traced, whatever the
    tests before it left there."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


class TestMemoryGuard:
    """Traced peaks per object at (8,8,3), 40,320 objects, for the tour
    also at (9,5,1), (12,5,2), (9,6,3) and the multiset 1,1,1,2,2,2,3,3,3,4
    with s = 3, and for the verifier also at the multiset 1,1,2,2,3,3,4,4,5
    with s = 4, 22,680 objects.
    Allocation sizes are deterministic, and ``traced_peak`` empties the
    free lists first, so a per-object peak reads within 1% of the same
    alone as in the suite; one-byte symbols and pieces of a long body keep
    each stage well under its bound."""

    def test_euler_tour(self, fullperm_8_8_3):
        # reads 28.4: each of the 56 letter sets gets a table, each tail
        # followed by its head's position (27.5 when a quarter of them were
        # lazy cursors past a budget of one tail per 8 edges)
        p, _ = fullperm_8_8_3
        tour, peak = traced_peak(euler_tour, build_graph(p))
        assert len(tour.edges) == 40_320
        assert peak / 40_320 < 35

    @pytest.mark.parametrize("n, k, s, bound", [(9, 5, 1, 20), (12, 5, 2, 20)])
    def test_euler_tour_lazy_cursors(self, n, k, s, bound):
        # at s <= 2 no tail table is built: one would serve one vertex at
        # s = 1 and two at s = 2.  The tour reads 16.6 at (9,5,1) and 15.5
        # at (12,5,2); a table for every letter set reads 61.4 and 37.0
        p = validate_params(n=n, k=k, s=s)
        tour, peak = traced_peak(euler_tour, build_graph(p))
        assert tour.object_count == object_count(p)
        assert peak / tour.object_count < bound

    @pytest.mark.parametrize(
        "kwargs, bound",
        [(dict(n=9, k=6, s=3), 30), (dict(multiset=(1, 1, 1, 2, 2, 2, 3, 3, 3, 4), s=3), 45)],
        ids=["9-6-3", "multiset"],
    )
    def test_euler_tour_tables(self, kwargs, bound):
        # at s = 3 every letter set gets a table: (9,6,3) reads 23.9, where
        # a table serves 6 vertices, and the multiset 38.3 (38.5 alone),
        # where the letter set 1,2,3 serves 6 vertices and 1,1,1 one
        p = validate_params(**kwargs)
        tour, peak = traced_peak(euler_tour, build_graph(p))
        assert tour.object_count == object_count(p)
        assert peak / tour.object_count < bound

    def test_euler_tour_that_backtracks(self):
        # the multiset walk gets stuck 15 times with edges left and backs
        # down a run of steps each time; it reads 21.9, every letter set's
        # table linked (22.7 with bare tails).  Run alone, in a new process,
        # it reads 22.1; cursors that zipped a tails iterator with a
        # heads iterator read 24.6 here and 26.4 alone.  Deleting all but
        # the start of the stack as one slice when the walk ends, rather
        # than clearing it, adds a buffer of the deleted pointers: 23.9
        p = validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)
        tour, peak = traced_peak(euler_tour, build_graph(p))
        assert tour.object_count == 22_680
        assert peak / tour.object_count < 25

    def test_tour_to_cycle(self, fullperm_8_8_3):
        p, tour = fullperm_8_8_3
        cycle, peak = traced_peak(tour_to_cycle, tour)
        assert cycle.object_count == 40_320
        assert peak / 40_320 < 80

    def test_emit_document(self, fullperm_8_8_3):
        p, tour = fullperm_8_8_3
        text, peak = traced_peak(emit_document, tour_to_cycle(tour))
        assert text.rsplit("\n", 2)[1].count(" ") == 40_320 * 5 - 1
        # named 16,384 symbols at a time reads 20.0; the whole string named
        # as one piece reads 40.0
        assert peak / 40_320 < 25

    @pytest.mark.parametrize(
        "separator, bound", [(" ", 24), (",", 45), ("", 45)], ids=["whitespace", "comma", "packed"]
    )
    def test_parse_text(self, fullperm_8_8_3, separator, bound):
        # every string body is read in pieces, whatever splits its symbols;
        # spaced pieces read 17.4 (29.5 split into one token per symbol)
        p, tour = fullperm_8_8_3
        cycle = tour_to_cycle(tour)
        *head, body = emit_document(cycle).splitlines()
        text = "\n".join([*head, body.replace(" ", separator), ""])
        parsed, peak = traced_peak(parse_text, text)
        assert parsed.symbols == cycle.symbols
        assert peak / 40_320 < bound

    @staticmethod
    def many_lines(fullperm, end="\n", note=False):
        """The (8,8,3) string document with its body in lines of k - s
        symbols, each ended by `end`, with a comment line in the middle if
        `note`, and the cycle."""
        p, tour = fullperm
        cycle = tour_to_cycle(tour)
        *head, body = emit_document(cycle).splitlines()
        names, step = body.split(" "), p.k - p.s
        lines = [" ".join(names[i : i + step]) for i in range(0, len(names), step)]
        if note:
            lines.insert(len(lines) // 2, "# a note")
        return end.join([*head, *lines, ""]), cycle

    def test_parse_text_many_lines(self, fullperm_8_8_3):
        # a string body of 40,320 lines of k - s symbols is read as one
        # slice, its newlines as spaces: 20.0.  Read a line at a time it
        # read 131.8
        text, cycle = self.many_lines(fullperm_8_8_3)
        parsed, peak = traced_peak(parse_text, text)
        assert parsed.symbols == cycle.symbols
        assert peak / 40_320 < 26

    def test_parse_text_many_crlf_lines(self, fullperm_8_8_3):
        # the same lines ended by CRLF are read whole from their stripped
        # lines joined by newlines: 96.8.  Read a line at a time they read
        # 131.8, each line yielding plain bytes pieces and the body lines
        # dropped before the symbols were joined; kept in a list until
        # parse_text returned they read 198.5, and a buffer per line,
        # viewed by each of its pieces, 467.9
        text, cycle = self.many_lines(fullperm_8_8_3, "\r\n")
        parsed, peak = traced_peak(parse_text, text)
        assert parsed.symbols == cycle.symbols
        assert peak / 40_320 < 160

    def test_parse_text_many_lines_and_a_comment(self, fullperm_8_8_3):
        # a comment line among them declines the slice, and the stripped
        # lines are read whole, as CRLF lines are: 96.8
        text, cycle = self.many_lines(fullperm_8_8_3, note=True)
        parsed, peak = traced_peak(parse_text, text)
        assert parsed.symbols == cycle.symbols
        assert peak / 40_320 < 120

    def test_write_output(self, tmp_path):
        # an 8 MB document is written 512 Ki characters at a time: a slice
        # and its encoded copy read 1.05 MB; writing it whole reads 8.4 MB
        text = "12 34 5 " * (1 << 20)
        path = tmp_path / "doc.txt"
        _, peak = traced_peak(ocycles.cli._write_output, text, str(path))
        assert path.read_text() == text
        assert peak < 2_000_000

    def test_verify_cycle_string(self, fullperm_8_8_3):
        p, tour = fullperm_8_8_3
        symbols = tour_to_cycle(tour).symbols
        report, peak = traced_peak(verify_cycle_string, symbols, p)
        assert report.valid
        # ranked 8,192 windows at a time reads 14.0 (16,384 at a time 22.3,
        # 32,768 at a time 34.4); the grouped count, one group's windows at
        # a time, reads 23.4
        assert peak / 40_320 < 20

    def test_verify_defective_string(self, fullperm_8_8_3):
        # still ranked: window 1,000 overwritten by window 20,000, a repeat
        # between two invalid windows, reads 16.7, with its second pass over
        # the windows; two symbols swapped, four invalid windows, 15.9.  The
        # grouped count read 23.5 on both
        p, tour = fullperm_8_8_3
        symbols = tour_to_cycle(tour).symbols
        repeated = symbols[:5_000] + symbols[100_000:100_008] + symbols[5_008:]
        swapped = symbols[:7] + symbols[150_000:150_001] + symbols[8:150_000]
        swapped += symbols[7:8] + symbols[150_001:]
        for edited, duplicates, invalid in ((repeated, 1, 2), (swapped, 0, 4)):
            report, peak = traced_peak(verify_cycle_string, edited, p)
            assert len(report.duplicates) == duplicates and len(report.invalid_words) == invalid
            assert peak / 40_320 < 20

    def test_verify_short_string_of_a_large_instance(self):
        # the rank bitmap holds P(n, k) bytes, so it is built only for a
        # string of exactly P(n, k) windows: not here, where P(120, 4) is
        # 197 million and the string has 4 windows
        p, symbols = validate_params(n=120, k=4, s=1), bytes(range(1, 13))
        report, peak = traced_peak(verify_cycle_string, symbols, p)
        assert report == decoded_report(symbols, p) and report.object_count == 4
        assert peak < 64_000

    def test_verify_cycle_string_per_word(self):
        # a multiset string's windows are ranked by its automaton, 12.7;
        # flagged by _multiset_invalid and counted one group at a time they
        # read 35.8 (flagged one at a time by _validity from a generator of
        # windows 35.8 too; slicing every window into one list first 64.2)
        p = validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)
        symbols = euler_tour(build_graph(p)).symbols
        report, peak = traced_peak(verify_cycle_string, symbols, p)
        assert report.valid and report.object_count == 22_680
        assert peak / 22_680 < 40

    @pytest.mark.parametrize("form, bound", [("string", 15), ("list", 20)])
    def test_verify_multiset_by_rank(self, form, bound):
        # the multiset's windows are ranked a chunk at a time, in 2-byte
        # lanes, and each rank marks one byte of a bitmap: 12.7 and 12.9.
        # With 4-byte lanes the string read 16.5
        p = validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)
        tour = euler_tour(build_graph(p))
        if form == "string":
            report, peak = traced_peak(verify_cycle_string, tour.symbols, p)
        else:
            words = Windows(bytes(chain.from_iterable(tour.edges)), p.k, p.k)
            report, peak = traced_peak(verify_object_list, words, p)
        assert report.valid and report.object_count == 22_680
        assert peak / 22_680 < bound

    def test_verify_list_with_a_duplicated_line(self, fullperm_8_8_3):
        # line 30,000 repeated over line 100: the second pass ranks again
        # only the chunk that holds line 100, 16.0
        p, tour = fullperm_8_8_3
        words = list(tour.edges)
        words[100] = words[30_000]
        words = Windows(bytes(chain.from_iterable(words)), p.k, p.k)
        report, peak = traced_peak(verify_object_list, words, p)
        assert len(report.duplicates) == report.missing_count == 1
        assert peak / 40_320 < 25

    def test_verify_swap_that_repeats_a_window(self, tour_9_6_3):
        # symbols 16,543 and 66,864 swapped: three invalid windows and one
        # repeated; only the chunk of its first window is ranked again, 10.8
        # (9.6 for the valid string)
        p, tour = tour_9_6_3
        symbols, i, j = tour.symbols, 16_543, 66_864
        edited = symbols[:i] + symbols[j : j + 1] + symbols[i + 1 : j]
        edited += symbols[i : i + 1] + symbols[j + 1 :]
        report, peak = traced_peak(verify_cycle_string, edited, p)
        assert report.duplicates == [(1, 2, 3, 9, 8, 4)] and len(report.invalid_words) == 3
        assert peak / 60_480 < 20

    def test_verify_tuple_string_per_word(self, kperm_300_cycle):
        # a tuple string's windows are flagged one at a time by _validity,
        # from a generator of windows: 30.2; slicing every window into one
        # list first reads 81.6
        p, symbols = kperm_300_cycle
        report, peak = traced_peak(verify_cycle_string, symbols, p)
        assert report.valid and report.object_count == 89_700
        assert peak / 89_700 < 40

    @pytest.mark.parametrize(
        "kwargs, bound",
        [(dict(n=8, k=8, s=3), 45), (dict(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4), 70)],
        ids=["8-8-3", "multiset"],
    )
    def test_verify_word_tuples(self, kwargs, bound):
        # a list of word tuples is joined into one byte string and checked
        # at stride k as a list document's is: 22.5 at (8,8,3) and 22.0 for
        # the multiset, ranked (45.1 by the grouped count); checked one
        # tuple at a time and counted by hashing they read 72.7 and 109.0
        p = validate_params(**kwargs)
        words = list(euler_tour(build_graph(p)).edges)
        report, peak = traced_peak(verify_object_list, words, p)
        assert report.valid and report.object_count == len(words)
        assert peak / len(words) < bound

    def test_verify_multiset_list(self):
        # a multiset list's words, one byte string at stride k, are ranked
        # as a string's windows are: 12.9; counted one group of first
        # symbols at a time they read 36.1, and hashed into a Counter 129.6
        p = validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)
        words = Windows(bytes(chain.from_iterable(euler_tour(build_graph(p)).edges)), p.k, p.k)
        report, peak = traced_peak(verify_object_list, words, p)
        assert report.valid and report.object_count == 22_680
        assert peak / 22_680 < 45

    def test_emit_names_only_the_symbols_that_occur(self):
        # a multiset's n is its largest symbol, which its object count does
        # not bound: the two documents of 1,1000000's 2 objects read
        # 2.3 and 3.1 kB; a name for every value 0..n read 128.8 MB
        p = validate_params(multiset=(1, 10**6), s=1)
        cycle = euler_tour(build_graph(p))
        text, peak = traced_peak(emit_document, cycle)
        assert text.endswith("\n" + " ".join(map(str, cycle.symbols)) + "\n")
        assert peak < 1_000_000
        text, peak = traced_peak(emit_list, cycle)
        assert text.endswith("".join(",".join(map(str, w)) + "\n" for w in cycle.edges))
        assert peak < 1_000_000

    def test_parse_and_verify_list(self, fullperm_8_8_3):
        # a list body of names 1..10 is read into one byte string and checked
        # at stride k: 32.0, the parse's peak; split into the document's
        # 40,320 lines first it read 113.5, and read into word tuples and
        # checked one word at a time 186.2
        p, tour = fullperm_8_8_3
        text = emit_list(tour)
        report, peak = traced_peak(lambda: verify_object_list(parse_text(text).words, p))
        assert report.valid and report.object_count == 40_320
        assert peak / 40_320 < 130

    def test_parse_list_text(self, fullperm_8_8_3):
        # the body after the header block is read as one slice: 32.0; split
        # into one str per line and joined again it read 129.5
        p, tour = fullperm_8_8_3
        text = emit_list(tour)
        parsed, peak = traced_peak(parse_text, text)
        assert isinstance(parsed.words, Windows) and len(parsed.words) == 40_320
        assert peak / 40_320 < 45

    def test_parse_wide_list(self):
        # a list body of names 1..12 is read as one comma line, a piece at a
        # time, into one byte string: 46.0; one word tuple per line read 157.5
        p = validate_params(n=12, k=5, s=2)
        text = emit_list(euler_tour(build_graph(p)))
        parsed, peak = traced_peak(parse_text, text)
        assert isinstance(parsed.words, Windows) and len(parsed.words) == 95_040
        assert peak / 95_040 < 70

    def test_verify_listing_violations(self):
        # the (9,6,3) listing in lexicographic order breaks the overlap after
        # every one of its 60,480 words; the violations are a view of their
        # positions, 8 bytes each, with the words' string: 21.1.  A tuple
        # per violation, sharing one tuple per distinct s-symbol slice, read
        # 117.9, and two new tuples per violation 245.3
        p = validate_params(n=9, k=6, s=3)
        words = Windows(bytes(chain.from_iterable(permutations(range(1, 10), 6))), 6, 6)
        report, peak = traced_peak(verify_object_list, words, p)
        assert len(report.overlap_violations) == report.object_count == 60_480
        assert peak / 60_480 < 35
        # read back, the violations name every one of the 504 3-symbol slices
        assert len({v for _, *pair in report.overlap_violations for v in pair}) == 504
        assert report.overlap_violations[-1] == (60_479, (6, 5, 4), (1, 2, 3))

    def test_verify_string_of_invalid_windows(self, tour_9_6_3):
        # the (9,6,3) tour with every 9 replaced by 0: 40,320 of its 60,480
        # windows are invalid, a view of their starts: 11.0.  A tuple per
        # invalid window read 69.5
        p, tour = tour_9_6_3
        symbols = tour.symbols.replace(b"\x09", b"\x00")
        report, peak = traced_peak(verify_cycle_string, symbols, p)
        assert len(report.invalid_words) == report.missing_count == 40_320
        assert peak / 60_480 < 25


class TestVerifyObjectList:
    def test_fixture(self, perm5_fixture_words):
        p = validate_params(n=5, k=5, s=3)
        report = verify_object_list(perm5_fixture_words, p)
        assert report.valid
        assert report.object_count == 120

    def test_every_transposition_fails(self, perm5_fixture_words):
        p = validate_params(n=5, k=5, s=3)
        words = perm5_fixture_words
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                swapped = list(words)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                report = verify_object_list(swapped, p)
                assert not report.valid, (i, j)
                assert report.overlap_violations

    def test_small_list(self):
        p = validate_params(n=3, k=2, s=1)
        words = [(1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (3, 1)]
        assert verify_object_list(words, p).valid

    def test_violation_located(self):
        p = validate_params(n=3, k=2, s=1)
        words = [(1, 2), (1, 3), (2, 1), (3, 2), (2, 3), (3, 1)]
        report = verify_object_list(words, p)
        assert not report.valid
        positions = [pos for pos, _, _ in report.overlap_violations]
        assert 0 in positions

    def test_missing_and_duplicate(self):
        p = validate_params(n=3, k=2, s=1)
        words = [(1, 2), (2, 1), (1, 2), (2, 3), (3, 2), (2, 1)]
        report = verify_object_list(words, p)
        assert not report.valid
        assert (1, 2) in report.duplicates
        assert report.missing_count == 2

    def test_empty_list(self):
        p = validate_params(n=3, k=2, s=1)
        assert not verify_object_list([], p).valid


def assert_reads_as(view, want):
    """`view` reads as the list `want` every way a report's field is read."""
    assert len(view) == len(want) and list(view) == want
    assert view == want and want == view and not view != want
    assert view == tuple(want)  # any sequence, element by element
    assert repr(view) == repr(want)
    for i in range(-len(want), len(want)):
        assert view[i] == want[i]
    for past in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            view[past]
    for cut in (slice(None), slice(5), slice(-3, None), slice(1, -1, 2), slice(None, None, -1)):
        assert type(view[cut]) is list and view[cut] == want[cut]
    assert all(w in view for w in want[:3] + want[-3:]) and (0, ()) not in view
    if want:
        assert view != want[:-1] and view != [*want[:-1], ()] and view != [*want, want[0]]
    with pytest.raises(TypeError):
        hash(view)


class WeakSymbols(list):
    """A symbol string that a weak reference can follow."""


class TestDefectViews:
    """A report's defects read from flag bytes or the rank bitmap are views
    of their positions; each reads as the eager reference's list."""

    def assert_fields_read_as(self, report, want):
        for name in ("invalid_words", "duplicates", "overlap_violations"):
            got = getattr(report, name)
            # a string's violations and the grouped count's repeats are lists
            if type(got) is list:
                assert got == getattr(want, name)
            else:
                assert_reads_as(got, getattr(want, name))
        assert report == want

    def test_listing_violations(self):
        # (5,3,2) in lexicographic order: every word breaks the overlap
        p = validate_params(n=5, k=3, s=2)
        words = list(permutations(range(1, 6), 3))
        for listed in (words, Windows(bytes(chain.from_iterable(words)), 3, 3)):
            report = verify_object_list(listed, p)
            assert len(report.overlap_violations) == 60
            self.assert_fields_read_as(report, reference_object_list(words, p))

    def test_ranked_string_with_every_defect(self):
        # symbols 6..11 overwritten by the first six: two repeated
        # windows, and two invalid windows around them
        p, symbols = generated_bytes(n=6, k=4, s=2)
        edited = symbols[:6] + symbols[:6] + symbols[12:]
        report = verify_cycle_string(edited, p)
        assert report.invalid_words and report.duplicates
        self.assert_fields_read_as(report, decoded_report(edited, p))
        # the same windows as a list, two of them swapped: violations too
        words = list(decode_symbols(edited, p.k, p.s))
        words[7], words[50] = words[50], words[7]
        report = verify_object_list(Windows(bytes(chain.from_iterable(words)), 4, 4), p)
        assert report.invalid_words and report.duplicates and report.overlap_violations
        self.assert_fields_read_as(report, reference_object_list(words, p))

    def test_tuple_string(self, kperm_300_cycle):
        # symbols above 255: the views index a tuple string
        p, symbols = kperm_300_cycle
        edited = (0, 301, *symbols[2:200], 256, *symbols[201:])
        self.assert_fields_read_as(
            verify_cycle_string(edited, p), reference_cycle_string(edited, p)
        )
        words = [(1, 300), (300, 256), (0, 2), (2, 1), (1, 300)]
        self.assert_fields_read_as(verify_object_list(words, p), reference_object_list(words, p))

    def test_empty_views(self, perm5_fixture_words):
        p = validate_params(n=5, k=5, s=3)
        symbols = bytes(chain.from_iterable(w[:2] for w in perm5_fixture_words))
        for report in (
            verify_cycle_string(symbols, p),
            verify_object_list(Windows(bytes(chain.from_iterable(perm5_fixture_words)), 5, 5), p),
        ):
            assert report.valid
            self.assert_fields_read_as(report, reference_object_list(perm5_fixture_words, p))

    def test_an_empty_view_keeps_no_reference_to_its_string(self):
        for positions, want in ((array("q"), []), (array("q", [1, 0]), [(2, 3, 4), (1, 2, 3)])):
            symbols = WeakSymbols([1, 2, 3, 4])
            ref = weakref.ref(symbols)
            view = ocycles.verify._Defects(positions, partial(ocycles.verify._window, symbols, 3))
            del symbols
            assert (ref() is None) == (want == [])
            assert_reads_as(view, want)


# order-preserving names for a multiset's symbols 1..5, all within a byte
NAMES = (7, 8, 100, 254, 255)


def renamed_text(text, names):
    """A document with each symbol x in 1..len(names) named names[x - 1],
    in its body and in its `# n` and `# multiset` headers."""

    def name(token):
        x = int(token)
        return str(names[x - 1] if 1 <= x <= len(names) else x)

    lines = []
    for line in text.splitlines():
        if line.startswith("# n "):
            line = f"# n {names[int(line[4:]) - 1]}"
        elif line.startswith("# multiset "):
            line = "# multiset " + ",".join(map(name, line[11:].split(",")))
        elif line and not line.startswith("#"):
            line = " ".join(",".join(map(name, t.split(","))) for t in line.split(" "))
        lines.append(line)
    return "\n".join(lines) + "\n"


def renamed_report(report, names):
    """The report with each symbol x in 1..len(names) named names[x - 1]."""
    table = {x: names[x - 1] for x in range(1, len(names) + 1)}

    def word(w):
        return tuple(table.get(x, x) for x in w)

    return dataclasses.replace(
        report,
        duplicates=list(map(word, report.duplicates)),
        invalid_words=list(map(word, report.invalid_words)),
        overlap_violations=[(i, word(a), word(b)) for i, a, b in report.overlap_violations],
    )


class TestRename:
    """Renaming a multiset's symbols in order, with names up to 255, gives
    the same report up to names and the same exit code, on the ranked path
    and on the grouped count alike: the acceptance sweep's multisets and
    the one the docs-verify benchmark verifies, each as generated, with two
    symbols swapped, with one replaced by 0, and as a list with a line
    repeated."""

    @pytest.mark.parametrize(
        "p",
        [*multiset_instances(), validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4)],
        ids=lambda p: p.describe(),
    )
    def test_an_order_preserving_rename(self, p, tmp_path, capsys):
        names = NAMES[: len(set(p.multiset))]
        q = validate_params(multiset=[names[x - 1] for x in p.multiset], s=p.s)
        cycle = euler_tour(build_graph(p))
        string, listing = emit_document(cycle), emit_list(cycle)
        *head, body = string.splitlines()
        tokens = body.split(" ")
        i = tokens.index(next(t for t in tokens if t != tokens[0]))
        swapped = [tokens[i], *tokens[1:i], tokens[0], *tokens[i + 1 :]]
        lines = listing.splitlines()
        lines[-1] = lines[-3]
        documents = [
            string,
            "\n".join([*head, " ".join(swapped)]) + "\n",
            "\n".join([*head, " ".join(["0", *tokens[1:]])]) + "\n",
            listing,
            "\n".join(lines) + "\n",
        ]
        for text in documents:
            codes, reports = [], []
            for params, doc in ((p, text), (q, renamed_text(text, names))):
                path = tmp_path / "doc.txt"
                path.write_text(doc)
                argv = ["verify", str(path), "--multiset", ",".join(map(str, params.multiset))]
                codes.append(ocycles.cli.main([*argv, "--s", str(params.s)]))
                parsed = parse_text(doc)
                if parsed.fmt == "string":
                    reports.append(verify_cycle_string(parsed.symbols, params))
                else:
                    reports.append(verify_object_list(parsed.words, params))
            capsys.readouterr()
            assert codes[0] == codes[1] and codes[0] == (0 if text in (string, listing) else 2)
            assert reports[1] == renamed_report(reports[0], names)


class TestReportText:
    """``verify`` prints each report byte for byte as it prints the eager
    reference's: the counts, then the first five defects of each kind."""

    @pytest.fixture
    def verify_text(self, capsys, tmp_path):
        def run(text, p, want):
            path = tmp_path / "doc.txt"
            path.write_text(text)
            capsys.readouterr()
            flags = ["--n", str(p.n), "--k", str(p.k), "--s", str(p.s)]
            assert ocycles.cli.main(["verify", str(path), *flags]) == 2
            got = capsys.readouterr()
            ocycles.cli._print_report(want)
            assert got.out == capsys.readouterr().out and got.err == ""
            return got.out

        return run

    def test_lexicographic_listing(self, verify_text):
        p = validate_params(n=9, k=6, s=3)
        words = list(permutations(range(1, 10), 6))
        text = "".join("".join(map(str, w)) + "\n" for w in words)
        out = verify_text(text, p, reference_object_list(words, p))
        assert "overlap-violations: 60480\n" in out

    def test_swapped_string(self, verify_text, tour_9_6_3):
        p, tour = tour_9_6_3
        symbols = tour.symbols
        i, j = 5_000, 100_000
        assert symbols[i] != symbols[j]
        swapped = symbols[:i] + symbols[j : j + 1] + symbols[i + 1 : j] + symbols[i : i + 1]
        swapped += symbols[j + 1 :]
        head = emit_document(tour).rsplit("\n", 2)[0]
        text = head + "\n" + " ".join(map(str, swapped)) + "\n"
        out = verify_text(text, p, decoded_report(swapped, p))
        assert "  invalid word: " in out

    def test_duplicated_list_line(self, verify_text, tour_9_6_3):
        p, tour = tour_9_6_3
        lines = emit_list(tour).splitlines()
        lines[-1] = lines[-5]
        words = [tuple(map(int, line.split(","))) for line in lines if not line.startswith("#")]
        out = verify_text("\n".join(lines) + "\n", p, reference_object_list(words, p))
        assert "duplicates: 1\n" in out and "overlap-violations: 2\n" in out

    def test_every_nine_replaced(self, verify_text, tour_9_6_3):
        p, tour = tour_9_6_3
        symbols = tour.symbols.replace(b"\x09", b"\x00")
        head = emit_document(tour).rsplit("\n", 2)[0]
        text = head + "\n" + " ".join(map(str, symbols)) + "\n"
        out = verify_text(text, p, decoded_report(symbols, p))
        assert "invalid-words: 40320\n" in out


class TestHamiltonOracle:
    def test_witness_3_2_1(self):
        result = hamilton_oracle(validate_params(n=3, k=2, s=1))
        assert result.status is OracleStatus.WITNESS
        assert len(result.cycle) == 6
        p = validate_params(n=3, k=2, s=1)
        assert verify_object_list(result.cycle, p).valid

    def test_witness_4_3_2(self):
        result = hamilton_oracle(validate_params(n=4, k=3, s=2))
        assert result.status is OracleStatus.WITNESS

    def test_no_cycle_for_max_overlap_full_perms(self):
        result = hamilton_oracle(validate_params(n=4, k=4, s=3))
        assert result.status is OracleStatus.NO_CYCLE

    def test_no_cycle_for_disconnected_unknown_case(self):
        result = hamilton_oracle(validate_params(n=4, k=4, s=2))
        assert result.status is OracleStatus.NO_CYCLE

    def test_budget_exhaustion(self):
        result = hamilton_oracle(validate_params(n=5, k=3, s=1), budget=3)
        assert result.status is OracleStatus.EXHAUSTED
        assert result.cycle is None

    def test_object_cap(self):
        with pytest.raises(LimitError):
            hamilton_oracle(validate_params(n=5, k=4, s=2))

    def test_witness_starts_at_smallest_object(self):
        result = hamilton_oracle(validate_params(n=4, k=2, s=1))
        assert result.cycle[0] == (1, 2)


def cross_check(params, budget=DEFAULT_ORACLE_BUDGET):
    """Generate and verify, then confirm the oracle independently agrees."""
    verdict = feasibility(params)
    if verdict.status is not Feasibility.GUARANTEED:
        raise ValueError("cross_check expects a guaranteed-feasible instance")
    if object_count(params) > ORACLE_OBJECT_CAP:
        raise LimitError(object_count(params), ORACLE_OBJECT_CAP)
    tour = euler_tour(build_graph(params))
    report = verify_object_list(tour.edges, params)
    oracle = hamilton_oracle(params, budget)
    return report.valid and oracle.status is OracleStatus.WITNESS


class TestCrossCheck:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=3, k=2, s=1), dict(n=4, k=3, s=1), dict(n=4, k=3, s=2),
         dict(multiset=(1, 1, 2, 2, 3), s=2)],
    )
    def test_agreement(self, kwargs):
        assert cross_check(validate_params(**kwargs)) is True

    def test_requires_guaranteed(self):
        with pytest.raises(ValueError):
            cross_check(validate_params(n=4, k=4, s=2))


def test_verifier_imports_nothing_from_the_generator():
    # the verifier re-derives the object universe itself; importing the
    # tour or the graph would let it trust what it is meant to check
    modules = set()
    for node in ast.walk(ast.parse(Path(ocycles.verify.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            if node.module in (None, "ocycles"):  # from . import euler
                modules.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
    assert "core" in modules  # the parse found the imports
    assert [m for m in modules if {"euler", "graph"} & set(m.split("."))] == []


def test_one_function_decides_the_split_rule():
    # whether a body line splits at commas, at whitespace or per character
    # is decided once; a second copy of the rule would let the tokenizer,
    # the piece cuts and the error locator disagree
    tree = ast.parse(Path(ocycles.cli.__file__).read_text())
    deciders = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "isspace"
    }
    assert len(deciders) == 1, deciders


def test_only_core_enumerates():
    # core.completions is the one place that lists what may follow a prefix;
    # any other module reaching for the raw enumerators would grow a second
    # copy of that decision
    enumerators = {"permutations", "_multiset_sequences"}
    package = Path(ocycles.verify.__file__).parent
    checked = []
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ImportFrom, ast.Import)):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):  # itertools.permutations
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        if path.stem == "core":
            assert enumerators <= names  # the parse finds them where they belong
        else:
            assert enumerators.isdisjoint(names), path.name
            checked.append(path.stem)
    assert {"graph", "euler", "connect", "verify", "cli"} <= set(checked)


def test_no_dead_imports():
    # every imported name is used where it is imported, except a name that
    # the benchmark's traced run wraps in that module's namespace; and every
    # module-level private function, class or constant is referenced by some
    # module of the package, so that no helper outlives its last caller
    spans = load_spans()
    wrapped = {(module, attr) for module, attr, _ in spans.CLI_CALLS + spans.WALKER_CALLS}
    package = Path(ocycles.verify.__file__).parent
    unused, private, referenced = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            private.update(
                (f"ocycles.{path.stem}", name)
                for name in defined
                if name.startswith("_") and not name.startswith("__")
            )
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        assert imported, path.name  # the parse found the imports
        unused.update((f"ocycles.{path.stem}", name) for name in imported - used)
    assert unused - wrapped == set()
    assert private, "the parse found the private names"
    assert {(module, name) for module, name in private if name not in referenced} == set()
