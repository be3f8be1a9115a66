import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocycles.verify
from ocycles.core import (
    Feasibility,
    LimitError,
    feasibility,
    is_valid_word,
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
from conftest import decode_cycle, decode_symbols


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
        ],
    )
    def test_short_strings_match_decoded_windows(self, kwargs, symbols):
        p = validate_params(**kwargs)
        assert verify_cycle_string(symbols, p) == decoded_report(symbols, p)

    def test_single_object_cycle_shorter_than_overlap(self):
        p = validate_params(multiset=(1, 1, 1), s=2)
        symbols = tour_to_cycle(euler_tour(build_graph(p))).symbols
        assert symbols == (1,)
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
                tampered = symbols[:pos] + (new,) + symbols[pos + 1 :]
                assert verify_cycle_string(tampered, p) == decoded_report(tampered, p)


def reference_coverage(words, violations, length_ok, p):
    """The per-word reference: one `is_valid_word` call and Counter update per word."""
    seen = Counter()
    invalid = []
    for w in words:
        if is_valid_word(w, p):
            seen[w] += 1
        else:
            invalid.append(w)
    duplicates = sorted(w for w, c in seen.items() if c > 1)
    missing = object_count(p) - len(seen)
    valid = length_ok and not invalid and not duplicates and not violations and missing == 0
    return VerificationReport(
        valid, len(words), duplicates, missing, violations, invalid, length_ok
    )


def reference_cycle_string(symbols, p):
    symbols = tuple(symbols)
    stride = p.k - p.s
    if not symbols or len(symbols) % stride != 0:
        return VerificationReport(False, 0, [], object_count(p), [], [], False)
    ext = symbols + (symbols[: p.s] * p.s)[: p.s]
    windows = [ext[i : i + p.k] for i in range(0, len(symbols), stride)]
    return reference_coverage(windows, [], True, p)


def reference_object_list(words, p):
    words = [tuple(w) for w in words]
    s = p.s
    length_ok = bool(words) and all(len(w) == p.k for w in words)
    violations = []
    if length_ok:
        for i, a in enumerate(words):
            b = words[(i + 1) % len(words)]
            if a[-s:] != b[:s]:
                violations.append((i, a[-s:], b[:s]))
    return reference_coverage(words, violations, length_ok, p)


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
