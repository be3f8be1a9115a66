import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocycles import (
    LimitError,
    OracleStatus,
    build_graph,
    cross_check,
    decode_symbols,
    euler_tour,
    hamilton_oracle,
    tour_to_cycle,
    validate_params,
    verify_cycle_string,
    verify_object_list,
)
from ocycles.verify import _coverage_report


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
