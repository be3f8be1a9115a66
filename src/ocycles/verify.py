"""Independent verification: cycle validation and a Hamilton-cycle oracle.

The verifier re-derives everything (object universe, counts, coverage) from
the instance parameters alone and never trusts generator metadata; it imports
nothing from the generator's ``graph`` or ``euler`` modules.  The
oracle searches the object-level overlap graph, where objects are vertices
and an edge runs from a to b when a's s-suffix equals b's s-prefix; a
Hamilton cycle there is the same thing as an overlap cycle.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, compress, count, islice, repeat, tee
from math import perm
from operator import eq, not_, setitem
from typing import Callable, Iterable, Iterator

from .core import (
    InstanceParams,
    LimitError,
    Mode,
    SymbolString,
    Vertex,
    Windows,
    Word,
    enumerate_objects,
    object_count,
    symbol_string,
)

ORACLE_OBJECT_CAP = 60
DEFAULT_ORACLE_BUDGET = 5_000_000


@dataclass
class VerificationReport:
    valid: bool
    object_count: int
    duplicates: Sequence[Word]
    missing_count: int
    overlap_violations: Sequence[tuple[int, Vertex, Vertex]]
    invalid_words: Sequence[Word]
    length_ok: bool


class _Defects(Sequence):
    """A read-only sequence of defects, each made from its position only
    when it is read: an ``array("q")`` of positions, 8 bytes a defect, and
    `read`, which makes the defect at a position from the string the
    positions index.

    A slice is a ``list``, and ``==`` compares element by element with any
    sequence, so a report holding views equals one holding lists.  An
    empty view drops `read`, and with it the string.
    """

    __slots__ = ("_at", "_read")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, at: array, read: Callable[[int], object]) -> None:
        self._at = at
        self._read = read if at else None

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._read, self._at[i]))
        return self._read(self._at[i])

    def __iter__(self) -> Iterator:
        return map(self._read, self._at)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


def _flagged(flags: bytes, positions: range) -> array:
    """The positions whose flag byte is nonzero, in order, 8 bytes each."""
    if flags.count(0) == len(flags):  # most strings have no defect
        return array("q")
    return array("q", compress(positions, flags))


def _window(ext: SymbolString, k: int, start: int) -> Word:
    """The k-symbol window of `ext` at `start`, as an int tuple."""
    return tuple(ext[start : start + k])


def _violation(b: SymbolString, k: int, s: int, i: int) -> tuple[int, Vertex, Vertex]:
    """Word i's s-suffix and word i+1's s-prefix in the string `b` of
    k-symbol words, word 0's after the last word's: a slice past the end is
    empty, and then word 0's is taken."""
    j = (i + 1) * k
    return i, tuple(b[j - s : j]), tuple(b[j : j + s] or b[:s])


# a cycle string's windows are counted this many groups of first symbols at
# a time (at most 256: a window's group id is one byte); each group adds one
# scan over the windows' first symbols
_GROUPS = 4

# the byte kernel checks this many windows at a time, so it holds about k
# times this many bytes whatever the string's length, and ranking them a few
# 4-byte lanes per window more: a valid (8,8,3) string reads 14.6 traced
# bytes per object at 8,192 windows and 34.4 at 32,768, in the same time
_CHUNK = 8_192

# where a rank lane's low byte sits in its 4 bytes, in native byte order, so
# that the lanes read as unsigned ints in window order
_LANE_LOW = 0 if sys.byteorder == "little" else 3


def _distinct_by_sorting(valid: Iterable[Word]) -> tuple[int, list[Word]]:
    """The number of distinct words and, sorted, those that repeat, from one
    sorted list of the words: a pointer per word, where a ``Counter`` would
    hold a hash-table entry and a count."""
    ordered = sorted(valid)
    repeats = list(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
    return len(ordered) - len(repeats), list(map(tuple, dict.fromkeys(repeats)))


def _validity(words: Iterable[Word], params: InstanceParams) -> list[bool]:
    """One validity flag per word, from bulk passes: for the windows of
    strings ``_bytewise`` declines (a symbol above 255, or a multiset
    wider than a byte) and for the words ``_coverage_report`` takes.
    `words` may be a generator, so a string's windows need not all be sliced
    at once."""
    if params.mode is Mode.KPERM:
        # k symbols, all distinct and in 1..n; the length test keeps out a
        # longer word whose symbols still cover k distinct letters
        k = params.k
        alphabet = frozenset(range(1, params.n + 1))
        return [len(w) == k and len(alphabet.intersection(w)) == k for w in words]
    target = list(params.multiset)  # sorted by validate_params
    return list(map(target.__eq__, map(sorted, words)))


def _chunks(
    ext: bytes, windows: int, stride: int, k: int
) -> Iterator[tuple[Iterator[bytes], int, int, int]]:
    """The windows of a byte string, ``_CHUNK`` at a time: each chunk's k
    columns, its window count m, and the masks 0x80.. and 0x7f.. of m
    bytes.  Column o holds each window's o-th symbol, one byte per window,
    sliced in C as the columns are read, so that a reader that takes them
    one at a time holds one."""
    for first in range(0, windows, _CHUNK):
        m = min(_CHUNK, windows - first)
        start, span = first * stride, stride * (m - 1) + 1
        stops = range(start + span, start + span + k)
        cols = map(ext.__getitem__, map(slice, range(start, start + k), stops, repeat(stride)))
        yield cols, m, int.from_bytes(b"\x80" * m, "big"), int.from_bytes(b"\x7f" * m, "big")


def _kperm_columns(
    ext: bytes, windows: int, stride: int, k: int, n: int
) -> Iterator[tuple[list[int], int, int]]:
    """The windows of a k-permutation byte string, ``_CHUNK`` at a time:
    each chunk's k columns, its window count m and its flags, one byte per
    window read as one int, 0x80 where the window holds a symbol outside
    1..n or a repeated symbol, else 0.

    Column o holds each window's o-th symbol, one byte per window, from
    ``_chunks``, read as one int.  Two columns agree in a window exactly where
    their XOR x has a zero byte.  ``((x & 0x7f..) + 0x7f..) | x`` sets the
    high bit of every nonzero byte and leaves it clear in every zero byte:
    a low part b & 0x7f is at most 0x7f, so the sum is at most 0xfe and no
    carry crosses into the next byte, which makes the test exact for every
    byte (a borrow-based test such as ``(x - 0x01..) & ~x & 0x80..`` is not:
    its borrow out of a zero byte flags the byte above).
    """
    top = min(n, 255)
    out_of_range = b"\x80" + bytes(top) + b"\x80" * (255 - top)
    for cols, m, high, low in _chunks(ext, windows, stride, k):
        outside = 0
        ints = []
        for col in cols:
            outside |= int.from_bytes(col.translate(out_of_range), "big")
            ints.append(int.from_bytes(col, "big"))
        unequal = high  # high bit kept where every pair of columns differs
        for o, a in enumerate(ints):
            for b in ints[o + 1 :]:
                x = a ^ b
                unequal &= ((x & low) + low) | x
        yield ints, m, outside | (unequal ^ high)


def _kperm_invalid(
    ext: bytes, windows: int, stride: int, k: int, n: int, seen: bytearray | None = None
) -> bytes:
    """One byte per window of a k-permutation byte string: 0x80 where the
    window holds a symbol outside 1..n or a repeated symbol, else 0, from
    the flags of ``_kperm_columns``.

    Given `seen`, every chunk's valid windows are also ranked from the same
    columns by ``_valid_ranks``, and `seen[rank]` is set to 1 for each, so
    that a string with invalid windows is still ranked.
    """
    flags = []
    for cols, m, flag in _kperm_columns(ext, windows, stride, k, n):
        if seen is not None:
            deque(map(setitem, repeat(seen), _valid_ranks(cols, m, n, flag), repeat(1)), 0)
        flags.append(flag.to_bytes(m, "big"))
    return b"".join(flags)


def _valid_ranks(cols: list[int], m: int, n: int, flag: int) -> Iterable[int]:
    """The ranks of the valid windows of one chunk, in window order, given
    its columns and flags as ``_kperm_columns`` yields them.

    ``_kperm_ranks`` reads only valid windows right: a 0, a symbol above
    0x7f or a repeated symbol borrows across its byte lanes and corrupts a
    neighbour's digit.  So each invalid window's columns are first set to
    1..k, a valid window, by masking its byte in every column, and its rank
    is then left out.
    """
    if not flag:
        return _kperm_ranks(cols, m, n)
    invalid = flag >> 7  # 1 in each invalid window's byte
    keep = ~(invalid * 0xFF)
    cols = [c & keep | invalid * symbol for symbol, c in enumerate(cols, 1)]
    valid = flag.to_bytes(m, "big").translate(b"\x01" + bytes(255))
    return compress(_kperm_ranks(cols, m, n), valid)


# a second pass moves each rank's bitmap byte on per visit: marked by the
# first pass (1), visited once (2), visited again (3); and reads the 3s
_VISITED = bytes([0, 2, 3, 3])
_REPEATED = bytes(3) + b"\x01" + bytes(252)


def _repeated_ranks(
    ext: bytes, windows: int, stride: int, k: int, n: int, seen: bytearray, excess: int
) -> Iterator[int]:
    """In ascending order, the ranks that two or more valid windows hold,
    given the bitmap `seen` that ``_kperm_invalid`` marked and the `excess`
    of valid windows over marked bytes: a second pass over the windows,
    which holds one chunk and the bitmap.

    Each visit reads `seen[rank]` and writes it on by ``_VISITED``, one
    window after another: the reads run in the same lazy chain as the
    writes, so a rank twice in one chunk reads its first visit's byte.  The
    pass stops once `excess` ranks are seen again: each repeated rank adds
    at least one to the excess, so then each has been seen twice and no
    other repeats.
    """
    for cols, m, flag in _kperm_columns(ext, windows, stride, k, n):
        ranks, again = tee(_valid_ranks(cols, m, n, flag))
        visits = map(_VISITED.__getitem__, map(seen.__getitem__, again))
        deque(map(setitem, repeat(seen), ranks, visits), 0)
        if seen.count(3) == excess:
            break
    return compress(count(), seen.translate(_REPEATED))


def _kperm_word(rank: int, n: int, k: int) -> Word:
    """The k-permutation of 1..n of lexicographic rank `rank`, as
    ``_kperm_ranks`` ranks it: each Lehmer digit picks one of the symbols
    not yet taken, in ascending order."""
    free = list(range(1, n + 1))
    word = []
    for o in range(k):
        digit, rank = divmod(rank, perm(n - 1 - o, k - 1 - o))
        word.append(free.pop(digit))
    return tuple(word)


def _multiset_invalid(
    ext: bytes, windows: int, stride: int, k: int, multiset: Sequence[int]
) -> bytes:
    """One byte per window of a multiset byte string with k <= 255: 0x80
    where the window is not an arrangement of the multiset, else 0.

    For each distinct symbol x of the multiset, each column (the windows'
    o-th symbols, from ``_chunks``) is translated to 1 where it holds x
    and 0 elsewhere, and read as one int.  The k columns' sum
    counts x in every window at once, one byte per window: a count is at
    most k <= 255, so no byte carries into the next.  A window is an
    arrangement exactly where each symbol's count equals its count in the
    multiset: those counts add up to k, so then no other symbol fits in the
    window.  The XOR of the counts with the multiset's has a zero byte
    exactly where they agree, and ``((x & 0x7f..) + 0x7f..) | x`` marks the
    other bytes in their high bit, as in ``_kperm_invalid``.
    """
    counts = Counter(multiset)
    flags = []
    for cols, m, high, low in _chunks(ext, windows, stride, k):
        cols = list(cols)
        ones = high >> 7
        unequal = 0  # high bit set where some symbol's count is off
        for x, c in counts.items():
            one_hot = bytes(x) + b"\x01" + bytes(255 - x)
            x_count = sum(int.from_bytes(col.translate(one_hot), "big") for col in cols)
            d = x_count ^ (c * ones)
            unequal |= ((d & low) + low) | d
        flags.append((unequal & high).to_bytes(m, "big"))
    return b"".join(flags)


def _bytewise(symbols: SymbolString, params: InstanceParams) -> bool:
    """Whether ``_kperm_invalid`` or ``_multiset_invalid`` can flag this
    string's windows: it is ``bytes``, and a multiset's symbols and counts
    fit in a byte."""
    if params.mode is Mode.MULTISET and max(params.k, params.n) > 255:
        return False
    return isinstance(symbols, bytes)


def _kperm_ranks(cols: list[int], m: int, n: int) -> memoryview:
    """The lexicographic ranks among the k-permutations of 1..n of m valid
    windows, given as k columns read by ``_kperm_columns`` (n <= 127 and
    P(n, k) < 2**32), as unsigned ints in window order.

    Window c_0..c_{k-1} has rank sum d_o * P(n-1-o, k-1-o) over its Lehmer
    digits d_o = c_o - 1 - #{p < o : c_p < c_o}, and 0 <= d_o < n - o, the
    digit's radix.  Every symbol is at most 0x7f, so
    ``((C_o | 0x80..) - C_p) & 0x80..`` takes 0x80 + c_o - c_p >= 1 in each
    byte with no borrow across bytes, and keeps the high bit exactly where
    c_p <= c_o, which in a valid window means c_p < c_o.  The counts are at
    most k - 1 and each d_o >= 0, so the digit column is one byte per
    window too.

    Since P(n-1-o, k-1-o) = (n-1-o) * P(n-2-o, k-2-o), consecutive digits
    d_a..d_b sum to G * P(n-1-b, k-1-b), where G is the digits read
    Horner-style, each step ``G * (n - o) + d_o``.  So digits are grouped
    while the product of their radices stays at most 256: then G is below
    that product in every byte, each step keeps every byte at most 255, and
    no byte carries into the next.  A full permutation's last digit has
    radix 1 and is always 0, so it is left out.  Each group's column is
    widened into 4-byte lanes by one extended-slice assignment, and the
    weighted sum of the widened groups is every window's rank at once: a
    rank is below P(n, k) < 2**32, so no lane carries into the next.
    """
    k = len(cols)
    high = int.from_bytes(b"\x80" * m, "big")
    ones = high >> 7
    lanes = bytearray(4 * m)
    ranks = 0
    group, span = 0, 1  # the group's digits read Horner-style, and its radices' product
    for o, c in enumerate(cols[: min(k, n - 1)]):
        radix = n - o
        if span * radix > 256:  # the group ends at digit o - 1
            lanes[_LANE_LOW::4] = group.to_bytes(m, "big")
            ranks += perm(n - o, k - o) * int.from_bytes(lanes, sys.byteorder)
            group, span = 0, 1
        c_high = c | high
        # each term is a count of one or zero in every byte, shifted up by
        # 7; the counts stay below 0x80, so their sum is shifted back exactly
        smaller = sum((c_high - p) & high for p in cols[:o]) >> 7
        digit = c - ones - smaller
        # a group's first digit is its value as it stands, not copied again
        group = group * radix + digit if span > 1 else digit
        span *= radix
    # the last group's weight is P(n-k, 0) = 1, or P(1, 1) = 1 where the last
    # digit was left out
    lanes[_LANE_LOW::4] = group.to_bytes(m, "big")
    ranks += int.from_bytes(lanes, sys.byteorder)
    return memoryview(ranks.to_bytes(4 * m, sys.byteorder)).cast("I")


def _report(
    checked: int,
    invalid: Sequence[Word],
    found: int,
    duplicates: Sequence[Word],
    violations: Sequence[tuple[int, Vertex, Vertex]],
    length_ok: bool,
    params: InstanceParams,
) -> VerificationReport:
    missing = object_count(params) - found
    valid = (
        length_ok
        and not invalid
        and not duplicates
        and not violations
        and missing == 0
    )
    return VerificationReport(
        valid=valid,
        object_count=checked,
        duplicates=duplicates,
        missing_count=missing,
        overlap_violations=violations,
        invalid_words=invalid,
        length_ok=length_ok,
    )


def _coverage_report(
    words: Sequence[Word],
    violations: Sequence[tuple[int, Vertex, Vertex]],
    length_ok: bool,
    params: InstanceParams,
) -> VerificationReport:
    """The report on `words`, flagged by ``_validity`` and counted by
    ``_distinct_by_sorting`` all at once, given the overlap `violations`.
    ``verify_object_list`` takes it for a list it cannot read as one string
    at stride k: no words, or a word of another length.  The tests take it
    as the reference for the grouped count of ``_windows_report``."""
    flags = _validity(words, params)
    # reports hold int tuples whichever form the words were sliced from
    invalid = list(map(tuple, compress(words, map(not_, flags))))
    found, duplicates = _distinct_by_sorting(compress(words, flags))
    return _report(len(words), invalid, found, duplicates, violations, length_ok, params)


def _first_symbol_groups(firsts: SymbolString, n: int) -> bytes:
    """One group id per window, from its first symbol: symbols 1..n split into
    ``_GROUPS`` ascending ranges, and any other symbol goes to the last group."""
    last = _GROUPS - 1

    def group(x: int) -> int:
        return (x - 1) * _GROUPS // n if 1 <= x <= n else last

    if isinstance(firsts, bytes):
        top = min(n, 255)
        ids = bytes(x * _GROUPS // n for x in range(top))  # symbols 1..top
        return firsts.translate(bytes([last]) + ids + bytes([last]) * (255 - top))
    table = {x: group(x) for x in set(firsts)}
    return bytes(map(table.__getitem__, firsts))


def _windows_report(
    ext: SymbolString,
    windows: int,
    stride: int,
    violations: Sequence[tuple[int, Vertex, Vertex]],
    params: InstanceParams,
) -> VerificationReport:
    """The report on the k-symbol windows of `ext` that start at 0, `stride`,
    ... (`windows` of them, each whole in `ext`), given the overlap
    `violations` the caller found.

    Every window first gets one flag byte, nonzero where it is invalid: a
    ``bytes`` string from ``_kperm_invalid`` or ``_multiset_invalid`` in
    whole-column passes, and a tuple string (a symbol above 255) one window
    at a time from ``_validity``, over a generator of windows.  Invalid
    windows are reported in window order, as a ``_Defects`` view of their
    starts.

    A k-permutation byte string of exactly P(n, k) windows, with n <= 127
    and P(n, k) < 2**32, is counted by rank, defects and all: its valid
    windows' ranks mark a P(n, k)-byte bitmap as they are flagged, and the
    marked bytes are the distinct windows found.  A valid window repeats
    exactly where there are more valid windows than marked bytes, and only
    then does ``_repeated_ranks`` find which ranks repeat, in ascending
    order, which for k-permutations is lexicographic order, and they are
    reported as a ``_Defects`` view of those ranks.  The window-count gate
    bounds the bitmap by the string's own length.

    Any other string (multisets, tuple strings, n > 127 and other window
    counts) is counted one group of first symbols at a time, and only one
    group's windows are held at once.  Two equal windows have the
    same first symbol, so they fall in the same group: the groups' distinct
    counts add up to the string's, and each repeat is found in its own
    group.  The groups cover ascending symbol ranges, and a repeat is a
    valid window, so the groups' sorted repeats join into one sorted list;
    a group's invalid windows are left out of its count.  Within a group,
    distinct windows are counted by sorting them, which holds a pointer per
    window where a ``Counter`` holds a hash-table entry and a count.
    """
    k, n = params.k, params.n
    starts = range(0, windows * stride, stride)
    total = object_count(params)
    seen = None
    if not _bytewise(ext, params):
        bad = bytes(map(not_, _validity((ext[i : i + k] for i in starts), params)))
    elif params.mode is Mode.MULTISET:
        bad = _multiset_invalid(ext, windows, stride, k, params.multiset)
    else:
        ranked = windows == total and n <= 127 and total < 1 << 32
        seen = bytearray(total) if ranked else None
        bad = _kperm_invalid(ext, windows, stride, k, n, seen)
    invalid = _Defects(_flagged(bad, starts), partial(_window, ext, k))
    if seen is not None:
        found = total - seen.count(0)
        excess = windows - len(invalid) - found
        # a second pass only where some valid window repeats
        repeated = _repeated_ranks(ext, windows, stride, k, n, seen, excess) if excess else ()
        duplicates = _Defects(array("q", repeated), partial(_kperm_word, n=n, k=k))
        return _report(windows, invalid, found, duplicates, violations, True, params)
    duplicates: list[Word] = []
    groups = _first_symbol_groups(ext[: windows * stride : stride], n)
    found = 0
    for group in range(_GROUPS):
        # one byte per window, 1 where the window is in this group
        members = groups.translate(bytes(group) + b"\x01" + bytes(255 - group))
        words = [ext[i : i + k] for i in compress(starts, members)]
        valid = compress(words, map(not_, compress(bad, members))) if invalid else words
        distinct, repeats = _distinct_by_sorting(valid)
        found += distinct
        duplicates += repeats
        del words, valid  # before the next group's windows are sliced
    return _report(windows, invalid, found, duplicates, violations, True, params)


def verify_cycle_string(
    symbols: Sequence[int], params: InstanceParams
) -> VerificationReport:
    """Check a cyclic symbol string: read windows at stride k-s, test coverage.

    Windows are sliced from the string extended cyclically by its first s
    symbols, so the last windows wrap around onto the start.  Consecutive
    windows overlap by construction, so the defects a string can exhibit are
    bad length, out-of-family words, duplicates, and missing objects.
    The string is held as ``bytes`` when every symbol lies in 0..255, so each
    window is a k-byte slice; the report lists words as int tuples either way.
    The windows are flagged and counted by ``_windows_report``.  Malformed
    input yields an invalid report, not an error.
    """
    symbols = symbol_string(symbols)
    k, s = params.k, params.s
    stride = k - s
    length = len(symbols)
    if length == 0 or length % stride != 0:
        return _report(0, [], 0, [], [], False, params)
    # the wrap is the first s symbols cyclically; repeating them covers
    # strings shorter than s without copying a long string s times
    ext = symbols + (symbols[:s] * s)[:s]
    return _windows_report(ext, length // stride, stride, [], params)


def verify_object_list(
    words: Sequence[Sequence[int]], params: InstanceParams
) -> VerificationReport:
    """Check the list form: adjacent (and wrap-around) overlaps plus coverage.

    Every list whose words all have length k is checked as one string of k
    symbols per word: a ``Windows`` view at stride k = params.k (what
    ``parse_text`` gives for a list body of names 1..10) by its own string,
    any other sequence copied to word tuples once and joined into ``bytes``,
    or into a tuple when a symbol lies outside 0..255.  A list with no
    words, or with a word of another length, goes to ``_coverage_report``
    with no overlap check.

    Word i's last s symbols must equal word i+1's first s, and the last
    word's the first word's.  In a byte string, for each o < s, column
    k-s+o (every word's symbol k-s+o, one byte per word) XOR column o moved
    on by one word has a zero byte exactly where they agree, and the
    zero-byte test of ``_kperm_invalid`` marks the others; a tuple string
    compares the two slices word by word.  The violations are a
    ``_Defects`` view of the flagged words' positions, and each violation's
    two slices become tuples only when it is read.  The words are flagged
    and counted by ``_windows_report`` at stride k, as a cycle string's
    windows are at stride k - s.
    """
    k, s = params.k, params.s
    if isinstance(words, Windows) and words.stride == words.k == k:
        b = words.symbols[: len(words) * k]  # no symbols past the last word
    else:
        words = [tuple(w) for w in words]
        if any(map(k.__ne__, map(len, words))):
            return _coverage_report(words, [], False, params)
        try:
            b = bytes(chain.from_iterable(words))
        except (ValueError, TypeError):  # a symbol outside 0..255
            b = tuple(chain.from_iterable(words))
        del words  # the string holds every symbol
    length = len(b)
    m = length // k
    if not m:
        return _coverage_report([], [], False, params)
    if isinstance(b, bytes):
        high = int.from_bytes(b"\x80" * m, "big")
        low = int.from_bytes(b"\x7f" * m, "big")
        differ = 0  # high bit set where word i's suffix is not word i+1's prefix
        for o in range(s):
            suffix = int.from_bytes(b[k - s + o :: k], "big")
            x = suffix ^ int.from_bytes(b[k + o :: k] + b[o : o + 1], "big")
            differ |= ((x & low) + low) | x
        flags = (differ & high).to_bytes(m, "big")
    else:
        # word i ends at j, where word i+1 starts, as ``_violation`` reads them
        ends = range(k, length + k, k)
        flags = bytes(b[j - s : j] != (b[j : j + s] or b[:s]) for j in ends)
    violations = _Defects(_flagged(flags, range(m)), partial(_violation, b, k, s))
    return _windows_report(b, m, k, violations, params)


class OracleStatus(Enum):
    WITNESS = "witness"
    NO_CYCLE = "no-cycle"
    EXHAUSTED = "exhausted"


@dataclass
class OracleResult:
    status: OracleStatus
    cycle: tuple[Word, ...] | None
    nodes: int


class _BudgetSpent(Exception):
    pass


def hamilton_oracle(
    params: InstanceParams, budget: int = DEFAULT_ORACLE_BUDGET
) -> OracleResult:
    """Exhaustive Hamilton-cycle search over the object-level overlap graph.

    Limited to instances with at most 60 objects.  Depth-first from the
    lexicographically smallest object, expanding neighbors in lexicographic
    order.  A partial path is pruned when more than one unvisited object
    has no unvisited predecessor, or when one such object cannot be entered
    from the path's end.  There is no exit-side twin of this rule: the
    object graph is the line graph of a balanced transition graph, and on
    every instance swept by the tests such a rule never cut a branch.
    One path serves every object count: the start may close onto itself,
    so a single object that overlaps itself is its own cycle.  Returns a
    witness cycle, NO_CYCLE after exhaustive search, or EXHAUSTED once
    `budget` search nodes have been expanded.  Object sets are int
    bitmasks, so each search node costs O(degree).
    """
    m = object_count(params)
    if m > ORACLE_OBJECT_CAP:
        raise LimitError(m, ORACLE_OBJECT_CAP)
    objs = list(enumerate_objects(params))
    s = params.s
    by_prefix: dict[Vertex, list[int]] = {}
    for i, w in enumerate(objs):
        by_prefix.setdefault(w[:s], []).append(i)
    succ = [[j for j in by_prefix.get(w[-s:], []) if j != i] for i, w in enumerate(objs)]
    succ_mask = [sum(1 << j for j in js) for js in succ]
    pred_mask = [0] * m
    for i, js in enumerate(succ):
        for j in js:
            pred_mask[j] |= 1 << i

    start = 0
    # `succ` has no self-loops; the start's own bit matters only with one object
    closing = pred_mask[start] | (objs[start][-s:] == objs[start][:s])
    path = [start]
    nodes = 0

    def dfs(v: int, unvisited: int, no_entry: int) -> bool:
        # `no_entry` arrives as v's parent left it (the root's parent has
        # visited nothing): the unvisited objects that no unvisited object
        # can enter; visiting v can add to it.  True once `path` closes,
        # and then `path` is left as the witness
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetSpent
        unvisited ^= 1 << v
        if not unvisited:
            return bool(closing >> v & 1)
        for u in succ[v]:
            if not pred_mask[u] & unvisited:
                no_entry |= 1 << u
        no_entry &= unvisited
        # at most one object can rely on being entered from v right now
        if no_entry & (no_entry - 1) or no_entry & ~succ_mask[v]:
            return False
        for u in succ[v]:
            if unvisited >> u & 1:
                path.append(u)
                if dfs(u, unvisited, no_entry):
                    return True
                path.pop()
        return False

    unvisited = (1 << m) - 1
    no_entry = sum(1 << u for u in range(m) if not pred_mask[u])
    try:
        if dfs(start, unvisited, no_entry):
            return OracleResult(OracleStatus.WITNESS, tuple(objs[i] for i in path), nodes)
    except _BudgetSpent:
        return OracleResult(OracleStatus.EXHAUSTED, None, nodes)
    return OracleResult(OracleStatus.NO_CYCLE, None, nodes)
