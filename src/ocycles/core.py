"""Instance types, feasibility classification, enumeration, and ranking.

An overlap cycle with overlap s ("s-ocycle") is a cyclic arrangement of a
family of length-k words in which every word's length-s suffix equals the
next word's length-s prefix.  Two families are supported: the k-permutations
of {1..n} (``kperm`` mode) and the distinct permutations of a fixed multiset
(``multiset`` mode, where k is the multiset size).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Iterator

Word = tuple[int, ...]
Vertex = tuple[int, ...]
# a cycle string: one byte per symbol when every symbol fits, else int tuple
SymbolString = bytes | tuple[int, ...]

DEFAULT_EDGE_LIMIT = 10_000_000


def symbol_string(symbols: Sequence[int]) -> SymbolString:
    """The symbols as ``bytes`` when every one lies in 0..255, else as a tuple.

    Either form indexes and iterates as ints and slices to its own type, and
    equal-length slices of one form sort in the same order, so the string's
    readers need not know which form they hold.  A ``bytes`` argument is
    returned as it is, not copied.  A one-shot iterator is read into a tuple
    first: ``bytes()`` would consume it up to the first symbol above 255,
    and the tuple form would then miss those symbols.
    """
    if isinstance(symbols, bytes):
        return symbols
    if iter(symbols) is symbols:
        symbols = tuple(symbols)
    try:
        # bytes() of an iterator reads its items; bytes() of a buffer such
        # as an array('H') would copy the buffer's raw memory instead
        return bytes(iter(symbols))
    except (ValueError, TypeError):
        return tuple(symbols)


class Windows(Sequence):
    """The length-k windows of a cyclic symbol string, one every `stride`
    symbols, read on demand: an index gives a word tuple, a slice a tuple of
    words.

    A tour's edges are its cycle string's windows at stride k - s, the last
    ones wrapping onto the start.  A list document's words are one string of
    k symbols per word, read at stride k, so no window wraps.  `symbols`,
    `k` and `stride` are public: a reader that knows the string's form may
    check it in whole-string passes instead of word by word.
    """

    def __init__(self, symbols: SymbolString, k: int, stride: int):
        self.symbols = symbols
        self.k = k
        self.stride = stride

    def __len__(self) -> int:
        return len(self.symbols) // self.stride

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        count = len(self)
        if not -count <= i < count:
            raise IndexError("window index out of range")
        symbols, k = self.symbols, self.k
        start = (i % count) * self.stride
        length = len(symbols)
        if start + k <= length:
            return tuple(symbols[start : start + k])
        return tuple(symbols[j % length] for j in range(start, start + k))


class Mode(Enum):
    KPERM = "kperm"
    MULTISET = "multiset"


class ParamError(ValueError):
    """An instance description violates a structural constraint."""


def count_text(count: int) -> str:
    """`count` in decimal, or ``about 10^d`` with d = floor(log10(count))
    when it has more digits than ``str`` converts (2000! has 5,736)."""
    try:
        return str(count)
    except ValueError:
        return f"about 10^{math.floor(math.log10(count))}"


class LimitError(RuntimeError):
    """The instance's object count exceeds the configured edge limit."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"instance has {count_text(count)} objects, above the limit of {limit}")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class InstanceParams:
    """A validated problem instance; construct via :func:`validate_params`."""

    mode: Mode
    n: int
    k: int
    s: int
    multiset: Word | None = None

    def describe(self) -> str:
        if self.mode is Mode.MULTISET:
            syms = ",".join(str(x) for x in self.multiset)
            return f"multiset [{syms}] s={self.s}"
        return f"kperm n={self.n} k={self.k} s={self.s}"


def validate_params(
    *,
    n: int | None = None,
    k: int | None = None,
    s: int | None = None,
    multiset: Sequence[int] | None = None,
) -> InstanceParams:
    """Check and normalize an instance description.

    Two shapes are accepted: ``(n, k, s)`` describes k-permutations of {1..n};
    ``(multiset, s)`` describes the permutations of a fixed multiset, with k
    equal to its size and n its largest symbol.  The multiset is normalized to
    ascending order.
    """
    if s is None:
        raise ParamError("overlap s is required")
    if multiset is not None:
        syms = tuple(sorted(multiset))
        if not syms:
            raise ParamError("multiset must be non-empty")
        if any(not isinstance(x, int) or x < 1 for x in syms):
            raise ParamError("multiset symbols must be integers >= 1")
        if k is not None and k != len(syms):
            raise ParamError(f"k={k} does not match the multiset size {len(syms)}")
        k = len(syms)
        if not 1 <= s < k:
            raise ParamError(f"need 1 <= s < k, got s={s}, k={k}")
        return InstanceParams(Mode.MULTISET, max(syms), k, s, syms)
    if n is None or k is None:
        raise ParamError("n and k are required when no multiset is given")
    if n < 1 or k < 1:
        raise ParamError("n and k must be positive")
    if k > sys.maxsize:  # math.perm takes no larger k
        raise ParamError(f"k must be at most {sys.maxsize}")
    if k > n:
        raise ParamError(f"need k <= n, got k={k}, n={n}")
    if not 1 <= s < k:
        raise ParamError(f"need 1 <= s < k, got s={s}, k={k}")
    return InstanceParams(Mode.KPERM, n, k, s, None)


class Feasibility(Enum):
    GUARANTEED = "guaranteed"
    UNKNOWN = "unknown"
    INFEASIBLE = "infeasible"


class Reason(Enum):
    """The condition that grants or blocks a verdict."""

    PROPER_KPERM = "proper-kperm"            # k < n: every overlap 1 <= s < k works
    SMALL_OVERLAP = "small-overlap"          # s below half the word length
    COPRIME_OVERLAP = "coprime-overlap"      # gcd(s, k) = 1 and s <= k - 2
    UCYCLE_IMPOSSIBLE = "ucycle-impossible"  # full permutations, s = k-1, k >= 3
    OPEN_CASE = "open-case"                  # outside every known guarantee


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: Feasibility
    reason: Reason

    def describe(self) -> str:
        return f"{self.status.value} ({self.reason.value})"


def feasibility(params: InstanceParams) -> FeasibilityVerdict:
    """Classify an instance against the known existence guarantees.

    Proper k-permutations (k < n) always admit an s-ocycle.  Full
    permutations and multiset permutations are guaranteed when the overlap is
    small (2s < k) or coprime with the word length (gcd(s, k) = 1, s <= k-2).
    Full permutations at maximal overlap s = k-1 have no cycle under the
    standard representation once k >= 3 (for k = 2 the cycle ``1 2``
    exists).  Everything else is an open case: generation is still attempted
    optimistically, but may come back incomplete.
    """
    k, s = params.k, params.s
    if params.mode is Mode.KPERM and k < params.n:
        return FeasibilityVerdict(Feasibility.GUARANTEED, Reason.PROPER_KPERM)
    if 2 * s < k:
        return FeasibilityVerdict(Feasibility.GUARANTEED, Reason.SMALL_OVERLAP)
    if math.gcd(s, k) == 1 and s <= k - 2:
        return FeasibilityVerdict(Feasibility.GUARANTEED, Reason.COPRIME_OVERLAP)
    if params.mode is Mode.KPERM and s == k - 1 and k >= 3:
        return FeasibilityVerdict(Feasibility.INFEASIBLE, Reason.UCYCLE_IMPOSSIBLE)
    return FeasibilityVerdict(Feasibility.UNKNOWN, Reason.OPEN_CASE)


def _arrangements(counts: Counter) -> int:
    """Number of distinct orderings of a multiset given as a Counter."""
    total = sum(counts.values())
    out = math.factorial(total)
    for c in counts.values():
        out //= math.factorial(c)
    return out


def object_count(params: InstanceParams) -> int:
    if params.mode is Mode.KPERM:
        return math.perm(params.n, params.k)
    return _arrangements(Counter(params.multiset))


def _multiset_sequences(counts: Counter, length: int) -> Iterator[tuple[int, ...]]:
    """All length-`length` sequences drawable from `counts` (symbols with a
    count below 1 are left out), lexicographic.

    One loop, no recursion: `left` holds what remains of each symbol in
    sorted order, `chosen` the symbol index picked at each position but the
    last, and `i` the next index to try at the current position.  The last
    position is never pushed, so a sequence costs one append, one tuple and
    one pop.  It stays lazy: the tour keeps one of these open per vertex.
    """
    if length == 0:
        yield ()
        return
    symbols = sorted(x for x, c in counts.items() if c > 0)
    left = [counts[x] for x in symbols]
    m, last = len(symbols), length - 1
    prefix: list[int] = []
    chosen: list[int] = []
    i = 0
    while True:
        while i < m and not left[i]:
            i += 1
        if i == m:
            if not chosen:
                return
            # nothing is left to try here: undo the previous position's pick
            i = chosen.pop()
            left[i] += 1
            prefix.pop()
            i += 1
        elif len(chosen) < last:
            left[i] -= 1
            chosen.append(i)
            prefix.append(symbols[i])
            i = 0
        else:
            prefix.append(symbols[i])
            yield tuple(prefix)
            prefix.pop()
            i += 1


def completions(
    prefix: Sequence[int], length: int, params: InstanceParams
) -> Iterator[tuple[int, ...]]:
    """The `length`-symbol sequences that can follow `prefix` inside an
    object (len(prefix) + length <= k), lexicographically: arrangements of
    the letters of {1..n} it lacks, or of what remains of the multiset.
    Objects, vertices, and the tails and heads of a vertex's edges (length
    k-s) are all enumerated here.
    """
    if params.mode is Mode.KPERM:
        used = set(prefix)
        return permutations([x for x in range(1, params.n + 1) if x not in used], length)
    counts = Counter(params.multiset)
    counts.subtract(prefix)
    return _multiset_sequences(counts, length)


def enumerate_objects(params: InstanceParams) -> Iterator[Word]:
    """Every object of the instance exactly once, lexicographically."""
    return completions((), params.k, params)


def is_valid_word(word: Sequence[int], params: InstanceParams) -> bool:
    word = tuple(word)
    if len(word) != params.k:
        return False
    if params.mode is Mode.KPERM:
        return len(set(word)) == params.k and 1 <= min(word) and max(word) <= params.n
    return tuple(sorted(word)) == params.multiset  # sorted by validate_params


def is_valid_vertex(v: Sequence[int], params: InstanceParams) -> bool:
    v = tuple(v)
    if len(v) != params.s:
        return False
    if params.mode is Mode.KPERM:
        return len(set(v)) == params.s and 1 <= min(v) and max(v) <= params.n
    need = Counter(v)
    have = Counter(params.multiset)
    return all(have[x] >= c for x, c in need.items())


def vertices(params: InstanceParams) -> Iterator[Vertex]:
    """Every vertex (distinct length-s prefix of an object), lexicographic."""
    return completions((), params.s, params)


def min_vertex(params: InstanceParams) -> Vertex:
    """The distinguished smallest vertex: 1..s, or the sorted multiset's
    first s symbols; the first of ``vertices``, found without listing 1..n."""
    if params.mode is Mode.KPERM:
        return tuple(range(1, params.s + 1))
    return params.multiset[: params.s]


def vertex_count(params: InstanceParams) -> int:
    if params.mode is Mode.KPERM:
        return math.perm(params.n, params.s)
    return sum(1 for _ in vertices(params))


def kperm_rank(seq: Sequence[int], pool: Sequence[int]) -> int:
    """Rank of `seq` among arrangements of len(seq) items drawn from `pool`."""
    pool = sorted(pool)
    rank = 0
    for i, x in enumerate(seq):
        j = pool.index(x)
        rank += j * math.perm(len(pool) - 1, len(seq) - i - 1)
        pool.pop(j)
    return rank


def arrangement_rank(seq: Sequence[int], counts: Counter) -> int:
    """Rank of `seq` among the distinct orderings of the full multiset `counts`."""
    c = Counter(counts)
    rank = 0
    for x in seq:
        if c[x] <= 0:
            raise ValueError(f"symbol {x} is not available in the multiset")
        for y in sorted(c):
            if y >= x:
                break
            if c[y] > 0:
                c[y] -= 1
                rank += _arrangements(c)
                c[y] += 1
        c[x] -= 1
    return rank
