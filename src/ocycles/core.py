"""Instance types, feasibility classification, enumeration, and ranking.

An overlap cycle with overlap s ("s-ocycle") is a cyclic arrangement of a
family of length-k words in which every word's length-s suffix equals the
next word's length-s prefix.  Two families are supported: the k-permutations
of {1..n} (``kperm`` mode) and the distinct permutations of a fixed multiset
(``multiset`` mode, where k is the multiset size).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Iterator, Sequence

Word = tuple[int, ...]
Vertex = tuple[int, ...]

DEFAULT_EDGE_LIMIT = 10_000_000


class Mode(Enum):
    KPERM = "kperm"
    MULTISET = "multiset"


class ParamError(ValueError):
    """An instance description violates a structural constraint."""


class LimitError(RuntimeError):
    """The instance's object count exceeds the configured edge limit."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"instance has {count} objects, above the limit of {limit}")
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


def perm_count(n: int, k: int) -> int:
    """Number of k-permutations of an n-set (falling factorial)."""
    if k < 0 or k > n:
        return 0
    return math.perm(n, k)


def _arrangements(counts: Counter) -> int:
    """Number of distinct orderings of a multiset given as a Counter."""
    total = sum(counts.values())
    out = math.factorial(total)
    for c in counts.values():
        out //= math.factorial(c)
    return out


def object_count(params: InstanceParams) -> int:
    if params.mode is Mode.KPERM:
        return perm_count(params.n, params.k)
    return _arrangements(Counter(params.multiset))


def _multiset_sequences(counts: Counter, length: int) -> Iterator[tuple[int, ...]]:
    """All length-`length` sequences drawable from `counts`, lexicographic."""
    symbols = sorted(counts)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
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
    return _multiset_sequences(+counts, length)


def enumerate_objects(params: InstanceParams) -> Iterator[Word]:
    """Every object of the instance exactly once, lexicographically."""
    return completions((), params.k, params)


def is_valid_word(word: Sequence[int], params: InstanceParams) -> bool:
    word = tuple(word)
    if len(word) != params.k:
        return False
    if params.mode is Mode.KPERM:
        return len(set(word)) == params.k and 1 <= min(word) and max(word) <= params.n
    return Counter(word) == Counter(params.multiset)


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
    """The distinguished smallest vertex: 1..s, or the sorted multiset prefix."""
    return next(vertices(params))


def vertex_count(params: InstanceParams) -> int:
    if params.mode is Mode.KPERM:
        return perm_count(params.n, params.s)
    return sum(1 for _ in vertices(params))


def kperm_rank(seq: Sequence[int], pool: Sequence[int]) -> int:
    """Rank of `seq` among arrangements of len(seq) items drawn from `pool`."""
    pool = sorted(pool)
    rank = 0
    for i, x in enumerate(seq):
        j = pool.index(x)
        rank += j * perm_count(len(pool) - 1, len(seq) - i - 1)
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
