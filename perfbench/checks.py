"""Output checks made from the combinatorial construction alone.

Nothing here imports ``ocycles``: the benchmark judges the program's output
against the definition of the families (k-permutations of {1..n}, distinct
orderings of a multiset) and of an overlap cycle, not against the program's
own verifier.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Instance:
    """One problem instance: kperm (n, k, s) or a multiset with overlap s."""

    n: int
    k: int
    s: int
    multiset: tuple[int, ...] | None = None

    @classmethod
    def kperm(cls, n: int, k: int, s: int) -> "Instance":
        return cls(n, k, s, None)

    @classmethod
    def of_multiset(cls, symbols: Sequence[int], s: int) -> "Instance":
        ms = tuple(sorted(symbols))
        return cls(max(ms), len(ms), s, ms)

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        ms = obj.get("multiset")
        return cls(obj["n"], obj["k"], obj["s"], tuple(ms) if ms is not None else None)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "s": self.s, "multiset": self.multiset}

    @property
    def label(self) -> str:
        if self.multiset is not None:
            return f"multiset {','.join(map(str, self.multiset))} s={self.s}"
        return f"kperm n={self.n} k={self.k} s={self.s}"

    def argv(self) -> list[str]:
        """The instance as ``ocycles`` command-line flags."""
        if self.multiset is not None:
            return ["--multiset", ",".join(map(str, self.multiset)), "--s", str(self.s)]
        return ["--n", str(self.n), "--k", str(self.k), "--s", str(self.s)]

    def object_count(self) -> int:
        if self.multiset is None:
            return math.perm(self.n, self.k)
        out = math.factorial(self.k)
        for c in Counter(self.multiset).values():
            out //= math.factorial(c)
        return out

    def is_object(self, word: Sequence[int]) -> bool:
        if len(word) != self.k:
            return False
        if self.multiset is None:
            return len(set(word)) == self.k and min(word) >= 1 and max(word) <= self.n
        return tuple(sorted(word)) == self.multiset

    def min_vertex(self) -> tuple[int, ...]:
        if self.multiset is None:
            return tuple(range(1, self.s + 1))
        return self.multiset[: self.s]

    def vertices(self) -> list[tuple[int, ...]]:
        """Every length-s prefix of an object, in lexicographic order."""
        if self.multiset is None:
            return list(permutations(range(1, self.n + 1), self.s))
        return list(_arrangements(Counter(self.multiset), self.s))

    def objects(self) -> Iterator[tuple[int, ...]]:
        """Every object, in lexicographic order."""
        if self.multiset is None:
            return permutations(range(1, self.n + 1), self.k)
        return _arrangements(Counter(self.multiset), self.k)


def _arrangements(counts: Counter, length: int) -> Iterator[tuple[int, ...]]:
    symbols = sorted(counts)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for x in symbols:
            if counts[x]:
                counts[x] -= 1
                prefix.append(x)
                yield from rec()
                prefix.pop()
                counts[x] += 1

    return rec()


def has_cycle(inst: Instance) -> bool:
    """Whether an overlap cycle exists: the transition graph (s-prefixes as
    vertices, one edge per object from its prefix to its suffix) has an Euler
    circuit, that is, it is balanced and weakly connected."""
    s = inst.s
    parent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def find(v: tuple[int, ...]) -> tuple[int, ...]:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    degree: Counter = Counter()
    for w in inst.objects():
        a, b = w[:s], w[-s:]
        degree[a] += 1
        degree[b] -= 1
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    if any(degree.values()):
        return False
    return len({find(v) for v in parent}) == 1


@dataclass(frozen=True)
class Document:
    headers: dict[str, str]
    body: list[str]


def read_document(text: str) -> Document:
    """Split a document into '#' headers and non-empty body lines."""
    headers: dict[str, str] = {}
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 1)
            if len(parts) == 2:
                headers.setdefault(parts[0], parts[1].strip())
        else:
            body.append(line)
    return Document(headers, body)


def line_symbols(line: str) -> list[int]:
    """Symbols of one body line: comma-separated, space-separated or packed digits."""
    if "," in line:
        return [int(t) for t in line.split(",") if t.strip()]
    if " " in line or "\t" in line:
        return [int(t) for t in line.split()]
    return [int(c) for c in line]


def expected_headers(inst: Instance, fmt: str) -> dict[str, str]:
    """The header fields a generated document for `inst` must carry."""
    out = {
        "format": fmt,
        "mode": "kperm" if inst.multiset is None else "multiset",
        "n": str(inst.n),
        "k": str(inst.k),
        "s": str(inst.s),
        "objects": str(inst.object_count()),
        "length": str((inst.k - inst.s) * inst.object_count()),
    }
    if inst.multiset is not None:
        out["multiset"] = ",".join(map(str, inst.multiset))
    return out


def string_windows(symbols: Sequence[int], inst: Instance) -> list[tuple[int, ...]]:
    """Length-k windows of a cyclic symbol string at stride k-s."""
    k, stride = inst.k, inst.k - inst.s
    ext = list(symbols) + list(symbols[:k])
    return [tuple(ext[i : i + k]) for i in range(0, len(symbols), stride)]


def defects(words: Sequence[tuple[int, ...]], inst: Instance, cyclic_overlaps: bool) -> dict:
    """Defect counts as ``ocycles verify`` reports them, derived independently.

    `cyclic_overlaps` counts adjacent pairs (with wrap-around) whose overlap
    disagrees; windows read from a string agree by construction.
    """
    s = inst.s
    seen: Counter = Counter()
    invalid = 0
    for w in words:
        if inst.is_object(w):
            seen[w] += 1
        else:
            invalid += 1
    violations = 0
    if cyclic_overlaps and words:
        violations = sum(
            1 for i, a in enumerate(words) if a[-s:] != words[(i + 1) % len(words)][:s]
        )
    duplicates = sum(1 for c in seen.values() if c > 1)
    missing = inst.object_count() - len(seen)
    return {
        "valid": not (invalid or duplicates or missing or violations),
        "objects": len(words),
        "invalid-words": invalid,
        "duplicates": duplicates,
        "missing": missing,
        "overlap-violations": violations,
    }


def document_defects(text: str, inst: Instance) -> dict:
    """Independent verdict on a string- or list-format document for `inst`."""
    doc = read_document(text)
    fmt = doc.headers.get("format") or ("string" if len(doc.body) == 1 else "list")
    if fmt == "string":
        symbols = [x for line in doc.body for x in line_symbols(line)]
        stride = inst.k - inst.s
        if not symbols or len(symbols) % stride:
            raise ValueError(f"string body of {len(symbols)} symbols is not a cycle")
        return defects(string_windows(symbols, inst), inst, cyclic_overlaps=False)
    words = [tuple(line_symbols(line)) for line in doc.body]
    return defects(words, inst, cyclic_overlaps=True)


def generated_document_problem(text: str, inst: Instance, fmt: str) -> str | None:
    """Why a document from ``ocycles gen`` is not a valid overlap cycle, or None."""
    doc = read_document(text)
    want = expected_headers(inst, fmt)
    for key, value in want.items():
        if doc.headers.get(key) != value:
            return f"header {key} is {doc.headers.get(key)!r}, expected {value!r}"
    found = document_defects(text, inst)
    if not found["valid"] or found["objects"] != inst.object_count():
        return f"document is not an overlap cycle: {found}"
    return None


def certificate_problem(
    origin: tuple[int, ...],
    steps: Sequence[tuple[bool, tuple[int, ...]]],
    inst: Instance,
) -> str | None:
    """Replay a walk of (forward?, word) steps from `origin` to the minimum vertex."""
    s = inst.s
    cur = origin
    for i, (forward, word) in enumerate(steps):
        if not inst.is_object(word):
            return f"step {i}: {word} is not an object"
        if forward:
            if word[:s] != cur:
                return f"step {i}: forward word does not leave {cur}"
            cur = word[-s:]
        else:
            if word[-s:] != cur:
                return f"step {i}: backward word does not leave {cur}"
            cur = word[:s]
    if cur != inst.min_vertex():
        return f"walk ends at {cur}, not the minimum vertex"
    if len(steps) > 8 * inst.k * inst.s:
        return f"{len(steps)} steps exceed the 8*k*s cap"
    return None


def witness_problem(words: Sequence[tuple[int, ...]], inst: Instance) -> str | None:
    """Why a claimed Hamilton cycle over the objects is not an overlap cycle."""
    found = defects(words, inst, cyclic_overlaps=True)
    if not found["valid"] or found["objects"] != inst.object_count():
        return f"oracle witness is not an overlap cycle: {found}"
    return None
