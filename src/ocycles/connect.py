"""Connectivity walkers: checkable paths from any vertex to the minimum vertex.

Each walker emits a certificate, a sequence of forward/backward edge
traversals (edge direction is ignored, as in weak connectivity) that can be
replayed independently.  A successful replay from every vertex witnesses that
the transition graph is weakly connected, which together with balance makes
it Eulerian.

Three mechanisms cover the parameter space:

* ``walk_multiset`` - for permutations of a multiset with 2s < k.  Each
  forward/backward pair either transposes the needed symbol into place within
  the window or swaps it in from the unseen remainder, fixing one more
  position of the minimum vertex per round.
* ``walk_general`` - for every k-permutation instance with k < n, at any
  overlap.  Following a forward edge shifts the length-s window by k-s
  (mod k) along one underlying word, so the reachable window offsets are the
  multiples of g = gcd(s, k), and a letter can be edited once its position
  is rotated into the first block of g positions.  A letter absent from the
  word always exists, so every position can be rewritten.
* ``bfs_path`` - for full and multiset permutations with 2s >= k, where no
  constructive walker is known: a breadth-first search of the transition
  graph from the minimum vertex, over the words the graph hands out.

The walkers are diagnostics and proof witnesses; generation itself never
depends on them.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import (
    InstanceParams,
    Mode,
    Vertex,
    is_valid_vertex,
    is_valid_word,
    min_vertex,
)
from .graph import Edge, _completions, build_graph, edge_for_word


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class PathStep:
    edge: Edge
    direction: Direction


@dataclass(frozen=True)
class PathCertificate:
    origin: Vertex
    steps: tuple[PathStep, ...]
    terminus: Vertex


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    violation: str | None = None
    step: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class WalkError(RuntimeError):
    """A walker's preconditions do not hold, or no path exists."""


class StepCapExceeded(RuntimeError):
    """A walker exceeded the 8*k*s step budget; treated as a bug."""


def step_cap(params: InstanceParams) -> int:
    return 8 * params.k * params.s


def _require_vertex(v: Sequence[int], params: InstanceParams) -> Vertex:
    v = tuple(v)
    if not is_valid_vertex(v, params):
        raise WalkError(f"{v} is not a vertex of instance ({params.describe()})")
    return v


def _object_multiset(params: InstanceParams) -> Counter:
    if params.mode is Mode.MULTISET:
        return Counter(params.multiset)
    if params.k == params.n:
        return Counter(range(1, params.n + 1))
    raise WalkError("objects form one multiset only for multiset instances or full permutations")


def _reserving_completion(remaining: Counter, head_len: int, need: int) -> tuple[int, ...]:
    """Lexicographically smallest ordering of `remaining` that keeps at least
    one copy of `need` within the first `head_len` positions (so the suffix
    window leaves a copy free for the backward substitution)."""
    counts = Counter(remaining)
    placed = False
    out: list[int] = []
    for pos in range(head_len):
        slots_left = head_len - pos - 1
        for x in sorted(counts):
            if counts[x] <= 0:
                continue
            if x == need or placed or slots_left >= 1:
                counts[x] -= 1
                out.append(x)
                placed = placed or x == need
                break
    out.extend(sorted(counts.elements()))
    return tuple(out)


def walk_multiset(
    w: Sequence[int], params: InstanceParams
) -> tuple[PathCertificate, tuple[int, ...]]:
    """Path from w to the minimum vertex for multiset permutations, 2s < k.

    Returns the certificate and a progress trace: the index of the first
    disagreement with the minimum vertex at each round, strictly increasing.
    Every round emits one forward/backward pair.  If the needed symbol
    already sits later in the window, the pair transposes it into place
    (both words share their suffix because 2s < k keeps the window clear of
    it).  Otherwise the symbol is drawn from the unseen remainder: the
    forward word's suffix is chosen to leave a copy of the symbol unused,
    and the backward word splices it into the disagreeing position.
    """
    M = _object_multiset(params)
    k, s = params.k, params.s
    if 2 * s >= k:
        raise WalkError(f"transposition walker needs 2s < k, got s={s}, k={k}")
    w = _require_vertex(w, params)
    target = min_vertex(params)
    cap = step_cap(params)
    steps: list[PathStep] = []
    trace: list[int] = []
    cur = w
    while cur != target:
        d = next(i for i in range(s) if cur[i] != target[i])
        trace.append(d)
        need = target[d]
        remaining = M - Counter(cur)
        if need in cur[d + 1 :]:
            completion = tuple(sorted(remaining.elements()))
            word = cur + completion
            j = cur.index(need, d + 1)
            moved = list(cur)
            moved[d], moved[j] = moved[j], moved[d]
            word_back = tuple(moved) + completion
            nxt = tuple(moved)
        else:
            completion = _reserving_completion(remaining, k - 2 * s, need)
            word = cur + completion
            suffix = word[-s:]
            nxt = cur[:d] + (need,) + cur[d + 1 :]
            middle = M - Counter(nxt) - Counter(suffix)
            word_back = nxt + tuple(sorted(middle.elements())) + suffix
        steps.append(PathStep(edge_for_word(word, params), Direction.FORWARD))
        steps.append(PathStep(edge_for_word(word_back, params), Direction.BACKWARD))
        if len(steps) > cap:
            raise StepCapExceeded(f"exceeded {cap} steps at {params.describe()}")
        cur = nxt
    return PathCertificate(w, tuple(steps), target), tuple(trace)


def walk_general(w: Sequence[int], params: InstanceParams) -> PathCertificate:
    """Rotation path to the minimum vertex for any k-permutation instance
    with k < n, at every overlap 1 <= s < k.

    w is extended by k-s letters it lacks into one underlying word.  The
    current window is rotated (forward edges through cyclic shifts of that
    word) until the position to edit lies in the first g = gcd(s, k)
    positions, one forward/backward pair rewrites that position, and the
    window is rotated back.  If the letter wanted at the first disagreeing
    position occurs later in the word, its stray copy is first overwritten
    with a letter unused by the word (one exists since k < n); afterwards
    the wanted letter is written into its home position.
    """
    k, s, n = params.k, params.s, params.n
    if params.mode is not Mode.KPERM or not (1 <= s < k < n):
        raise WalkError("general walker needs k-permutation mode with s < k < n")
    g = gcd(s, k)
    w = _require_vertex(w, params)
    target = min_vertex(params)
    if w == target:
        return PathCertificate(w, (), target)
    cap = step_cap(params)
    steps: list[PathStep] = []
    word = list(w) + [x for x in range(1, n + 1) if x not in set(w)][: k - s]
    offset = 0

    def window(t: int) -> tuple[int, ...]:
        return tuple(word[(t + i) % k] for i in range(k))

    def rotate_once() -> None:
        nonlocal offset
        steps.append(PathStep(edge_for_word(window(offset), params), Direction.FORWARD))
        offset = (offset + k - s) % k
        if len(steps) > cap:
            raise StepCapExceeded(f"exceeded {cap} steps at {params.describe()}")

    def rotate_to(t: int) -> None:
        while offset != t:
            rotate_once()

    while tuple(word[:s]) != target:
        d = next(i for i in range(s) if word[i] != i + 1)
        wanted = d + 1
        if wanted in word:
            # clear the stray copy first so the letter can be re-seated
            pos = word.index(wanted)
            anchor = pos - pos % g
            rotate_to(anchor)
            rotate_once()
            word[pos] = min(set(range(1, n + 1)) - set(word))
        else:
            anchor = d - d % g
            rotate_to(anchor)
            rotate_once()
            word[d] = wanted
        steps.append(PathStep(edge_for_word(window(anchor), params), Direction.BACKWARD))
        offset = anchor
        rotate_to(0)
        if len(steps) > cap:
            raise StepCapExceeded(f"exceeded {cap} steps at {params.describe()}")
    return PathCertificate(w, tuple(steps), target)


@lru_cache(maxsize=1)
def _bfs_tree(params: InstanceParams) -> Mapping[Vertex, tuple[PathStep, Vertex] | None]:
    """First step of a shortest undirected path from each vertex to the
    minimum vertex, as a read-only view.

    Each vertex x is expanded over its completions: first the words head + x
    that enter it, then the words x + tail that leave it, both in
    lexicographic order.  A step's edge is built once, when the search first
    reaches the vertex it leaves from.
    """
    build_graph(params)  # enforces the edge limit
    s = params.s
    target = min_vertex(params)
    tree: dict[Vertex, tuple[PathStep, Vertex] | None] = {target: None}
    queue = deque([target])
    while queue:
        x = queue.popleft()
        for head in _completions(x, params):
            word = head + x
            if word[:s] not in tree:
                e = edge_for_word(word, params)
                tree[e.source] = (PathStep(e, Direction.FORWARD), x)
                queue.append(e.source)
        for tail in _completions(x, params):
            word = x + tail
            if word[-s:] not in tree:
                e = edge_for_word(word, params)
                tree[e.target] = (PathStep(e, Direction.BACKWARD), x)
                queue.append(e.target)
    return MappingProxyType(tree)


def bfs_path(w: Sequence[int], params: InstanceParams) -> PathCertificate:
    """Shortest weak-connectivity path from w to the minimum vertex, found by
    search, as a certificate.

    Used where no constructive walker applies: full and multiset
    permutations with 2s >= k.  The search tree of the most recent instance
    is kept, so walking every vertex of one instance costs one search;
    asking for another instance replaces it.
    """
    w = _require_vertex(w, params)
    target = min_vertex(params)
    tree = _bfs_tree(params)
    if w not in tree:
        raise WalkError(f"no path from {w} to {target} in {params.describe()}")
    steps: list[PathStep] = []
    cur = w
    while cur != target:
        step, cur = tree[cur]
        steps.append(step)
    return PathCertificate(w, tuple(steps), target)


def find_path(w: Sequence[int], params: InstanceParams) -> PathCertificate:
    """Route to the applicable walker for this instance."""
    if params.mode is Mode.MULTISET or params.k == params.n:
        if 2 * params.s < params.k:
            cert, _ = walk_multiset(w, params)
            return cert
        return bfs_path(w, params)
    return walk_general(w, params)


def replay_certificate(cert: PathCertificate, params: InstanceParams) -> ReplayReport:
    """Re-run a certificate step by step without trusting how it was built."""
    s = params.s
    if not is_valid_vertex(cert.origin, params):
        return ReplayReport(False, f"origin {cert.origin} is not a vertex", None)
    cur = cert.origin
    for i, st in enumerate(cert.steps):
        word = st.edge.word
        if not is_valid_word(word, params):
            return ReplayReport(False, f"word {word} is not an object of the instance", i)
        if st.edge.source != word[:s] or st.edge.target != word[-s:]:
            return ReplayReport(False, "edge endpoints do not match its word", i)
        if st.direction is Direction.FORWARD:
            if word[:s] != cur:
                return ReplayReport(False, f"forward step does not leave {cur}", i)
            cur = word[-s:]
        else:
            if word[-s:] != cur:
                return ReplayReport(False, f"backward step does not leave {cur}", i)
            cur = word[:s]
    if cur != cert.terminus:
        return ReplayReport(False, f"walk ends at {cur}, not the stated terminus", None)
    if cert.terminus != min_vertex(params):
        return ReplayReport(False, "terminus is not the minimum vertex", None)
    return ReplayReport(True, None, None)
