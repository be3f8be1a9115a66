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
    completions,
    is_valid_vertex,
    is_valid_word,
    min_vertex,
)
from .graph import Edge, build_graph, edge_for_word


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


def _take(
    steps: list[PathStep], word: Sequence[int], direction: Direction, params: InstanceParams
) -> None:
    """Append the step along `word`; a walker past its step cap is a bug."""
    steps.append(PathStep(edge_for_word(word, params), direction))
    if len(steps) > step_cap(params):
        raise StepCapExceeded(f"exceeded {step_cap(params)} steps at {params.describe()}")


def _reserving_completion(remaining: Counter, head_len: int, need: int) -> tuple[int, ...]:
    """Lexicographically smallest ordering of `remaining` that keeps at least
    one copy of `need` within the first `head_len` positions (so the suffix
    window leaves a copy free for the backward substitution): the sorted
    remainder, with one copy of `need` moved back to the last head position
    if none sits in the head already."""
    ordered = sorted(remaining.elements())
    if need not in ordered[:head_len]:
        ordered.remove(need)
        ordered.insert(head_len - 1, need)
    return tuple(ordered)


def walk_multiset(w: Sequence[int], params: InstanceParams) -> PathCertificate:
    """Path from w to the minimum vertex for multiset permutations, 2s < k.

    Every round emits one forward/backward pair that seats the first
    position where the current vertex disagrees with the minimum vertex, so
    that position strictly increases from round to round.  The forward word
    is the current vertex followed by a completion.  The backward word is
    the next vertex, the symbols left over in ascending order, and the
    forward word's suffix; traversed backward, it leads from that suffix to
    the next vertex (2s < k keeps the two windows apart).  If the needed
    symbol already sits later in the window, the next vertex transposes it
    into place and the completion is the sorted remainder.  Otherwise the
    next vertex takes it from the unseen remainder, whose completion is
    chosen to leave a copy of the symbol outside the suffix.
    """
    M = _object_multiset(params)
    k, s = params.k, params.s
    if 2 * s >= k:
        raise WalkError(f"transposition walker needs 2s < k, got s={s}, k={k}")
    w = _require_vertex(w, params)
    target = min_vertex(params)
    steps: list[PathStep] = []
    cur = w
    while cur != target:
        d = next(i for i in range(s) if cur[i] != target[i])
        need = target[d]
        remaining = M - Counter(cur)
        if need in cur[d + 1 :]:
            completion = tuple(sorted(remaining.elements()))
            j = cur.index(need, d + 1)
            moved = list(cur)
            moved[d], moved[j] = moved[j], moved[d]
            nxt = tuple(moved)
        else:
            completion = _reserving_completion(remaining, k - 2 * s, need)
            nxt = cur[:d] + (need,) + cur[d + 1 :]
        suffix = completion[-s:]
        middle = M - Counter(nxt) - Counter(suffix)
        _take(steps, cur + completion, Direction.FORWARD, params)
        _take(steps, nxt + tuple(sorted(middle.elements())) + suffix, Direction.BACKWARD, params)
        cur = nxt
    return PathCertificate(w, tuple(steps), target)


def walk_general(w: Sequence[int], params: InstanceParams) -> PathCertificate:
    """Rotation path to the minimum vertex for any k-permutation instance
    with k < n, at every overlap 1 <= s < k.

    w is extended by its first completion, the k-s smallest letters it
    lacks in ascending order, into one underlying word.  Each round rewrites
    one position of that word: the window is rotated (forward edges through
    cyclic shifts of the word) until the position lies in the first
    g = gcd(s, k) positions, one more forward step and one backward step
    with the new letter swap it in, and the window is rotated back.  The
    position is the first one that disagrees with the minimum vertex, and
    the letter the one wanted there; but if the wanted letter occurs
    elsewhere in the word, that stray copy is first overwritten with the
    smallest letter absent from the word (one exists since k < n).
    """
    k, s, n = params.k, params.s, params.n
    if params.mode is not Mode.KPERM or not (1 <= s < k < n):
        raise WalkError("general walker needs k-permutation mode with s < k < n")
    g = gcd(s, k)
    w = _require_vertex(w, params)
    target = min_vertex(params)
    steps: list[PathStep] = []
    word = list(w + next(completions(w, k - s, params)))
    offset = 0

    def window(t: int) -> tuple[int, ...]:
        return tuple(word[t:] + word[:t])

    def rotate_once() -> None:
        nonlocal offset
        _take(steps, window(offset), Direction.FORWARD, params)
        offset = (offset + k - s) % k

    def rotate_to(t: int) -> None:
        while offset != t:
            rotate_once()

    while tuple(word[:s]) != target:
        d = next(i for i in range(s) if word[i] != i + 1)
        wanted = d + 1
        if wanted in word:
            # clear the stray copy first so the letter can be re-seated
            pos, letter = word.index(wanted), min(set(range(1, n + 1)) - set(word))
        else:
            pos, letter = d, wanted
        anchor = pos - pos % g
        rotate_to(anchor)
        rotate_once()
        word[pos] = letter
        _take(steps, window(anchor), Direction.BACKWARD, params)
        offset = anchor
        rotate_to(0)
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
        for head in completions(x, params.k - s, params):
            word = head + x
            y = word[:s]
            if y not in tree:
                tree[y] = (PathStep(edge_for_word(word, params), Direction.FORWARD), x)
                queue.append(y)
        for tail in completions(x, params.k - s, params):
            word = x + tail
            y = word[-s:]
            if y not in tree:
                tree[y] = (PathStep(edge_for_word(word, params), Direction.BACKWARD), x)
                queue.append(y)
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
            return walk_multiset(w, params)
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
        leaves, enters = word[:s], word[-s:]
        if st.direction is Direction.BACKWARD:
            leaves, enters = enters, leaves
        if leaves != cur:
            return ReplayReport(False, f"{st.direction.value} step does not leave {cur}", i)
        cur = enters
    if cur != cert.terminus:
        return ReplayReport(False, f"walk ends at {cur}, not the stated terminus", None)
    if cert.terminus != min_vertex(params):
        return ReplayReport(False, "terminus is not the minimum vertex", None)
    return ReplayReport(True, None, None)
