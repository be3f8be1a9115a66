import dataclasses
import math
from collections import deque

import pytest

from ocycles import (
    Direction,
    Edge,
    PathCertificate,
    PathStep,
    StepCapExceeded,
    WalkError,
    bfs_path,
    enumerate_objects,
    find_path,
    min_vertex,
    replay_certificate,
    step_cap,
    validate_params,
    vertices,
    walk_general,
    walk_multiset,
)
from ocycles.connect import _bfs_tree
from conftest import guaranteed_instances, multiset_trace


class TestWalkMultiset:
    def test_identity(self):
        p = validate_params(multiset=(1, 2, 3, 4, 5), s=2)
        cert = walk_multiset((1, 2), p)
        assert cert.steps == ()
        assert multiset_trace(cert, p) == ()
        assert replay_certificate(cert, p).ok

    def test_single_transposition(self):
        p = validate_params(multiset=(1, 2, 3, 4, 5), s=2)
        cert = walk_multiset((2, 1), p)
        assert len(cert.steps) == 2
        assert multiset_trace(cert, p) == (0,)
        assert [st.direction for st in cert.steps] == [Direction.FORWARD, Direction.BACKWARD]
        assert cert.terminus == (1, 2)
        assert replay_certificate(cert, p).ok

    def test_two_rounds(self):
        p = validate_params(multiset=(1, 2, 3, 4, 5), s=2)
        cert = walk_multiset((3, 4), p)
        assert len(multiset_trace(cert, p)) <= 2
        assert replay_certificate(cert, p).ok

    def test_high_multiplicity_replacement(self):
        # the needed symbol saturates the remainder, so the forward word's
        # suffix must deliberately leave one copy unused
        p = validate_params(multiset=(1, 1, 1, 2, 2, 2), s=2)
        cert = walk_multiset((2, 2), p)
        assert replay_certificate(cert, p).ok
        assert multiset_trace(cert, p) == (0, 1)

    def test_trace_strictly_increasing_everywhere(self):
        for kwargs in (dict(multiset=(1, 1, 2, 2, 3), s=2), dict(multiset=(1, 1, 1, 2, 2, 2), s=2)):
            p = validate_params(**kwargs)
            for v in vertices(p):
                cert = walk_multiset(v, p)
                trace = multiset_trace(cert, p)
                assert list(trace) == sorted(set(trace)), (v, trace)
                assert len(trace) <= p.s
                assert replay_certificate(cert, p).ok

    def test_full_perm_instance_accepted(self):
        p = validate_params(n=5, k=5, s=2)
        cert = walk_multiset((4, 5), p)
        assert replay_certificate(cert, p).ok

    def test_rejects_large_overlap(self):
        p = validate_params(multiset=(1, 2, 3, 4), s=2)
        with pytest.raises(WalkError, match="2s < k"):
            walk_multiset((2, 1), p)

    def test_rejects_proper_kperm_mode(self):
        p = validate_params(n=5, k=3, s=1)
        with pytest.raises(WalkError):
            walk_multiset((2,), p)


def _unseated_per_rewrite(cert, params):
    """Positions of the minimum vertex not yet seated at the head of the
    rotation walker's underlying word, after each rewrite (backward step).

    Recovered from the certificate alone: every round starts at offset 0, a
    forward step's word is a rotation of the underlying word, and a backward
    step's word is that rotation after the edit.
    """
    k, s = params.k, params.s
    word = list(cert.steps[0].edge.word) if cert.steps else []
    trace = []
    offset = None
    for st in cert.steps:
        if st.direction is Direction.FORWARD:
            offset = word.index(st.edge.word[0])
            assert st.edge.word == tuple(word[(offset + i) % k] for i in range(k))
        else:
            for i, x in enumerate(st.edge.word):
                word[(offset + i) % k] = x
            seated = next((i for i in range(s) if word[i] != i + 1), s)
            trace.append(s - seated)
    return trace


class TestWalkKperm:
    """walk_general on proper k-permutations with gcd(s, k) = 1 and s < k-1,
    the regime once covered by a separate letter-exchange walker."""

    def test_identity(self):
        p = validate_params(n=5, k=4, s=1)
        cert = walk_general((1,), p)
        assert cert.steps == ()

    def test_from_highest_symbol(self):
        p = validate_params(n=5, k=4, s=1)
        cert = walk_general((5,), p)
        assert cert.terminus == (1,)
        assert replay_certificate(cert, p).ok

    def test_d_trace_monotone(self):
        p = validate_params(n=6, k=4, s=1)
        cert = walk_general((6,), p)
        assert replay_certificate(cert, p).ok
        rounds = _unseated_per_rewrite(cert, p)
        assert rounds == sorted(rounds, reverse=True)
        assert rounds[-1] == 0

    def test_d_trace_monotone_everywhere(self):
        p = validate_params(n=7, k=5, s=3)
        for v in list(vertices(p))[::17]:
            cert = walk_general(v, p)
            rounds = _unseated_per_rewrite(cert, p)
            assert rounds == sorted(rounds, reverse=True)
            assert len(rounds) <= 2 * p.s
            assert replay_certificate(cert, p).ok


class TestWalkGeneral:
    def test_identity(self):
        p = validate_params(n=5, k=4, s=2)
        assert walk_general((1, 2), p).steps == ()

    def test_rotation_instance(self):
        p = validate_params(n=5, k=4, s=2)  # gcd(2,4) = 2
        cert = walk_general((3, 4), p)
        assert cert.terminus == (1, 2)
        assert replay_certificate(cert, p).ok

    def test_rotation_large_blocks(self):
        p = validate_params(n=7, k=6, s=4)  # gcd(4,6) = 2
        cert = walk_general((2, 4, 6, 1), p)
        assert replay_certificate(cert, p).ok

    def test_rotation_covers_coprime_overlap(self):
        # gcd(s, k) = 1 with s < k-1: rotation reaches every window offset
        for n, k, s in [(5, 4, 1), (6, 5, 2), (7, 5, 3), (6, 4, 1)]:
            p = validate_params(n=n, k=k, s=s)
            assert math.gcd(s, k) == 1 and s < k - 1
            for v in vertices(p):
                cert = walk_general(v, p)
                assert cert.origin == v and cert.terminus == min_vertex(p)
                assert replay_certificate(cert, p).ok, (p, v)
                assert len(cert.steps) <= step_cap(p) // 2, (p, v)

    def test_max_overlap_uses_rotation(self):
        # s = k-1: every forward edge rotates the window by one position
        p = validate_params(n=5, k=4, s=3)
        for v in list(vertices(p))[::7]:
            cert = walk_general(v, p)
            assert replay_certificate(cert, p).ok
            assert len(cert.steps) <= step_cap(p)

    def test_rejects_full_perm(self):
        with pytest.raises(WalkError):
            walk_general((2, 1), validate_params(n=4, k=4, s=2))


class TestBfsPath:
    def test_finds_short_witness(self):
        p = validate_params(n=5, k=5, s=3)  # coprime full-perm regime
        cert = bfs_path((3, 2, 1), p)
        assert replay_certificate(cert, p).ok

    def test_unreachable_raises(self):
        p = validate_params(n=4, k=4, s=2)  # disconnected instance
        with pytest.raises(WalkError, match="no path"):
            bfs_path((1, 3), p)

    def test_alternating_instances_match_fresh_searches(self):
        # one search tree is kept; switching instance must replace it
        a = validate_params(n=5, k=5, s=3)
        b = validate_params(multiset=(1, 1, 2, 2, 3), s=3)
        fresh = {}
        for p in (a, b):
            for v in vertices(p):
                _bfs_tree.cache_clear()
                fresh[p, v] = bfs_path(v, p)
        for va, vb in zip(vertices(a), vertices(b)):
            assert bfs_path(va, a) == fresh[a, va]
            assert bfs_path(vb, b) == fresh[b, vb]
            assert _bfs_tree.cache_info().currsize == 1


def reference_bfs_outcomes(p):
    """Each vertex's breadth-first certificate to the minimum vertex, or the
    text of the WalkError for an unreachable one: each vertex is expanded
    over the words entering it, then those leaving it, both in lexicographic
    order, with the words taken from the object list grouped by suffix and
    by prefix."""
    s = p.s
    leaving, entering = {}, {}
    for word in enumerate_objects(p):
        leaving.setdefault(word[:s], []).append(word)
        entering.setdefault(word[-s:], []).append(word)
    target = min_vertex(p)
    tree = {target: None}
    queue = deque([target])
    while queue:
        x = queue.popleft()
        for word in entering.get(x, ()):
            if word[:s] not in tree:
                tree[word[:s]] = (PathStep(Edge(word), Direction.FORWARD), x)
                queue.append(word[:s])
        for word in leaving.get(x, ()):
            if word[-s:] not in tree:
                tree[word[-s:]] = (PathStep(Edge(word), Direction.BACKWARD), x)
                queue.append(word[-s:])
    outcomes = {}
    for w in vertices(p):
        if w not in tree:
            outcomes[w] = f"no path from {w} to {target} in {p.describe()}"
            continue
        steps = []
        cur = w
        while cur != target:
            step, cur = tree[cur]
            steps.append(step)
        outcomes[w] = PathCertificate(w, tuple(steps), target)
    return outcomes


def outcome(walk, w, p):
    try:
        return walk(w, p)
    except WalkError as exc:
        return str(exc)


class TestBfsReference:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=5, k=5, s=3), dict(n=6, k=6, s=4), dict(n=7, k=7, s=4), dict(n=8, k=8, s=5),
         dict(multiset=(1, 1, 2, 2, 3), s=3), dict(multiset=(1, 1, 2, 2, 3, 3), s=3),
         dict(n=4, k=4, s=2)],
    )
    def test_every_vertex_matches_reference(self, kwargs):
        p = validate_params(**kwargs)
        for v, expected in reference_bfs_outcomes(p).items():
            assert outcome(bfs_path, v, p) == expected, v
            assert outcome(find_path, v, p) == expected, v


class TestReplay:
    def test_empty_certificate_at_minimum(self):
        p = validate_params(n=5, k=4, s=2)
        cert = PathCertificate((1, 2), (), (1, 2))
        assert replay_certificate(cert, p).ok

    def test_empty_certificate_elsewhere_fails(self):
        p = validate_params(n=5, k=4, s=2)
        cert = PathCertificate((2, 3), (), (2, 3))
        report = replay_certificate(cert, p)
        assert not report.ok
        assert "minimum" in report.violation

    def test_corrupted_edge_word_is_located(self):
        p = validate_params(n=6, k=4, s=2)
        cert = walk_general((4, 3), p)
        assert len(cert.steps) >= 2
        bad_edge = dataclasses.replace(cert.steps[1].edge, word=(1, 1, 1, 1))
        bad_step = dataclasses.replace(cert.steps[1], edge=bad_edge)
        tampered = dataclasses.replace(
            cert, steps=cert.steps[:1] + (bad_step,) + cert.steps[2:]
        )
        report = replay_certificate(tampered, p)
        assert not report.ok
        assert report.step == 1

    def test_wrong_terminus_detected(self):
        p = validate_params(n=5, k=4, s=1)
        cert = walk_general((3,), p)
        forged = dataclasses.replace(cert, terminus=(2,))
        assert not replay_certificate(forged, p).ok


class TestFindPathEverywhere:
    @pytest.mark.parametrize("max_n", [5])
    def test_all_vertices_all_guaranteed_instances(self, max_n):
        for p in guaranteed_instances(max_n):
            cap = step_cap(p)
            for v in vertices(p):
                cert = find_path(v, p)
                assert replay_certificate(cert, p).ok, (p, v)
                assert len(cert.steps) <= cap, (p, v)

    def test_cap_never_exceeded_without_signal(self):
        # the walkers raise rather than silently overrun
        p = validate_params(n=7, k=6, s=4)
        for v in list(vertices(p))[::41]:
            try:
                cert = find_path(v, p)
            except StepCapExceeded:  # pragma: no cover - would be a bug
                pytest.fail("step cap exceeded")
            assert len(cert.steps) <= step_cap(p)
