"""Shared instance sweeps and fixtures for the test suite."""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import pytest

from ocycles.core import InstanceParams, Mode, enumerate_objects, min_vertex, validate_params
from ocycles.connect import Direction

DATA_DIR = Path(__file__).parent / "data"

# multisets exercised by the multiset sweeps; sizes 3..6
MULTISET_BATTERY = [(1, 1, 2), (1, 1, 2, 3, 4), (1, 1, 2, 2, 3), (1, 1, 1, 2, 2, 2)]


def kperm_instances(max_n: int = 7) -> list[InstanceParams]:
    """Every proper k-permutation instance with 1 <= s < k < n <= max_n."""
    out = []
    for n in range(3, max_n + 1):
        for k in range(2, n):
            for s in range(1, k):
                out.append(validate_params(n=n, k=k, s=s))
    return out


def fullperm_instances(max_n: int = 7) -> list[InstanceParams]:
    """Full-permutation instances (k = n) in the guaranteed regimes."""
    out = []
    for n in range(3, max_n + 1):
        for s in range(1, n):
            if 2 * s < n or (math.gcd(s, n) == 1 and s <= n - 2):
                out.append(validate_params(n=n, k=n, s=s))
    return out


def multiset_instances() -> list[InstanceParams]:
    """Multiset instances from the battery, small-overlap regime only."""
    out = []
    for m in MULTISET_BATTERY:
        for s in range(1, len(m)):
            if 2 * s < len(m):
                out.append(validate_params(multiset=m, s=s))
    return out


def multiset_coprime_instances() -> list[InstanceParams]:
    """Battery instances guaranteed through the coprime-overlap rule only."""
    out = []
    for m in MULTISET_BATTERY:
        k = len(m)
        for s in range(1, k):
            if 2 * s >= k and math.gcd(s, k) == 1 and s <= k - 2:
                out.append(validate_params(multiset=m, s=s))
    return out


def guaranteed_instances(max_n: int = 7) -> list[InstanceParams]:
    return (
        kperm_instances(max_n)
        + fullperm_instances(max_n)
        + multiset_instances()
        + multiset_coprime_instances()
    )


def brute_objects(params):
    """Every object of the instance, sorted, by brute force: all orderings
    of the alphabet's k-subsets or of the multiset, deduplicated."""
    if params.mode is Mode.KPERM:
        return sorted(set(permutations(range(1, params.n + 1), params.k)))
    return sorted(set(permutations(params.multiset)))


@pytest.fixture(scope="session")
def perm5_fixture_words() -> list[tuple[int, ...]]:
    """120 permutations of {1..5} arranged in a 3-overlap cycle (known-good)."""
    text = (DATA_DIR / "perm5_s3_cycle.txt").read_text()
    return [tuple(int(c) for c in line) for line in text.split()]


def decode_symbols(symbols, k, s):
    """Read length-k windows at stride k-s from a cyclic symbol string."""
    stride = k - s
    length = len(symbols)
    if length % stride != 0:
        raise ValueError(f"cycle length {length} is not divisible by k-s = {stride}")
    for i in range(length // stride):
        base = i * stride
        yield tuple(symbols[(base + j) % length] for j in range(k))


def decode_cycle(cycle):
    """The cycle's objects in order; the inverse of ``tour_to_cycle``."""
    yield from decode_symbols(cycle.symbols, cycle.params.k, cycle.params.s)


@dataclass
class BalanceReport:
    balanced: bool
    vertex_count: int
    edge_count: int
    violations: list  # (vertex, out-degree, in-degree)
    prefixes_match_suffixes: bool


def check_balance(params):
    """Sweep every object and compare in- and out-degrees at every vertex.

    The graph is Eulerian-ready only if every vertex is balanced and the set
    of s-prefixes equals the set of s-suffixes.
    """
    s = params.s
    outd, ind = Counter(), Counter()
    for word in enumerate_objects(params):
        outd[word[:s]] += 1
        ind[word[-s:]] += 1
    seen = set(outd) | set(ind)
    violations = sorted((v, outd[v], ind[v]) for v in seen if outd[v] != ind[v])
    prefixes_match = set(outd) == set(ind)
    return BalanceReport(
        balanced=not violations and prefixes_match,
        vertex_count=len(seen),
        edge_count=sum(outd.values()),
        violations=violations,
        prefixes_match_suffixes=prefixes_match,
    )


def multiset_trace(cert, params):
    """The transposition walker's progress trace, recovered from its
    certificate: for each forward/backward pair, the first index at which
    the vertex the pair starts from differs from the minimum vertex."""
    s = params.s
    target = min_vertex(params)
    trace = []
    for st in cert.steps:
        if st.direction is Direction.FORWARD:
            cur = st.edge.word[:s]
            trace.append(next(i for i in range(s) if cur[i] != target[i]))
    return tuple(trace)
