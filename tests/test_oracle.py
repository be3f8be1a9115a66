"""The Hamilton-cycle oracle over the 286-instance small sweep.

The sweep's results are pinned by hash, budgets are checked at the exact
node count of each decided search, and a brute force without pruning
checks the oracle's verdict on the sweep's smallest instances.
"""

import hashlib
from itertools import permutations

import pytest

from ocycles.core import validate_params
from ocycles.verify import OracleStatus, hamilton_oracle, verify_object_list
from conftest import brute_objects, oracle_sweep_instances

SWEEP_BUDGET = 100_000
# SHA-256 over one line "<instance> <status> <nodes> <cycle>" per sweep
# instance, in sweep order; computed with the oracle that kept per-object
# entry and exit counters, before its search state became bitmasks, and
# unchanged since the one-object case joined the search and the witness
# came back up the recursion as a return value
SWEEP_DIGEST = "5a06278dcd3e11da897259086ac78020b500792753dae42096e95bdefb99c805"
BRUTE_FORCE_MAX_OBJECTS = 7


@pytest.fixture(scope="module")
def sweep_results():
    return [(p, hamilton_oracle(p, SWEEP_BUDGET)) for p in oracle_sweep_instances()]


def test_sweep_results_are_pinned(sweep_results):
    assert len(sweep_results) == 286
    lines = "".join(
        f"{p.describe()} {r.status.value} {r.nodes} {r.cycle}\n" for p, r in sweep_results
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == SWEEP_DIGEST


def test_budget_boundary(sweep_results):
    """A budget of exactly a decided search's node count still decides it;
    one node less stops the search on the node past the budget."""
    decided = [(p, r) for p, r in sweep_results if r.status is not OracleStatus.EXHAUSTED]
    assert decided
    for p, r in decided:
        at = hamilton_oracle(p, r.nodes)
        assert (at.status, at.nodes, at.cycle) == (r.status, r.nodes, r.cycle), p
        short = hamilton_oracle(p, r.nodes - 1)
        assert (short.status, short.nodes, short.cycle) == (
            OracleStatus.EXHAUSTED, r.nodes, None
        ), p


@pytest.mark.parametrize(
    "multiset, s", [((1, 1, 1), 1), ((1, 1, 1), 2), ((2, 2), 1), ((5, 5, 5, 5), 3)]
)
def test_budget_boundary_one_object(multiset, s):
    """The same budget rule with one object, which the search decides on its
    first node: budget 1 decides it, and budget 0 stops on that node."""
    p = validate_params(multiset=multiset, s=s)
    at = hamilton_oracle(p, 1)
    assert (at.status, at.nodes, at.cycle) == (OracleStatus.WITNESS, 1, (multiset,))
    short = hamilton_oracle(p, 0)
    assert (short.status, short.nodes, short.cycle) == (OracleStatus.EXHAUSTED, 1, None)


def brute_force_has_cycle(p) -> bool:
    """Whether some ordering of the objects after the first closes into an
    overlap cycle, trying every ordering without pruning."""
    first, *rest = brute_objects(p)
    s = p.s
    for order in permutations(rest):
        cycle = (first, *order)
        if all(a[-s:] == b[:s] for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            return True
    return False


def test_pruning_agrees_with_brute_force(sweep_results):
    small = [(p, r) for p, r in sweep_results if len(brute_objects(p)) <= BRUTE_FORCE_MAX_OBJECTS]
    assert len(small) == 49
    for p, r in small:
        assert r.status is not OracleStatus.EXHAUSTED, p
        assert (r.status is OracleStatus.WITNESS) == brute_force_has_cycle(p), p
        if r.status is OracleStatus.WITNESS:
            assert verify_object_list(r.cycle, p).valid, p
