"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; ``-s`` additionally shows the per-criterion summary prints.
"""

import math
import random
import time
from collections import Counter

from ocycles.core import (
    Feasibility,
    Windows,
    feasibility,
    object_count,
    validate_params,
    vertex_count,
    vertices,
)
from ocycles.graph import build_graph
from ocycles.euler import TourIncomplete, euler_tour, tour_to_cycle
from ocycles.connect import find_path, replay_certificate, step_cap
from ocycles.verify import OracleStatus, hamilton_oracle, verify_cycle_string, verify_object_list
from ocycles.cli import main as cli_main, parse_text
from conftest import (
    MULTISET_BATTERY,
    check_balance,
    fullperm_instances,
    guaranteed_instances,
    kperm_instances,
    multiset_instances,
    multiset_trace,
)

PERM5 = validate_params(n=5, k=5, s=3)


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_reference_cycle_fixture(perm5_fixture_words):
    """The bundled 120-permutation 3-overlap cycle verifies exactly; single
    transpositions of entries are rejected.  Budget: < 1 s."""
    t0 = time.perf_counter()
    words = perm5_fixture_words
    assert len(words) == 120

    report = verify_object_list(words, PERM5)
    assert report.valid
    assert report.object_count == 120
    # wrap-around pair is part of the check: last word flows into the first
    assert words[-1][-3:] == words[0][:3] == (1, 2, 3)

    # single transpositions: all adjacent pairs plus a seeded sample of
    # arbitrary pairs (the remaining pairs are swept in the verifier tests)
    pairs = [(i, i + 1) for i in range(119)] + [(119, 0)]
    rng = random.Random(1405)
    pairs += [tuple(rng.sample(range(120), 2)) for _ in range(400)]
    for i, j in pairs:
        swapped = list(words)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert not verify_object_list(swapped, PERM5).valid, (i, j)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report("criterion 1", f"fixture valid, {len(pairs)} transpositions rejected, {elapsed:.2f}s")


def test_criterion_2_kperm_sweep():
    """Every (n, k, s) with 1 <= s < k < n <= 7 generates a cycle that
    verifies with exact object count and string length.  Budget: < 60 s."""
    t0 = time.perf_counter()
    instances = kperm_instances(max_n=7)
    for p in instances:
        expected = math.factorial(p.n) // math.factorial(p.n - p.k)
        assert feasibility(p).status is Feasibility.GUARANTEED
        cycle = tour_to_cycle(euler_tour(build_graph(p)))
        report = verify_cycle_string(cycle.symbols, p)
        assert report.valid, p
        assert report.object_count == expected
        assert len(cycle.symbols) == (p.k - p.s) * expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 2", f"{len(instances)} instances generated and verified, {elapsed:.1f}s")


def test_criterion_3_full_permutation_sweep():
    """Full permutations (k = n <= 7) in the guaranteed regimes generate and
    verify with object count n!.  Budget: < 60 s."""
    t0 = time.perf_counter()
    instances = fullperm_instances(max_n=7)
    assert validate_params(n=5, k=5, s=3) in instances
    for p in instances:
        cycle = tour_to_cycle(euler_tour(build_graph(p)))
        report = verify_cycle_string(cycle.symbols, p)
        assert report.valid, p
        assert report.object_count == math.factorial(p.n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 3", f"{len(instances)} instances, {elapsed:.1f}s")


def test_criterion_4_multiset_sweep():
    """Battery multisets with every s < k/2 generate and verify with the
    exact multinomial object count.  Budget: < 30 s."""
    t0 = time.perf_counter()
    instances = multiset_instances()
    covered = {p.multiset for p in instances}
    assert covered == set(MULTISET_BATTERY)
    for p in instances:
        counts = Counter(p.multiset)
        expected = math.factorial(p.k)
        for c in counts.values():
            expected //= math.factorial(c)
        cycle = tour_to_cycle(euler_tour(build_graph(p)))
        report = verify_cycle_string(cycle.symbols, p)
        assert report.valid, p
        assert report.object_count == expected == object_count(p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion 4", f"{len(instances)} instances, {elapsed:.1f}s")


def test_criterion_5_balance():
    """Every instance from criteria 2-4 with at most 1e5 edges is balanced:
    in-degree equals out-degree at every vertex, prefixes equal suffixes."""
    checked = 0
    for p in guaranteed_instances(max_n=7):
        g = build_graph(p)
        if g.edge_count > 100_000:
            continue
        report = check_balance(p)
        assert report.balanced, p
        assert report.violations == []
        assert report.prefixes_match_suffixes
        assert report.edge_count == g.edge_count
        checked += 1
    _report("criterion 5", f"{checked} instances balanced at every vertex")


def test_criterion_6_walker_completeness():
    """For every vertex of every guaranteed instance with V <= 1e4 the
    applicable walker terminates within 8*k*s steps and replays cleanly;
    the transposition walker's progress trace is strictly increasing with
    length <= s.  Budget: < 120 s."""
    t0 = time.perf_counter()
    walks = 0
    traces = 0
    max_fill = 0.0  # largest observed fraction of the step cap
    for p in guaranteed_instances(max_n=7):
        if vertex_count(p) > 10_000:
            continue
        cap = step_cap(p)
        transposition_regime = (
            p.mode.value == "multiset" or p.k == p.n
        ) and 2 * p.s < p.k
        for v in vertices(p):
            cert = find_path(v, p)
            assert len(cert.steps) <= cap, (p, v)
            assert replay_certificate(cert, p).ok, (p, v)
            walks += 1
            max_fill = max(max_fill, len(cert.steps) / cap)
            if transposition_regime:
                trace = multiset_trace(cert, p)
                assert len(trace) <= p.s
                assert all(a < b for a, b in zip(trace, trace[1:])), (p, v, trace)
                traces += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        "criterion 6",
        f"{walks} walks replayed ({traces} traces checked), "
        f"max cap usage {max_fill:.0%}, {elapsed:.1f}s",
    )


def test_criterion_7_oracle_agreement():
    """For instances with <= 60 objects the oracle finds a witness exactly
    when the verdict is not infeasible and the generator completes; the
    max-overlap full-permutation case is exhaustively refuted."""
    instances = [p for p in guaranteed_instances(max_n=7) if object_count(p) <= 60]
    # probes outside the guaranteed region (full permutations)
    probes = [
        validate_params(n=4, k=4, s=3),  # infeasible: must come back NO_CYCLE
        validate_params(n=3, k=3, s=2),  # infeasible: must come back NO_CYCLE
        validate_params(n=4, k=4, s=2),  # open case: disconnected in practice
        validate_params(n=2, k=2, s=1),  # s = k-1 but k = 2: the cycle "1 2" exists
    ]
    # one object, which overlaps itself: the cycle is that object alone
    one_object = [
        validate_params(multiset=(1, 1, 1), s=1),
        validate_params(multiset=(1, 1, 1), s=2),
        validate_params(multiset=(2, 2), s=1),
        validate_params(multiset=(5, 5, 5, 5), s=3),
    ]
    for p in one_object:
        result = hamilton_oracle(p)
        assert (result.status, result.cycle, result.nodes) == (
            OracleStatus.WITNESS, (p.multiset,), 1
        ), p
    probes += one_object
    for p in instances + probes:
        result = hamilton_oracle(p)
        assert result.status is not OracleStatus.EXHAUSTED, p
        try:
            euler_tour(build_graph(p))
            generator_complete = True
        except TourIncomplete:
            generator_complete = False
        expect_witness = (
            feasibility(p).status is not Feasibility.INFEASIBLE and generator_complete
        )
        assert (result.status is OracleStatus.WITNESS) == expect_witness, p
        if result.status is OracleStatus.WITNESS:
            assert verify_object_list(result.cycle, p).valid, p

    refuted = hamilton_oracle(validate_params(n=4, k=4, s=3))
    assert refuted.status is OracleStatus.NO_CYCLE
    _report("criterion 7", f"{len(instances)} instances + {len(probes)} probes agree")


def test_criterion_8_determinism(tmp_path):
    """Two full runs of the criterion-2 sweep through the CLI produce
    byte-identical output files."""
    outputs = []
    for run in (0, 1):
        blobs = []
        for p in kperm_instances(max_n=7):
            out = tmp_path / f"run{run}_{p.n}_{p.k}_{p.s}.txt"
            code = cli_main([
                "gen", "--n", str(p.n), "--k", str(p.k), "--s", str(p.s),
                "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
    _report("criterion 8", f"{len(outputs[0])} documents byte-identical across runs")


def test_criterion_9_list_documents_read_as_bytes(tmp_path):
    """Every instance of criteria 2-4's `gen --format list` document is read
    into one byte string of k symbols per word and verifies valid from it,
    with the report its cycle string gets; its words are the tour's."""
    out = tmp_path / "list.txt"
    instances = guaranteed_instances(max_n=7)
    for p in instances:
        if p.multiset is None:
            argv = ["--n", str(p.n), "--k", str(p.k), "--s", str(p.s)]
        else:
            argv = ["--multiset", ",".join(map(str, p.multiset)), "--s", str(p.s)]
        assert cli_main(["gen", *argv, "--format", "list", "--out", str(out)]) == 0
        words = parse_text(out.read_text()).words
        assert isinstance(words, Windows) and isinstance(words.symbols, bytes), p
        assert words.k == words.stride == p.k, p
        cycle = euler_tour(build_graph(p))
        report = verify_object_list(words, p)
        assert report.valid and report == verify_cycle_string(cycle.symbols, p), p
        assert list(words) == list(cycle.edges), p
    _report("criterion 9", f"{len(instances)} list documents verified from one byte string each")
