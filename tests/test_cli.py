import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ocycles
from ocycles.cli import (
    DocumentError,
    EXIT_INCOMPLETE,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_IOFMT,
    EXIT_LIMIT,
    EXIT_OK,
    emit_document,
    emit_list,
    main,
    parse_text,
)
from ocycles.core import validate_params
from ocycles.euler import OverlapCycle
from conftest import DATA_DIR

FIXTURE = str(DATA_DIR / "perm5_s3_cycle.txt")


class TestGen:
    def test_gen_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "cycle.txt"
        assert main(["gen", "--n", "5", "--k", "4", "--s", "2", "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "feasibility: guaranteed (proper-kperm)" in err
        parsed = parse_text(out.read_text())
        assert parsed.fmt == "string"
        assert len(parsed.symbols) == 240
        assert parsed.params == validate_params(n=5, k=4, s=2)

    def test_gen_then_verify_pipeline(self, tmp_path):
        out = tmp_path / "cycle.txt"
        assert main(["gen", "--n", "5", "--k", "5", "--s", "3", "--out", str(out)]) == EXIT_OK
        assert main(["verify", str(out), "--n", "5", "--k", "5", "--s", "3"]) == EXIT_OK

    def test_gen_list_format(self, tmp_path):
        out = tmp_path / "cycle.txt"
        assert main([
            "gen", "--n", "4", "--k", "3", "--s", "1", "--format", "list", "--out", str(out),
        ]) == EXIT_OK
        parsed = parse_text(out.read_text())
        assert parsed.fmt == "list"
        assert len(parsed.words) == 24
        assert main(["verify", str(out), "--n", "4", "--k", "3", "--s", "1"]) == EXIT_OK

    def test_gen_infeasible_exit(self, tmp_path):
        out = tmp_path / "cycle.txt"
        code = main(["gen", "--n", "4", "--k", "4", "--s", "3", "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert not out.exists()

    def test_gen_unknown_incomplete_exit(self, capsys):
        code = main(["gen", "--n", "4", "--k", "4", "--s", "2"])
        assert code == EXIT_INCOMPLETE
        err = capsys.readouterr().err
        assert "feasibility: unknown" in err
        assert "8 of 24" in err

    def test_gen_unknown_but_complete_succeeds(self, tmp_path, capsys):
        # no known rule covers this instance, yet its graph happens to be
        # connected; the optimistic attempt goes through
        out = tmp_path / "c.txt"
        code = main(["gen", "--multiset", "1,1,2", "--s", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert "feasibility: unknown" in capsys.readouterr().err
        assert main(["verify", str(out), "--multiset", "1,1,2", "--s", "2"]) == EXIT_OK

    def test_gen_limit_exit(self):
        assert main(["gen", "--n", "7", "--k", "6", "--s", "1", "--limit", "100"]) == EXIT_LIMIT

    @pytest.mark.parametrize("command", ["gen", "stats"])
    def test_oversized_instance_rejected_within_1s(self, command):
        t0 = time.perf_counter()
        assert main([command, "--n", "1000000", "--k", "2", "--s", "1"]) == EXIT_LIMIT
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{command} took {elapsed:.2f}s to reject n = 10^6"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "4", "--k", "3", "--s", "1", "--limit", "0"],
            ["gen", "--n", "4", "--k", "3", "--s", "1", "--limit", "-1"],
            ["oracle", "--n", "3", "--k", "2", "--s", "1", "--budget", "0"],
            ["oracle", "--n", "3", "--k", "2", "--s", "1", "--budget", "-1"],
        ],
    )
    def test_nonpositive_limit_or_budget_exit(self, argv, capsys):
        assert main(argv) == EXIT_IOFMT
        assert "must be positive" in capsys.readouterr().err

    def test_gen_multiset_stdout(self, capsys):
        assert main(["gen", "--multiset", "1,1,2", "--s", "1"]) == EXIT_OK
        outerr = capsys.readouterr()
        assert "# mode multiset" in outerr.out
        assert "# multiset 1,1,2" in outerr.out
        assert outerr.out.endswith("1 1 2 1 1 2\n")

    def test_bad_params_exit(self):
        assert main(["gen", "--n", "5", "--k", "5", "--s", "5"]) == EXIT_IOFMT

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--n", "6", "--k", "4", "--s", "2", "--out", str(a)])
        main(["gen", "--n", "6", "--k", "4", "--s", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "3", "--k", "2"],  # missing --s
            ["gen", "--n", "x", "--k", "2", "--s", "1"],  # non-integer --n
            ["bogus", "--n", "3", "--k", "2", "--s", "1"],  # unknown subcommand
            ["gen", "--n", "3", "--k", "2", "--s", "1", "--format", "xml"],
            ["verify", "--n", "3", "--k", "2", "--s", "1"],  # no input file
            [],
        ],
    )
    def test_usage_error_exits_bad_parameters(self, argv, capsys):
        assert main(argv) == EXIT_IOFMT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"], ["oracle", "-h"]])
    def test_help_exits_ok(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert "usage:" in capsys.readouterr().out


class TestVerifyCmd:
    def test_fixture_list(self):
        assert main(["verify", FIXTURE, "--n", "5", "--k", "5", "--s", "3"]) == EXIT_OK

    def test_tampered_fixture(self, tmp_path, capsys):
        lines = open(FIXTURE).read().split()
        lines[3], lines[40] = lines[40], lines[3]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad), "--n", "5", "--k", "5", "--s", "3"]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "valid: no" in out
        assert "overlap violation" in out

    def test_bare_string_file(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("121323\n")
        assert main(["verify", str(f), "--n", "3", "--k", "2", "--s", "1"]) == EXIT_OK

    def test_missing_file(self):
        assert main(["verify", "/nonexistent/x.txt", "--n", "3", "--k", "2", "--s", "1"]) == EXIT_IOFMT

    def test_params_mismatch_with_header(self, tmp_path):
        out = tmp_path / "cycle.txt"
        main(["gen", "--n", "5", "--k", "4", "--s", "2", "--out", str(out)])
        assert main(["verify", str(out), "--n", "5", "--k", "4", "--s", "1"]) == EXIT_IOFMT

    def test_garbage_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("hello world this is not a cycle\n")
        assert main(["verify", str(f), "--n", "3", "--k", "2", "--s", "1"]) == EXIT_IOFMT

    def test_non_utf8_file(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("1 2 1 3 2 3\n", encoding="utf-16")
        assert main(["verify", str(f), "--n", "3", "--k", "2", "--s", "1"]) == EXIT_IOFMT
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_non_numeric_token_among_numbers(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("1 2 1 3 x 3\n")
        assert main(["verify", str(f), "--n", "3", "--k", "2", "--s", "1"]) == EXIT_IOFMT
        assert "cannot parse symbols" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["length", "objects"])
    def test_non_integer_count_header(self, tmp_path, capsys, header):
        out = tmp_path / "cycle.txt"
        main(["gen", "--n", "3", "--k", "2", "--s", "1", "--out", str(out)])
        lines = [
            f"# {header} abc" if line.startswith(f"# {header} ") else line
            for line in out.read_text().splitlines()
        ]
        out.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(out), "--n", "3", "--k", "2", "--s", "1"]) == EXIT_IOFMT
        assert "bad document header" in capsys.readouterr().err
        with pytest.raises(DocumentError):
            parse_text(out.read_text())


class TestStats:
    def test_full_perm_stats(self, capsys):
        assert main(["stats", "--n", "5", "--k", "5", "--s", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "vertices: 60" in out
        assert "edges: 120" in out
        assert "out-degree: 2" in out
        assert "cycle-length: 240" in out
        assert "feasibility: guaranteed (coprime-overlap)" in out

    def test_unknown_stats(self, capsys):
        main(["stats", "--n", "6", "--k", "6", "--s", "4"])
        assert "feasibility: unknown" in capsys.readouterr().out

    def test_kperm_stats(self, capsys):
        main(["stats", "--n", "6", "--k", "4", "--s", "2"])
        out = capsys.readouterr().out
        assert "edges: 360" in out
        assert "feasibility: guaranteed (proper-kperm)" in out


class TestPath:
    def test_identity_path(self, capsys):
        assert main(["path", "--n", "5", "--k", "4", "--s", "2", "--from", "12"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "steps: 0" in out
        assert "replay: ok" in out

    def test_rotation_path(self, capsys):
        assert main(["path", "--n", "5", "--k", "4", "--s", "2", "--from", "34"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "replay: ok" in out

    def test_comma_vertex(self, capsys):
        assert main(["path", "--n", "7", "--k", "6", "--s", "4", "--from", "2,1,4,3"]) == EXIT_OK
        assert "replay: ok" in capsys.readouterr().out

    def test_invalid_vertex(self):
        assert main(["path", "--n", "5", "--k", "4", "--s", "2", "--from", "99"]) == EXIT_IOFMT

    def test_unreachable_vertex(self):
        # disconnected unknown instance: no certificate exists
        assert main(["path", "--n", "4", "--k", "4", "--s", "2", "--from", "13"]) == EXIT_INCOMPLETE


class TestOracle:
    def test_witness(self, capsys):
        assert main(["oracle", "--n", "3", "--k", "2", "--s", "1"]) == EXIT_OK
        assert "witness" in capsys.readouterr().out

    def test_no_cycle(self, capsys):
        assert main(["oracle", "--n", "4", "--k", "4", "--s", "3"]) == EXIT_INFEASIBLE
        assert "no hamilton cycle" in capsys.readouterr().out

    def test_witness_4_3_2(self):
        assert main(["oracle", "--n", "4", "--k", "3", "--s", "2"]) == EXIT_OK

    def test_cap(self):
        assert main(["oracle", "--n", "5", "--k", "4", "--s", "2"]) == EXIT_LIMIT

    def test_exhausted(self):
        assert main(["oracle", "--n", "5", "--k", "3", "--s", "1", "--budget", "2"]) == EXIT_INCOMPLETE

    @pytest.mark.parametrize("n", ["1000", "10000"])
    def test_cap_checked_before_enumerating(self, n, capsys):
        # 999,000 and 99,990,000 objects: the cap must refuse them without
        # listing them, and name the oracle's own limit, not the edge limit
        t0 = time.perf_counter()
        assert main(["oracle", "--n", n, "--k", "2", "--s", "1"]) == EXIT_LIMIT
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"oracle took {elapsed:.2f}s to reject n = {n}"
        assert "above the limit of 60" in capsys.readouterr().err


class TestDocumentRoundTrip:
    def test_byte_identity(self):
        p = validate_params(n=4, k=3, s=1)
        from ocycles import build_graph, euler_tour, tour_to_cycle

        cycle = tour_to_cycle(euler_tour(build_graph(p)))
        text = emit_document(cycle)
        parsed = parse_text(text)
        assert emit_document(OverlapCycle(parsed.symbols, parsed.params)) == text

    def test_list_round_trip(self):
        p = validate_params(multiset=(1, 1, 2, 3), s=1)
        from ocycles import build_graph, euler_tour, tour_to_cycle

        tour = euler_tour(build_graph(p))
        cycle = tour_to_cycle(tour)
        text = emit_list(tour)
        parsed = parse_text(text)
        assert parsed.fmt == "list"
        assert parsed.params == p
        rebuilt = []
        for w in parsed.words:
            rebuilt.extend(w[: p.k - p.s])
        assert tuple(rebuilt) == cycle.symbols

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=10, k=2, s=1), dict(n=10, k=3, s=1), dict(multiset=(1, 1, 2, 3), s=1),
         dict(multiset=(2, 4, 4), s=1)],
    )
    def test_emit_matches_str_join(self, kwargs):
        # two-digit symbols, and a multiset whose largest symbol is n
        p = validate_params(**kwargs)
        from ocycles import build_graph, euler_tour, tour_to_cycle

        cycle = tour_to_cycle(euler_tour(build_graph(p)))
        assert p.n in cycle.symbols
        text = emit_document(cycle)
        assert text.endswith("\n" + " ".join(str(x) for x in cycle.symbols) + "\n")

    @pytest.mark.parametrize(
        "body", ["03 +3 -1 3", "\t1  02\t+3 ", "10 010 +10 -0 0", "1_0 2 3"]
    )
    def test_whitespace_tokens_parse_as_int(self, body):
        parsed = parse_text(body + "\n")
        assert parsed.symbols == tuple(int(t) for t in body.split())

    def test_header_count_mismatch_rejected(self):
        p = validate_params(n=3, k=2, s=1)
        cycle = OverlapCycle((1, 2, 1, 3, 2, 3), p)
        text = emit_document(cycle).replace("# length 6", "# length 8")
        with pytest.raises(DocumentError, match="length"):
            parse_text(text)


def test_console_entry_point_runs():
    # run the package under test, wherever pytest found it
    env = {**os.environ, "PYTHONPATH": str(Path(ocycles.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ocycles.cli", "stats", "--n", "4", "--k", "3", "--s", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "edges: 24" in proc.stdout


SMALL_INT = st.integers(min_value=-2, max_value=8).map(str)
INT_LIST = st.lists(st.integers(min_value=-2, max_value=8), max_size=7).map(
    lambda xs: ",".join(map(str, xs))
)


@st.composite
def valid_nks(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=2, max_value=n))
    return str(n), str(k), str(draw(st.integers(min_value=1, max_value=k - 1)))


@st.composite
def cli_argv(draw, doc_path, out_path):
    command = draw(st.sampled_from(["gen", "verify", "stats", "oracle", "path"]))
    argv = [command]
    if command == "verify":
        missing, directory = doc_path + ".missing", str(Path(doc_path).parent)
        argv.append(draw(st.sampled_from([doc_path, doc_path, doc_path, missing, directory])))
    # half the examples carry a valid (n, k, s), so they get past the
    # parameter checks into the subcommand itself
    if draw(st.booleans()):
        for flag, value in zip(("--n", "--k", "--s"), draw(valid_nks())):
            argv += [flag, value]
        flags = {}
    else:
        flags = {"--n": SMALL_INT, "--k": SMALL_INT, "--s": SMALL_INT}
    flags["--multiset"] = INT_LIST
    own = {
        "gen": {
            "--limit": SMALL_INT,
            "--format": st.sampled_from(["string", "list", "csv"]),
            "--out": st.sampled_from([out_path, str(Path(out_path).parent)]),
        },
        "path": {"--from": st.one_of(INT_LIST, SMALL_INT)},
        # always a budget, so no example runs a default 5,000,000-node search
        "oracle": {"--budget": SMALL_INT},
    }
    for flag, strategy in {**flags, **own.get(command, {})}.items():
        if flag in ("--from", "--budget") or draw(st.booleans()):
            argv += [flag, draw(strategy)]
    # now and then a flag the subcommand does not take
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        argv += [draw(st.sampled_from(["--budget", "--from", "--limit", "--bogus"])), draw(SMALL_INT)]
    return argv


DOCUMENT_TEXT = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="0123456789 ,#\n-+", max_size=200),
    st.lists(
        st.sampled_from(
            ["# format string", "# format list", "# mode kperm", "# mode multiset",
             "# n 3", "# k 2", "# s 1", "# multiset 1,1,2", "# objects 6", "# length 6",
             "# length x", "1 2 1 3 2 3", "12", "1,2", "2,1", "0 9", "abc", ""]
        ),
        max_size=8,
    ).map("\n".join),
)

# a document as saved: UTF-8, another encoding, or arbitrary bytes
DOCUMENT_BYTES = st.one_of(
    DOCUMENT_TEXT.map(str.encode),
    DOCUMENT_TEXT.map(lambda text: text.encode("utf-16")),
    st.binary(max_size=40),
)


class TestExitCodeFuzz:
    """Over arbitrary arguments and documents, `main` returns a documented code."""

    @given(data=st.data(), document=DOCUMENT_BYTES)
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_main_returns_documented_code(self, tmp_path, data, document):
        doc = tmp_path / "doc.txt"
        doc.write_bytes(document)
        argv = data.draw(cli_argv(str(doc), str(tmp_path / "out.txt")))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_INFEASIBLE, EXIT_INCOMPLETE, EXIT_LIMIT, EXIT_IOFMT)
