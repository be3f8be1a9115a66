import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ocycles
import ocycles.cli
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
from ocycles.core import symbol_string, validate_params
from ocycles.euler import OverlapCycle, euler_tour
from ocycles.graph import build_graph
from conftest import DATA_DIR, guaranteed_instances

FIXTURE = str(DATA_DIR / "perm5_s3_cycle.txt")

# SHA-256 of `gen --n 300 --k 2 --s 1` in each format, from before cycle
# strings were held as bytes; symbols above 255 keep the tuple form
N300_DIGESTS = {
    "string": "3634cd10f21fc90b1cea5316cb27265c4b3b65a9ee9eb31b009835895354f748",
    "list": "f2304f23d4253303473ce8a601b4672c22f27ff81783048753cd60d1d133130f",
}
# SHA-256 over `gen` in both formats for the acceptance sweep, (10,5,4) and
# the multiset 1,1,2,2,3,3,4,4,5 with s = 4, from before the tour wrote bytes
SWEEP_DOCS_DIGEST = "5555507e5bfcdc9644e80b73502079db58397e78512525223b0e9beec7962a1f"


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

    @pytest.mark.parametrize("size", [1, 7, 50, 51])
    def test_document_written_in_slices(self, tmp_path, capsys, monkeypatch, size):
        # gen and verify through files and stdout, in slices that split
        # lines, names and the last line anywhere
        monkeypatch.setattr(ocycles.cli, "_WRITE_CHARS", size)
        args = ["gen", "--n", "5", "--k", "4", "--s", "2"]
        want = "".join(f"# {i}\n" + f"{i} " * i for i in range(1, 12))
        ocycles.cli._write_output(want, str(tmp_path / "short.txt"))
        assert (tmp_path / "short.txt").read_text() == want
        ocycles.cli._write_output(want, None)
        assert capsys.readouterr().out == want
        out = tmp_path / "cycle.txt"
        assert main([*args, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == out.read_text()
        assert main(["verify", str(out), "--n", "5", "--k", "4", "--s", "2"]) == EXIT_OK

    @pytest.mark.parametrize("multiset, s, body", [("10,10", "1", "10"), ("12,12,12", "2", "12")])
    def test_one_symbol_document_verifies(self, tmp_path, multiset, s, body):
        # the body is one two-digit name, which '# length 1' keeps whole
        out = tmp_path / "cycle.txt"
        assert main(["gen", "--multiset", multiset, "--s", s, "--out", str(out)]) == EXIT_OK
        assert out.read_text().endswith(f"\n# length 1\n{body}\n")
        assert main(["verify", str(out), "--multiset", multiset, "--s", s]) == EXIT_OK

    def test_gen_list_format(self, tmp_path):
        out = tmp_path / "cycle.txt"
        assert main([
            "gen", "--n", "4", "--k", "3", "--s", "1", "--format", "list", "--out", str(out),
        ]) == EXIT_OK
        parsed = parse_text(out.read_text())
        assert parsed.fmt == "list"
        assert len(parsed.words) == 24
        assert main(["verify", str(out), "--n", "4", "--k", "3", "--s", "1"]) == EXIT_OK

    @pytest.mark.parametrize("n, k, s", [(12, 3, 1), (300, 2, 1)])
    def test_wide_list_verifies_as_its_string(self, tmp_path, capsys, n, k, s):
        # names above 10, and above 255 at n = 300 (a tuple string), in a
        # list body: the report is the string document's
        args = ["--n", str(n), "--k", str(k), "--s", str(s)]
        reports = {}
        for fmt in ("string", "list"):
            out = tmp_path / f"{fmt}.txt"
            assert main(["gen", *args, "--format", fmt, "--out", str(out)]) == EXIT_OK
            capsys.readouterr()
            assert main(["verify", str(out), *args]) == EXIT_OK
            reports[fmt] = capsys.readouterr().out
        assert reports["list"] == reports["string"]
        # the last word written over by another
        lines = (tmp_path / "list.txt").read_text().splitlines()
        lines[-1] = lines[-5]
        (tmp_path / "list.txt").write_text("\n".join([*lines, ""]))
        assert main(["verify", str(tmp_path / "list.txt"), *args]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "\nduplicates: 1\nmissing: 1\n" in out

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


class TestParserReuse:
    """`main` builds the parser on its first call and reuses it after."""

    def test_built_lazily_and_once(self):
        # a fresh interpreter: nothing built at import, one build for many calls
        script = textwrap.dedent(
            """
            import contextlib, io
            from ocycles.cli import build_parser, main
            print(build_parser.cache_info().currsize)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [
                    main(["stats", "--n", "4", "--k", "3", "--s", "2"]),
                    main(["--help"]),
                    main(["gen", "--n", "3"]),
                    main(["oracle", "--n", "3", "--k", "3", "--s", "2"]),
                ]
            print(build_parser.cache_info().misses, *codes)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ocycles.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1", "0", "0", str(EXIT_IOFMT), "3"]

    def test_reuse_carries_no_state(self, tmp_path, monkeypatch, capsys):
        # usage errors and help between normal calls: every call's exit code,
        # stdout and stderr equal those with a parser built per call
        doc = str(tmp_path / "cycle.txt")
        params = ["--n", "5", "--k", "4", "--s", "2"]
        calls = [
            ["gen", *params, "--bogus"],
            ["gen", *params, "--out", doc],
            ["verify", doc, "--n", "5", "--k", "4"],
            ["verify", doc, *params],
            ["gen", *params, "--format", "xml"],
            ["gen", *params, "--format", "list"],
            ["--help"],
            ["stats", *params],
            ["path", *params, "--from", "34"],
            ["gen", "--help"],
            ["oracle", "--n", "4", "--k", "4", "--s", "3"],
            ["gen", *params],
        ]

        def run_all():
            results = []
            for argv in calls:
                code = main(argv)
                results.append((code, *capsys.readouterr()))
            return results

        reused = run_all()
        with monkeypatch.context() as m:
            m.setattr(ocycles.cli, "build_parser", ocycles.cli.build_parser.__wrapped__)
            fresh = run_all()
        assert [code for code, _, _ in reused] == [6, 0, 6, 0, 6, 0, 0, 0, 0, 0, 3, 0]
        assert reused == fresh


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

    def test_bad_token_in_a_long_body_gives_a_short_error(self, tmp_path, capsys):
        # the error names the token and where it sits, not the whole body line
        out = tmp_path / "cycle.txt"
        assert main(["gen", "--n", "8", "--k", "8", "--s", "3", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        body = lines[-1]
        cut = body.index(" ", len(body) // 2)
        lines[-1] = body[:cut] + " x" + body[cut:]
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(out), "--n", "8", "--k", "8", "--s", "3"]) == EXIT_IOFMT
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse symbols")
        assert "'x'" in err and f"character {cut + 2} " in err
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize(
        "body, token, at",
        [
            ("1,2, 3x ,4", "3x", 6),  # comma-separated
            ("1 2 1 3 x 3", "x", 9),  # whitespace pieces
            ("121a23", "a", 4),  # packed
            ("1,2,3\n4,y,6", "y", 3),  # a list document: the second line
            ("# format list\n\n1,2,3\n4,y,6", "y", 3),  # headers and blanks count
            ("# format list\n   1 x", "x", 6),  # leading blanks count
            ("\t 1,2, 3x", "3x", 8),  # in a string body too
            ("1,,2, ,y ,3", "y", 8),  # blank fields are not tokens
            (" 1 , ,  3x  ,4", "3x", 9),  # a padded token is named stripped
            ("# format list\n1,2,3\n4,,x , 6", "x", 4),
            ("1,2 3,x", "2 3", 3),  # a comma token may hold a space
            ("1 y 2 x 3 y", "y", 3),  # the first bad token, not the first seen
            ("1 2 x 3 y x", "x", 5),
            ("12x4x", "x", 3),
        ],
    )
    def test_parse_error_names_first_bad_token(self, body, token, at):
        # the error names the document line that holds the token
        line = next(i for i, text in enumerate(body.split("\n"), 1) if token in text)
        with pytest.raises(DocumentError) as e:
            parse_text(body + "\n")
        assert str(e.value) == f"cannot parse symbols: {token!r} at character {at} of line {line}"

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

    def test_unknown_mode_header_rejected(self, tmp_path, capsys):
        # a valid (3,2,1) cycle, but the mode is neither kperm nor multiset
        doc = tmp_path / "cycle.txt"
        doc.write_text("# mode bogus\n# n 3\n# k 2\n# s 1\n1 2 1 3 2 3\n")
        assert main(["verify", str(doc), "--n", "3", "--k", "2", "--s", "1"]) == EXIT_IOFMT
        assert capsys.readouterr().err == "error: bad document header: 'bogus' is not a valid Mode\n"

    @pytest.mark.parametrize(
        "mode, missing",
        [("kperm", "n"), ("kperm", "k"), ("multiset", "multiset")],
    )
    def test_missing_instance_header_named(self, mode, missing):
        headers = {"n": "3", "k": "2", "multiset": "1,2,3"}
        del headers[missing]
        head = "".join(f"# {key} {value}\n" for key, value in headers.items())
        with pytest.raises(DocumentError) as e:
            parse_text(f"# mode {mode}\n# s 1\n{head}1 2 1 3 2 3\n")
        assert str(e.value) == f"bad document header: no {missing} header"


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

    def test_one_object_witness(self, capsys):
        assert main(["oracle", "--multiset", "1,1,1", "--s", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "witness (1 objects, 1 nodes searched)\n1,1,1\n"

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


# 2000! objects, a count of 5,736 digits: more than str() converts
UNPRINTABLE = ["--n", "2000", "--k", "2000", "--s", "1"]


class TestCountTooLongToPrint:
    @pytest.mark.parametrize("command", ["gen", "stats", "oracle"])
    def test_limit_names_the_magnitude(self, command, capsys):
        assert main([command, *UNPRINTABLE]) == EXIT_LIMIT
        assert "instance has about 10^5735 objects, above the limit" in capsys.readouterr().err

    def test_path_search_limit_names_the_magnitude(self, capsys):
        # s = 1000 of k = n = 2000 is the breadth-first search's regime
        origin = ",".join(map(str, range(1, 1001)))
        argv = ["path", "--n", "2000", "--k", "2000", "--s", "1000", "--from", origin]
        assert main(argv) == EXIT_LIMIT
        assert "instance has about 10^5735 objects, above the limit" in capsys.readouterr().err

    def test_verify_reports_the_magnitude_missing(self, tmp_path, capsys):
        doc = tmp_path / "cycle.txt"
        doc.write_text("1 2 3\n")
        assert main(["verify", str(doc), *UNPRINTABLE]) == EXIT_INVALID
        assert "missing: about 10^5735\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gen", "stats", "oracle", "verify"])
    def test_k_above_the_largest_index_is_a_bad_parameter(self, tmp_path, capsys, command):
        doc = tmp_path / "cycle.txt"
        doc.write_text("1 2 3\n")
        k = str(2**63)
        argv = [command, *([str(doc)] if command == "verify" else []), "--n", k, "--k", k]
        assert main([*argv, "--s", "1"]) == EXIT_IOFMT
        assert capsys.readouterr().err == f"error: k must be at most {sys.maxsize}\n"


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
        assert tuple(rebuilt) == tuple(cycle.symbols)

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

    @pytest.mark.parametrize("n", [1, 9, 10, 99, 100, 254, 255])
    @pytest.mark.parametrize("length", [1, 1 << 14, (1 << 14) + 1, (1 << 15) + 7])
    def test_emit_columns_match_str_join(self, n, length):
        # a bytes string is named in columns, a tuple string one str per
        # symbol: the documents must be equal, with 0 and n at the piece cut
        p = validate_params(multiset=(1, 1), s=1) if n == 1 else validate_params(n=n, k=2, s=1)
        rng = random.Random(n * length)
        symbols = bytearray(rng.randrange(n + 1) for _ in range(length))
        for at, x in ((length // 2, n), ((1 << 14) - 1, 0), (1 << 14, n)):
            if at < length:
                symbols[at] = x
        symbols = bytes(symbols)
        text = emit_document(OverlapCycle(symbols, p))
        assert text == emit_document(OverlapCycle(tuple(symbols), p))
        assert text.endswith("\n" + " ".join(map(str, symbols)) + "\n")
        assert parse_text(text).symbols == symbols
        if n < 255:
            with pytest.raises(KeyError):
                emit_document(OverlapCycle(symbols[:-1] + bytes([n + 1]), p))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_emit_list_columns_match_str_join(self, data):
        # a bytes cycle's words are laid out by columns and named in C, a
        # tuple cycle's joined one str per symbol: the documents must be
        # equal, also for short strings whose last words wrap more than once
        n = data.draw(st.sampled_from([2, 9, 10, 11, 99, 100, 255]))
        k = data.draw(st.integers(2, min(n, 6)))
        p = validate_params(n=n, k=k, s=data.draw(st.integers(1, k - 1)))
        size = data.draw(st.integers(1, 8)) * (p.k - p.s)
        symbols = bytes(data.draw(st.lists(st.integers(0, n), min_size=size, max_size=size)))
        text = emit_list(OverlapCycle(symbols, p))
        assert text == emit_list(OverlapCycle(tuple(symbols), p))
        words = OverlapCycle(symbols, p).edges
        assert text.endswith("".join(",".join(map(str, w)) + "\n" for w in words))

    def test_byte_cycles_are_named_in_columns(self, monkeypatch):
        # emit_list lays a bytes cycle's words out in a bytearray, which the
        # namer must take down the translate path: the per-symbol join gives
        # the same document about ten times slower.  A tuple cycle is joined
        columns = []
        name_columns = ocycles.cli._name_columns

        def recorded(n):
            columns.append(n)
            return name_columns(n)

        monkeypatch.setattr(ocycles.cli, "_name_columns", recorded)
        p = validate_params(n=5, k=3, s=1)
        symbols = bytes(range(1, 6)) * 12
        for emit in (emit_document, emit_list):
            columns.clear()
            text = emit(OverlapCycle(symbols, p))
            assert columns == [5]
            assert emit(OverlapCycle(tuple(symbols), p)) == text and columns == [5]

    def test_empty_cycle(self):
        # no generator makes one, but both emitters write its headers: the
        # string document with an empty body line, the list with no line
        p = validate_params(n=3, k=2, s=1)
        for symbols in (b"", ()):
            assert emit_document(OverlapCycle(symbols, p)).endswith("# length 0\n\n")
            assert emit_list(OverlapCycle(symbols, p)).endswith("# objects 0\n# length 0\n")

    @pytest.mark.parametrize("k, s", [(2, 1), (5, 4), (6, 3), (6, 1), (5, 2)])
    def test_emit_list_of_short_cycles(self, k, s):
        # the last words wrap onto the start, more than once where the
        # string is shorter than a word
        p = validate_params(n=9, k=k, s=s)
        for windows in range(1, 6):
            symbols = bytes(i % 10 for i in range(windows * (k - s)))
            text = emit_list(OverlapCycle(symbols, p))
            assert text == emit_list(OverlapCycle(tuple(symbols), p))

    @pytest.mark.parametrize("n, k, s", [(100, 3, 1), (9, 7, 2), (255, 2, 1)])
    def test_emit_list_in_blocks_matches_str_join(self, n, k, s):
        # more than one block of about 16,384 symbols, with 0 and n in it
        p = validate_params(n=n, k=k, s=s)
        rng = random.Random(n * k)
        size = ((1 << 15) + 7) * (k - s)
        symbols = bytes([0, n]) + bytes(rng.randrange(n + 1) for _ in range(size - 2))
        text = emit_list(OverlapCycle(symbols, p))
        assert text == emit_list(OverlapCycle(tuple(symbols), p))
        if n < 255:
            with pytest.raises(KeyError):
                emit_list(OverlapCycle(symbols[:-1] + bytes([n + 1]), p))

    @pytest.mark.parametrize(
        "body", ["03 +3 -1 3", "\t1  02\t+3 ", "10 010 +10 -0 0", "1_0 2 3"]
    )
    def test_whitespace_tokens_parse_as_int(self, body):
        parsed = parse_text(body + "\n")
        assert tuple(parsed.symbols) == tuple(int(t) for t in body.split())

    def test_sweep_documents_are_pinned(self, tmp_path):
        instances = guaranteed_instances(7) + [
            validate_params(n=10, k=5, s=4),
            validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4),
        ]
        out = tmp_path / "doc.txt"
        h = hashlib.sha256()
        with contextlib.redirect_stderr(io.StringIO()):
            for p in instances:
                if p.multiset is None:
                    argv = ["--n", str(p.n), "--k", str(p.k), "--s", str(p.s)]
                else:
                    argv = ["--multiset", ",".join(map(str, p.multiset)), "--s", str(p.s)]
                for fmt in ("string", "list"):
                    assert main(["gen", *argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
                    h.update(out.read_bytes())
        assert h.hexdigest() == SWEEP_DOCS_DIGEST

    def test_n300_gen_verify_parse_emit(self, tmp_path, capsys):
        argv = ["--n", "300", "--k", "2", "--s", "1"]
        texts = {}
        for fmt, digest in N300_DIGESTS.items():
            out = tmp_path / f"{fmt}.txt"
            assert main(["gen", *argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
            texts[fmt] = out.read_text()
            assert hashlib.sha256(texts[fmt].encode()).hexdigest() == digest
            assert main(["verify", str(out), *argv]) == EXIT_OK
            assert "valid: yes" in capsys.readouterr().out
        parsed = parse_text(texts["string"])
        assert type(parsed.symbols) is tuple
        assert emit_document(OverlapCycle(parsed.symbols, parsed.params)) == texts["string"]

    @pytest.mark.parametrize(
        "body, form",
        [("1 2 1 3 2 3", bytes), ("1 2 1\n3 2 3", bytes), ("0 255", bytes),
         ("1 2 256", tuple), ("1 2\n-1 3", tuple),
         ("10 " * 30_000 + "255", bytes), ("10 " * 30_000 + "256", tuple),
         pytest.param("10," * 30_000 + "255", bytes, id="comma-90kB-bytes"),
         pytest.param("10, " * 22_500 + "256", tuple, id="comma-90kB-tuple"),
         pytest.param("1234567" * 13_000, bytes, id="packed-91kB-bytes")],
    )
    def test_string_body_form(self, body, form):
        # one byte per symbol when every symbol fits, one-line or multi-line;
        # the 90 kB lines are parsed in pieces, one cut inside a token
        parsed = parse_text("# format string\n" + body + "\n")
        assert type(parsed.symbols) is form
        tokens = [
            t
            for line in body.split("\n")
            for t in (line.split(",") if "," in line else line.split() if " " in line else line)
        ]
        assert tuple(parsed.symbols) == tuple(map(int, tokens))

    def test_emitters_take_the_tour(self):
        # what euler_tour returns goes straight to either emitter, and the
        # bytes are gen's: the sweep pin and the n = 300 pins
        from ocycles import build_graph, euler_tour, tour_to_cycle

        instances = guaranteed_instances(7) + [
            validate_params(n=10, k=5, s=4),
            validate_params(multiset=(1, 1, 2, 2, 3, 3, 4, 4, 5), s=4),
        ]
        h = hashlib.sha256()
        for p in instances:
            cycle = euler_tour(build_graph(p))
            assert tour_to_cycle(cycle) is cycle
            h.update(emit_document(cycle).encode())
            h.update(emit_list(cycle).encode())
        assert h.hexdigest() == SWEEP_DOCS_DIGEST
        cycle = euler_tour(build_graph(validate_params(n=300, k=2, s=1)))
        for fmt, emit in (("string", emit_document), ("list", emit_list)):
            assert hashlib.sha256(emit(cycle).encode()).hexdigest() == N300_DIGESTS[fmt]

    def test_emit_partial_tour(self):
        from ocycles import build_graph, euler_tour
        from ocycles.euler import TourIncomplete

        p = validate_params(n=4, k=4, s=2)
        with pytest.raises(TourIncomplete) as e:
            euler_tour(build_graph(p))
        partial = e.value.partial
        string, listed = parse_text(emit_document(partial)), parse_text(emit_list(partial))
        assert string.params == listed.params == p
        assert string.symbols == partial.symbols
        assert list(listed.words) == list(partial.edges)
        assert len(listed.words) == partial.object_count == e.value.used

    @pytest.mark.parametrize(
        "text, symbols",
        [("10\n", (1, 0)), ("# length 1\n10\n", (10,)), ("# length 2\n10\n", (1, 0)),
         ("# length 1\n300\n", (300,)), ("# length 1\n 7 \n", (7,))],
    )
    def test_length_one_header_reads_one_symbol(self, text, symbols):
        # without it a lone line of digits stays packed, one symbol per digit
        assert tuple(parse_text(text).symbols) == symbols

    def test_header_count_mismatch_rejected(self):
        p = validate_params(n=3, k=2, s=1)
        cycle = OverlapCycle((1, 2, 1, 3, 2, 3), p)
        text = emit_document(cycle).replace("# length 6", "# length 8")
        with pytest.raises(DocumentError, match="length"):
            parse_text(text)

    @pytest.mark.parametrize(
        "header, error",
        [("objects 5", "header declares 5 objects, body has 2"),
         ("length abc", "bad document header: invalid literal for int() with base 10: 'abc'")],
    )
    def test_list_count_headers_checked_without_an_instance(self, header, error):
        # no mode or s header, so there is no instance to count symbols by,
        # but the objects are counted and both headers must be integers
        with pytest.raises(DocumentError) as e:
            parse_text(f"# format list\n# {header}\n1,2\n2,1\n")
        assert str(e.value) == error

    def test_list_objects_header_without_an_instance(self):
        parsed = parse_text("# format list\n# objects 2\n1,2\n2,1\n")
        assert (parsed.fmt, parsed.params, list(parsed.words)) == ("list", None, [(1, 2), (2, 1)])

    def test_verify_rejects_a_wrong_objects_header_without_an_instance(self, tmp_path, capsys):
        doc = tmp_path / "list.txt"
        doc.write_text("# format list\n# objects 5\n1,2\n2,1\n")
        assert main(["verify", str(doc), "--n", "2", "--k", "2", "--s", "1"]) == EXIT_IOFMT
        assert capsys.readouterr().err == "error: header declares 5 objects, body has 2\n"


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



class TestVerifyStdin:
    """``verify -`` reads the document from stdin, with the report and exit
    code it gives from a file.  pytest's captured stdin raises on read, so
    the CLI runs in subprocesses here."""

    PARAMS = ["--n", "6", "--k", "4", "--s", "2"]

    def cli(self, *args, stdin=None):
        env = {**os.environ, "PYTHONPATH": str(Path(ocycles.__file__).parents[1])}
        command = [sys.executable, "-m", "ocycles.cli", *args, *self.PARAMS]
        return subprocess.Popen(command, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    def verify(self, source, data=None):
        proc = self.cli("verify", source, stdin=None if data is None else subprocess.PIPE)
        out, err = proc.communicate(data)
        return proc.returncode, out, err

    def test_gen_piped_into_verify(self, tmp_path):
        gen = self.cli("gen")
        verify = self.cli("verify", "-", stdin=gen.stdout)
        gen.stdout.close()  # verify holds the read end
        out, err = verify.communicate()
        assert gen.wait() == EXIT_OK and verify.returncode == EXIT_OK, err
        doc = tmp_path / "cycle.txt"
        doc.write_bytes(self.cli("gen").communicate()[0])
        assert out.decode().startswith("valid: yes\nobjects: 360\n")
        assert self.verify(str(doc)) == (EXIT_OK, out, b"")

    def test_tampered_document(self, tmp_path):
        lines = self.cli("gen").communicate()[0].decode().splitlines()
        body = lines[-1].split(" ")
        body[3], body[40] = body[40], body[3]
        text = "\r\n".join([*lines[:-1], " ".join(body), ""])  # newlines read as in a file
        doc = tmp_path / "bad.txt"
        doc.write_bytes(text.encode())
        code, out, _ = self.verify("-", text.encode())
        assert code == EXIT_INVALID and out.startswith(b"valid: no\n")
        assert b"invalid-words: 3\n" in out
        assert self.verify(str(doc)) == (code, out, b"")

    def test_non_utf8_input(self):
        code, out, err = self.verify("-", "1 2 1 3 2 3\n".encode("utf-16"))
        assert (code, out) == (EXIT_IOFMT, b"")
        assert err.startswith(b"error: stdin is not UTF-8 text")


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


# A copy of the body reader from before one function decided a line's split
# rule: three branches per line, and a whitespace-only piece loop.  The
# reader now must give the same symbols, form and words, and the same error
# text but for naming the line.
def _old_bad_token(line, start=0, end=None):
    if "," in line:
        token = re.compile(r"[^,\s](?:[^,]*[^,\s])?")
    elif any(c.isspace() for c in line):
        token = re.compile(r"\S+")
    else:
        token = re.compile(r".")
    for m in token.finditer(line, start, len(line) if end is None else end):
        try:
            int(m.group())
        except ValueError:
            shown = m.group() if len(m.group()) <= 20 else m.group()[:20] + "..."
            return DocumentError(
                f"cannot parse symbols: {shown!r} at character {m.start() + 1} of the line"
            )
    return DocumentError("cannot parse symbols")


def _old_parse_symbol_line(line):
    line = line.strip()
    try:
        if "," in line:
            return tuple(int(t) for t in line.split(",") if t.strip() != "")
        if any(c.isspace() for c in line):
            tokens = line.split()
            table = {t: int(t) for t in set(tokens)}
            return tuple(map(table.__getitem__, tokens))
        return tuple(int(c) for c in line)
    except ValueError as exc:
        raise _old_bad_token(line) from exc


def _old_string_line(line):
    if "," in line or not any(c.isspace() for c in line):
        yield symbol_string(_old_parse_symbol_line(line))
        return
    start = 0
    while start < len(line):
        cut = re.compile(r"\s").search(line, start + (1 << 16))
        end = cut.start() if cut else len(line)
        tokens = line[start:end].split()
        try:
            table = {t: int(t) for t in set(tokens)}
        except ValueError as exc:
            raise _old_bad_token(line, start, end) from exc
        try:
            piece = bytes(map(table.__getitem__, tokens))
        except ValueError:
            piece = tuple(map(table.__getitem__, tokens))
        yield piece
        start = end


def _old_read(text):
    """(format, symbols, words) as the old reader gave them, or the error
    text it gave with the document line of the bad token filled in and its
    character counted from the start of the unstripped line."""
    body = []
    fmt = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("# format "):
            fmt = fmt or line.split()[2]
        elif line and not line.startswith("#"):
            body.append((number, len(raw) - len(raw.lstrip()), line))
    fmt = fmt or ("string" if len(body) == 1 else "list")
    number = lead = None
    try:
        if fmt == "string":
            pieces = []
            for number, lead, line in body:
                pieces.extend(_old_string_line(line))
            try:
                return fmt, b"".join(pieces), None
            except TypeError:
                return fmt, tuple(x for piece in pieces for x in piece), None
        words = []
        for number, lead, line in body:
            words.append(_old_parse_symbol_line(line))
        return fmt, None, tuple(words)
    except DocumentError as exc:
        text = re.sub(r"character (\d+)", lambda m: f"character {int(m[1]) + lead}", str(exc))
        return text.replace(" of the line", f" of line {number}")


def _read(text):
    try:
        parsed = parse_text(text)
    except DocumentError as exc:
        return str(exc)
    # list words may be a view over one byte string; compare them as tuples
    words = None if parsed.words is None else tuple(parsed.words)
    return parsed.fmt, parsed.symbols, words


# short body lines split each of the three ways: digits (also non-ASCII
# ones), signs, underscores, commas, blanks of several kinds and a bad
# letter; long runs of digits make symbols above 255
BODY_LINE = st.text(alphabet="0123456789\u0663 ,\t\xa0\u3000-+_x", max_size=24)
DOCUMENT_LINES = st.lists(
    st.one_of(BODY_LINE, BODY_LINE, st.sampled_from(["", "  ", "# note", "# n 3"])),
    max_size=6,
)
FORMAT_LINE = st.sampled_from([[], ["# format string"], ["# format list"]])


@st.composite
def long_body_line(draw):
    """A line of 70 to 140 kB in one split form, with perhaps a bad token at
    or next to the first 64 kB piece cut."""
    separator = draw(st.sampled_from([" ", ",", ", ", " ,", "\t", "  ", ""]))
    symbols = ["0", "1", "7"] if separator == "" else ["1", "10", "255", "256", "-1", "+3", "007"]
    unit = separator.join(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=4)))
    line = (unit + separator) * (draw(st.integers(70_000, 140_000)) // (len(unit) + len(separator)))
    if draw(st.booleans()):
        at = draw(st.integers(-4, 4)) + (1 << 16)
        bad = draw(st.sampled_from(["x", "+", "1x"] if separator == "" else ["x", "+", "1x", "2 2"]))
        line = line[:at] + bad + line[at:]
    return line


# names 1..10 between single spaces is the form that a string body's spaced
# pieces are read in without a token per symbol; these lines are that form
# with perhaps a near miss: a name of 0, 100, 010, +1, 01, 11, 23 or 1x; 10
# at the start of a line; a double space, a tab, a no-break or ideographic
# space; a non-ASCII character, \x80 among them, which is what a name 10 is
# folded to; or a blank at either end
SPACED_NAME = st.sampled_from([*"123456789", "10", "10"])
NEAR_NAME = st.sampled_from(
    ["0", "100", "010", "+1", "01", "11", "23", "1x", "1 10 0", "\u0663", "\x80", "\xe9", "x"]
)
SPACE = st.sampled_from([" "] * 12 + ["  ", "\t", "\xa0", "\u3000"])


@st.composite
def near_spaced_line(draw):
    names = st.one_of(SPACED_NAME, SPACED_NAME, SPACED_NAME, NEAR_NAME)
    first, *rest = draw(st.lists(names, min_size=1, max_size=12))
    spaces = draw(st.lists(SPACE, min_size=len(rest), max_size=len(rest)))
    line = first + "".join(space + name for space, name in zip(spaces, rest))
    return draw(st.sampled_from(["", "", " ", "\t"])) + line + draw(st.sampled_from(["", "", " ", "\t"]))


@st.composite
def long_spaced_line(draw):
    """A spaced line of 70 to 140 kB with perhaps a near miss or a 10 just
    before or just after the first 64 kB piece cut."""
    unit = " ".join(draw(st.lists(SPACED_NAME, min_size=1, max_size=6)))
    line = " ".join([unit] * (draw(st.integers(70_000, 140_000)) // (len(unit) + 1)))
    if draw(st.booleans()):
        at = line.index(" ", (1 << 16) + draw(st.integers(-4, 4)))
        edits = [" 10", " 10 10", " 100", " 010", " 0", " +1", "  ", "\t", "\xa0", " \xe9"]
        edit = draw(st.sampled_from(edits))
        line = line[:at] + edit + line[at:]
    return line


class TestSplitRuleMatchesOldReader:
    @given(head=FORMAT_LINE, lines=DOCUMENT_LINES)
    @settings(max_examples=400, deadline=None)
    def test_short_bodies(self, head, lines):
        text = "\n".join(head + lines) + "\n"
        assert _read(text) == _old_read(text)

    @given(
        head=FORMAT_LINE,
        long=st.lists(long_body_line(), min_size=1, max_size=2),
        short=st.lists(BODY_LINE, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_long_lines_and_bad_tokens_at_piece_cuts(self, head, long, short):
        text = "\n".join(head + short + long) + "\n"
        assert _read(text) == _old_read(text)

    @given(head=FORMAT_LINE, lines=st.lists(near_spaced_line(), min_size=1, max_size=3))
    @example(head=[], lines=["10"])
    @example(head=["# format string"], lines=["1 2", "10"])
    @example(head=[], lines=["10 1 2"])
    @example(head=[], lines=["1 10 0"])
    @example(head=[], lines=["1 100 2"])
    @example(head=[], lines=["1 010 2"])
    @example(head=[], lines=["1 100"])
    @example(head=[], lines=["1 23"])
    @settings(max_examples=400, deadline=None)
    def test_spaced_bodies_near_the_fast_form(self, head, lines):
        text = "\n".join(head + lines) + "\n"
        assert _read(text) == _old_read(text)

    @given(head=FORMAT_LINE, long=long_spaced_line(), short=st.lists(near_spaced_line(), max_size=1))
    @settings(max_examples=40, deadline=None)
    def test_long_spaced_lines_at_piece_cuts(self, head, long, short):
        text = "\n".join(head + short + [long]) + "\n"
        assert _read(text) == _old_read(text)


def _parsed_or_error(text):
    try:
        return parse_text(text)
    except DocumentError as exc:
        return str(exc)


def _string_documents(p):
    """(label, text) pairs: the string document of `p` with its body split
    every 1..k symbols, each as written and with one edit that the
    one-slice reader must decline or read as the line reader does."""
    *head, body = emit_document(euler_tour(build_graph(p))).splitlines()
    names = body.split(" ")
    out = []
    for step in range(1, p.k + 1):
        lines = [" ".join(names[i : i + step]) for i in range(0, len(names), step)]
        i = len(lines) // 2

        def doc(label, body_lines, h=head, end="\n", final="\n"):
            out.append((f"every {step}, {label}", end.join([*h, *body_lines]) + final))

        doc("as written", lines)
        doc("length 1", lines, [x if not x.startswith("# length") else "# length 1" for x in head])
        doc("crlf", lines, end="\r\n", final="\r\n")
        doc("tabs", lines[:i] + ["\t" + lines[i].replace(" ", "\t")] + lines[i + 1 :])
        doc("a trailing space", lines[:i] + [lines[i] + " "] + lines[i + 1 :])
        doc("a leading space", lines[:i] + [" " + lines[i]] + lines[i + 1 :])
        doc("a blank line", lines[:i] + [""] + lines[i:])
        doc("a comment line", lines[:i] + ["# a note"] + lines[i:])
        for name in ("0", "11", "x"):
            replaced = " ".join([name, *lines[i].split(" ")[1:]])
            doc(f"a name {name}", lines[:i] + [replaced] + lines[i + 1 :])
        doc("no final newline", lines, final="")
    return out


class TestMultiLineStringBody:
    """A string body of more than one line is read as one slice, its
    newlines read as spaces; whatever it reads or declines, the parse and
    the error are those of the line reader."""

    @staticmethod
    def both_readers(monkeypatch, text):
        """The parse or error text with the slice and with the line reader
        alone, which must agree, and whether the slice read the body."""
        read = ocycles.cli._text_string
        taken = []

        def spy(*args):
            symbols = read(*args)
            taken.append(symbols is not None)
            return symbols

        with monkeypatch.context() as patched:
            patched.setattr(ocycles.cli, "_text_string", spy)
            sliced = _parsed_or_error(text)
            patched.setattr(ocycles.cli, "_text_string", lambda *args: None)
            assert _parsed_or_error(text) == sliced
        return taken == [True]

    @pytest.mark.parametrize(
        "kwargs", [dict(n=10, k=3, s=1), dict(n=6, k=4, s=2)], ids=["10-3-1", "6-4-2"]
    )
    def test_split_bodies(self, monkeypatch, kwargs):
        p = validate_params(**kwargs)
        taken = {}
        for label, text in _string_documents(p):
            taken[label] = self.both_readers(monkeypatch, text)
        # a body of names 1..10 between single spaces and newlines is read
        # as one slice, but where a line is a bare 10, which reads as 1, 0
        assert taken == {
            label: label.endswith(("as written", "length 1", "no final newline"))
            and not (label.startswith("every 1,") and p.n >= 10)
            for label in taken
        }

    @pytest.mark.parametrize(
        "body",
        ["1 2\n10\n3 4", "10\n1 2\n3", "1 2\n3\n10", "1 2\n10", "10 1\n2 3", "1 2\n3 10"],
    )
    @pytest.mark.parametrize("length", [None, "1", "5"])
    def test_bare_tens(self, monkeypatch, body, length):
        head = "# format string\n" + (f"# length {length}\n" if length else "")
        bare = "10" in body.split("\n")
        for text in (head + body, head + body + "\n"):
            assert self.both_readers(monkeypatch, text) == (not bare)
