"""Command-line front end: gen, verify, stats, path, oracle.

Exit codes are stable: 0 ok, 2 invalid cycle or failed replay, 3 infeasible
or no cycle found, 4 incomplete tour / search budget exhausted / no path,
5 size limit exceeded, 6 bad parameters (command-line usage errors included)
or unreadable/misformatted input.

File formats (all plain text, headers prefixed with '#'):

* string format - header lines, then the cycle's symbols as space-separated
  decimal integers on one line.
* list format - header lines, then one object per line with comma-separated
  symbols.  When parsing, lines may also be whitespace-separated or, for
  single-digit symbols, packed like ``12345``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Sequence

from .connect import WalkError, find_path, replay_certificate
from .core import (
    DEFAULT_EDGE_LIMIT,
    Feasibility,
    InstanceParams,
    LimitError,
    Mode,
    ParamError,
    Word,
    feasibility,
    is_valid_vertex,
    validate_params,
)
from .euler import EulerTour, OverlapCycle, TourIncomplete, euler_tour, tour_to_cycle
from .graph import build_graph, out_degree
from .verify import (
    DEFAULT_ORACLE_BUDGET,
    OracleStatus,
    VerificationReport,
    hamilton_oracle,
    verify_cycle_string,
    verify_object_list,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_INCOMPLETE = 4
EXIT_LIMIT = 5
EXIT_IOFMT = 6


class DocumentError(ValueError):
    """A cycle document or object list fails to parse or is inconsistent."""


def _header_lines(p: InstanceParams, objects: int, fmt: str) -> list[str]:
    lines = [f"# format {fmt}", f"# mode {p.mode.value}", f"# n {p.n}", f"# k {p.k}", f"# s {p.s}"]
    if p.mode is Mode.MULTISET:
        lines.append("# multiset " + ",".join(str(x) for x in p.multiset))
    lines.append(f"# objects {objects}")
    lines.append(f"# length {objects * (p.k - p.s)}")
    return lines


def _symbol_names(p: InstanceParams) -> dict[int, str]:
    # one name per symbol value, looked up per symbol: far cheaper than str()
    return {x: str(x) for x in range(p.n + 1)}


def emit_document(cycle: OverlapCycle) -> str:
    """The string-format document; every symbol must lie in 0..n (KeyError otherwise)."""
    body = " ".join(map(_symbol_names(cycle.params).__getitem__, cycle.symbols))
    return "\n".join(_header_lines(cycle.params, cycle.object_count, "string") + [body]) + "\n"


def emit_list(tour: EulerTour) -> str:
    """The list-format document: the tour's words, one per line, in tour order."""
    name = _symbol_names(tour.params).__getitem__
    lines = _header_lines(tour.params, len(tour.edges), "list")
    lines.extend(",".join(map(name, w)) for w in tour.edges)
    return "\n".join(lines) + "\n"


def _parse_symbol_line(line: str) -> tuple[int, ...]:
    line = line.strip()
    try:
        if "," in line:
            return tuple(int(t) for t in line.split(",") if t.strip() != "")
        if any(c.isspace() for c in line):
            tokens = line.split()
            # int() once per distinct token; a long body repeats a few symbols
            table = {t: int(t) for t in set(tokens)}
            return tuple(map(table.__getitem__, tokens))
        return tuple(int(c) for c in line)
    except ValueError as exc:
        raise DocumentError(f"cannot parse symbols from line {line!r}") from exc


@dataclass(frozen=True)
class ParsedInput:
    fmt: str  # "string" | "list"
    params: InstanceParams | None
    symbols: tuple[int, ...] | None
    words: tuple[Word, ...] | None


def parse_text(text: str) -> ParsedInput:
    headers: dict[str, str] = {}
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                headers.setdefault(parts[0], parts[1])
            continue
        body.append(line)

    params: InstanceParams | None = None
    if {"mode", "s"} <= headers.keys():
        try:
            if headers["mode"] == Mode.MULTISET.value:
                syms = tuple(int(t) for t in headers["multiset"].split(","))
                params = validate_params(multiset=syms, s=int(headers["s"]))
            else:
                params = validate_params(
                    n=int(headers["n"]), k=int(headers["k"]), s=int(headers["s"])
                )
        except (KeyError, ValueError, ParamError) as exc:
            raise DocumentError(f"bad document header: {exc}") from exc

    fmt = headers.get("format") or ("string" if len(body) == 1 else "list")
    if fmt not in ("string", "list"):
        raise DocumentError(f"unknown format {fmt!r}")
    if fmt == "string":
        collected: list[int] = []
        for line in body:
            collected.extend(_parse_symbol_line(line))
        symbols = tuple(collected)
        _check_declared(headers, len(symbols), params)
        return ParsedInput("string", params, symbols, None)
    words = tuple(_parse_symbol_line(line) for line in body)
    if params is not None:
        declared_len = sum(params.k - params.s for _ in words)
        _check_declared(headers, declared_len, params, n_words=len(words))
    return ParsedInput("list", params, None, words)


def _check_declared(
    headers: dict[str, str],
    symbol_count: int,
    params: InstanceParams | None,
    n_words: int | None = None,
) -> None:
    try:
        declared = {key: int(headers[key]) for key in ("length", "objects") if key in headers}
    except ValueError as exc:
        raise DocumentError(f"bad document header: {exc}") from exc
    if declared.get("length", symbol_count) != symbol_count:
        raise DocumentError(
            f"header declares length {declared['length']}, body has {symbol_count} symbols"
        )
    if "objects" in declared and params is not None:
        stride = params.k - params.s
        actual = n_words if n_words is not None else symbol_count // stride
        if declared["objects"] != actual:
            raise DocumentError(
                f"header declares {declared['objects']} objects, body has {actual}"
            )


def _parse_multiset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParamError(f"cannot parse multiset {text!r}") from exc


def _parse_vertex(text: str) -> tuple[int, ...]:
    try:
        if "," in text:
            return tuple(int(t) for t in text.split(","))
        return tuple(int(c) for c in text)
    except ValueError as exc:
        raise ParamError(f"cannot parse vertex {text!r}") from exc


def _params_from_args(args: argparse.Namespace) -> InstanceParams:
    multiset = _parse_multiset(args.multiset) if args.multiset else None
    if multiset is not None:
        return validate_params(multiset=multiset, s=args.s, k=args.k)
    return validate_params(n=args.n, k=args.k, s=args.s)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_positive(flag: str, value: int) -> int:
    if value < 1:
        raise ParamError(f"{flag} must be positive, got {value}")
    return value


def cmd_gen(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    limit = _require_positive("--limit", args.limit)
    verdict = feasibility(params)
    print(f"feasibility: {verdict.describe()}", file=sys.stderr)
    if verdict.status is Feasibility.INFEASIBLE:
        return EXIT_INFEASIBLE
    graph = build_graph(params, limit)
    try:
        tour = euler_tour(graph)
    except TourIncomplete as exc:
        print(f"incomplete: {exc.used} of {exc.total} edges reached", file=sys.stderr)
        return EXIT_INCOMPLETE
    text = emit_document(tour_to_cycle(tour)) if args.format == "string" else emit_list(tour)
    _write_output(text, args.out)
    return EXIT_OK


def _print_report(report: VerificationReport) -> None:
    print(f"valid: {'yes' if report.valid else 'no'}")
    print(f"objects: {report.object_count}")
    print(f"length-ok: {'yes' if report.length_ok else 'no'}")
    print(f"invalid-words: {len(report.invalid_words)}")
    print(f"duplicates: {len(report.duplicates)}")
    print(f"missing: {report.missing_count}")
    print(f"overlap-violations: {len(report.overlap_violations)}")
    for w in report.invalid_words[:5]:
        print(f"  invalid word: {' '.join(str(x) for x in w)}")
    for w in report.duplicates[:5]:
        print(f"  duplicate: {' '.join(str(x) for x in w)}")
    for pos, suf, pre in report.overlap_violations[:5]:
        suf_s = " ".join(str(x) for x in suf)
        pre_s = " ".join(str(x) for x in pre)
        print(f"  overlap violation after object {pos}: suffix [{suf_s}] vs prefix [{pre_s}]")


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{args.input} is not UTF-8 text: {exc}") from exc
    parsed = parse_text(text)
    if parsed.params is not None and parsed.params != params:
        raise DocumentError(
            f"document is for ({parsed.params.describe()}), flags say ({params.describe()})"
        )
    if parsed.fmt == "string":
        report = verify_cycle_string(parsed.symbols, params)
    else:
        report = verify_object_list(parsed.words, params)
    _print_report(report)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_stats(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    g = build_graph(params)
    print(f"mode: {params.mode.value}")
    if params.mode is Mode.MULTISET:
        print("multiset: " + ",".join(str(x) for x in params.multiset))
    print(f"n: {params.n}")
    print(f"k: {params.k}")
    print(f"s: {params.s}")
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    if params.mode is Mode.KPERM:
        print(f"out-degree: {out_degree(tuple(range(1, params.s + 1)), g)}")
    print(f"cycle-length: {(params.k - params.s) * g.edge_count}")
    print(f"feasibility: {feasibility(params).describe()}")
    return EXIT_OK


def cmd_path(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    origin = _parse_vertex(getattr(args, "from"))
    if not is_valid_vertex(origin, params):
        raise ParamError(f"{origin} is not a vertex of ({params.describe()})")
    try:
        cert = find_path(origin, params)
    except WalkError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    print("origin: " + " ".join(str(x) for x in cert.origin))
    for st in cert.steps:
        word = " ".join(str(x) for x in st.edge.word)
        print(f"{st.direction.value}: {word}")
    print("terminus: " + " ".join(str(x) for x in cert.terminus))
    print(f"steps: {len(cert.steps)}")
    report = replay_certificate(cert, params)
    if report.ok:
        print("replay: ok")
        return EXIT_OK
    print(f"replay: FAILED ({report.violation})")
    return EXIT_INVALID


def cmd_oracle(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    result = hamilton_oracle(params, _require_positive("--budget", args.budget))
    if result.status is OracleStatus.WITNESS:
        print(f"witness ({len(result.cycle)} objects, {result.nodes} nodes searched)")
        for w in result.cycle:
            print(",".join(str(x) for x in w))
        return EXIT_OK
    if result.status is OracleStatus.NO_CYCLE:
        print(f"no hamilton cycle ({result.nodes} nodes searched)")
        return EXIT_INFEASIBLE
    print(f"search budget exhausted ({result.nodes} nodes)")
    return EXIT_INCOMPLETE


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="alphabet size (k-permutation mode)")
    parser.add_argument("--k", type=int, help="object length")
    parser.add_argument("--s", type=int, required=True, help="overlap length")
    parser.add_argument("--multiset", help="comma-separated symbols, e.g. 1,1,2,3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocycles",
        description="Generate and verify overlap cycles over k-permutations and multiset permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an overlap cycle")
    _add_params(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("string", "list"), default="string")
    p.add_argument("--limit", type=int, default=DEFAULT_EDGE_LIMIT, help="edge-count limit")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("verify", help="verify a cycle file")
    p.add_argument("input", help="path to a cycle document or object list")
    _add_params(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("stats", help="print instance statistics")
    _add_params(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("path", help="walk a vertex to the minimum vertex")
    _add_params(p)
    p.add_argument("--from", required=True, help="origin vertex, e.g. 3,4 or 34")
    p.set_defaults(handler=cmd_path)

    p = sub.add_parser("oracle", help="search the overlap graph for a hamilton cycle")
    _add_params(p)
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET, help="search-node budget")
    p.set_defaults(handler=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; a usage error
        # is a bad parameter here, since 2 means an invalid cycle
        return EXIT_OK if exc.code == 0 else EXIT_IOFMT
    try:
        return args.handler(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParamError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IOFMT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IOFMT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
