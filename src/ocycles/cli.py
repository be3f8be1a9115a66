"""Command-line front end: gen, verify, stats, path, oracle.

Exit codes are stable: 0 ok, 2 invalid cycle or failed replay, 3 infeasible
or no cycle found, 4 incomplete tour / search budget exhausted / no path,
5 size limit exceeded, 6 bad parameters (command-line usage errors included)
or unreadable/misformatted input.

File formats (plain text after header lines prefixed with '#'): a string
document's body is the cycle's symbols, space-separated, on one line; a list
document's is one object per line, comma-separated.  When parsing, every body
line splits at commas if it has one, else at whitespace if it has any, else
into one symbol per character (``12345``) unless the header says ``length 1``.
A string body line is read in pieces of about 64 kB, and a bad symbol is
reported by character and line.

Both formats share one writer and one reader.  ``_named`` writes either
body: in C-level byte passes (``translate`` and slice assignment) when its
symbols are bytes 0..n, else one ``str`` per symbol.  ``_separated_names``
reads names 1..10 between single separators, spaces in a string piece and
k to a line between commas in a list body, in the same kind of passes with
no object per symbol; packed list lines take one more such pass, and
``_string_line`` reads every other body a line at a time (a list body of
decimal names as one comma line), one token per symbol by the rule above.
The header block is found by one pattern match in place, and a list body
of bare lines after it, or a string body of more than one line, is read as
one slice, with no object per line; any other document is split into
lines.  ``parse_text`` alone reads and checks the headers, whichever reader
takes the body.

The argument parser is built once per process, on the first ``main`` call,
not at import.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import chain, count, islice
from typing import Callable, Iterator, NamedTuple, Sequence

from .connect import WalkError, find_path, replay_certificate
from .core import (
    DEFAULT_EDGE_LIMIT,
    Feasibility,
    InstanceParams,
    LimitError,
    Mode,
    ParamError,
    SymbolString,
    Windows,
    Word,
    count_text,
    feasibility,
    is_valid_vertex,
    validate_params,
    vertex_count,
)
from .euler import OverlapCycle, TourIncomplete, euler_tour

# not called here: perfbench/spans.py wraps this name in this module
from .euler import tour_to_cycle
from .graph import build_graph
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


def _name_columns(n: int) -> list[bytes]:
    """``translate`` tables, one per character of a name: column j maps each
    byte x <= n to character j of str(x) right-aligned in width len(str(n)),
    padded with NUL."""
    width = len(str(n))
    names = [str(x).rjust(width, "\0").encode() if x <= n else bytes(width) for x in range(256)]
    return [bytes(name[j] for name in names) for j in range(width)]


# a string body is joined and parsed a piece at a time: one join or split
# over the whole body would first list one pointer per symbol
_JOIN_SYMBOLS = 1 << 14
_SPLIT_CHARS = 1 << 16

# a document is written this many characters at a time
_WRITE_CHARS = 1 << 19


def _named(
    symbols: SymbolString | bytearray | list[int], n: int, separators: bytes
) -> Iterator[str]:
    """The names of `symbols`, each followed by the separator at its place in
    `separators`, repeated; a piece of about 16,384 symbols at a time, whole
    repeats of `separators` each.  A symbol outside 0..n raises KeyError.

    A ``bytes`` or ``bytearray`` string of symbols 0..n is named in C: a
    piece fills a ``bytearray`` of (w+1)-byte slots, w = len(str(n)), each
    ending in its separator, by one slice assignment of ``piece.translate``
    per name column.  The NULs that pad names shorter than w are deleted and
    the piece is decoded.  Any other string is joined one ``str`` per
    symbol, from tables of the names of the symbols that occur in the piece,
    each with a separator: a table of every value 0..n would grow with n,
    which for a multiset is its largest symbol, not its size.
    """
    step = max(1, _JOIN_SYMBOLS // len(separators)) * len(separators)
    pieces = (symbols[i : i + step] for i in range(0, len(symbols), step))
    in_range = bytes(range(min(n, 255) + 1))
    if not isinstance(symbols, (bytes, bytearray)) or symbols.translate(None, in_range):
        ends = separators.decode("ascii")
        for piece in pieces:
            occurring = [x for x in set(piece) if 0 <= x <= n]
            # each symbol's name with each separator, one table per place
            tables = {end: {x: str(x) + end for x in occurring} for end in set(ends)}
            places = [tables[end] for end in ends] * (len(piece) // len(ends))
            yield "".join(map(dict.__getitem__, places, piece))
        return
    columns = _name_columns(n)
    slot = len(columns) + 1
    for piece in pieces:
        named = bytearray(slot * len(piece))
        named[slot - 1 :: slot] = separators * (len(piece) // len(separators))
        for j, column in enumerate(columns):
            named[j::slot] = piece.translate(column)
        if slot > 2:
            named = named.translate(None, b"\0")
        yield named.decode("ascii")


def emit_document(cycle: OverlapCycle) -> str:
    """The string-format document; every symbol must lie in 0..n (KeyError otherwise).

    The symbols are named by ``_named``, each followed by a space, and the
    last space gives way to the final newline.  Decoding piece by piece
    keeps the traced peak at (8,8,3) at 20.4 bytes per object; one piece
    for the whole string reads 40.0.
    """
    p = cycle.params
    pieces = ["\n".join([*_header_lines(p, cycle.object_count, "string"), ""])]
    pieces += _named(cycle.symbols, p.n, b" ")
    pieces[-1] = pieces[-1].removesuffix(" ")  # the last name's separator
    return "".join([*pieces, "\n"])


def emit_list(cycle: OverlapCycle) -> str:
    """The list-format document: the cycle's words, one per line, in tour order.

    The cycle is first laid out as one string of k symbols per word, a
    ``bytearray`` for a ``bytes`` cycle and a list otherwise: column o of it
    (every word's o-th symbol) is the cycle's symbols r, r + k-s, ... for
    r = o mod (k-s), rotated on by o // (k-s) words, so the last words wrap
    onto the start.  That string is named by ``_named`` with a comma after
    each name but a word's last, which gets a newline.
    """
    p, symbols = cycle.params, cycle.symbols
    k, stride = p.k, p.k - p.s
    m = len(symbols) // stride
    words = bytearray(m * k) if isinstance(symbols, bytes) else [0] * (m * k)
    for o in range(k):
        column = symbols[o % stride :: stride]
        turn = o // stride % max(m, 1)  # the words the column is rotated on by
        words[o::k] = column[turn:] + column[:turn]
    headers = _header_lines(p, cycle.object_count, "list")
    return "".join(["\n".join([*headers, ""]), *_named(words, p.n, b"," * (k - 1) + b"\n")])


class _SplitRule(NamedTuple):
    split: Callable[[str], list[str]]  # text to its tokens
    separator: re.Pattern  # where a long line may be cut into pieces
    token: re.Pattern  # one token, to locate a bad one


# a token is the text between commas (a blank one is skipped), a run of
# non-whitespace, or one character
_COMMA_TOKEN = re.compile(r"[^,\s](?:[^,]*[^,\s])?")
_COMMA = _SplitRule(lambda t: list(filter(str.strip, t.split(","))), re.compile(","), _COMMA_TOKEN)
_WHITESPACE = _SplitRule(str.split, re.compile(r"\s"), re.compile(r"\S+"))
_PACKED = _SplitRule(list, re.compile(r"(?s)."), re.compile(r"(?s)."))


def _split_rule(line: str, one: bool = False) -> _SplitRule:
    """A body line splits at commas if it has one, else at whitespace if it
    has any or is `one` symbol, else into one symbol per character ("packed")."""
    if "," in line:
        return _COMMA
    return _WHITESPACE if one or any(map(str.isspace, line)) else _PACKED


def _bad_token(
    rule: _SplitRule, number: int, raw: str, start: int, end: int, tokens: list[str]
) -> DocumentError:
    """The parse error for line[start:end] of document line `number`, where line
    is `raw` stripped and `tokens` is its split: it names the first token there
    that int() rejects and its character in `raw`, not the (possibly huge) line.

    int() runs once per distinct token, and the first rejected token is found
    by index in C.  Its place comes from ``rule.token``, whose i-th match in
    the piece is the i-th split token, stripped: every split drops exactly
    the blank or empty text between its tokens."""
    rejected = []
    for token in set(tokens):
        try:
            int(token)
        except ValueError:
            rejected.append(token)
    first = min(map(tokens.index, rejected))
    line = raw.strip()
    m = next(islice(rule.token.finditer(line, start, end), first, None))
    lead = len(raw) - len(raw.lstrip())
    shown = m.group() if len(m.group()) <= 20 else m.group()[:20] + "..."
    return DocumentError(
        f"cannot parse symbols: {shown!r} at character {lead + m.start() + 1} of line {number}"
    )


# a name 1..9 is its digit's byte; a name 10 after a separator is folded to
# the separator and _TEN first, and _TEN reads as 10; every other byte is _MISS
_TEN = "\x80"
_MISS = 0xFF
_DIGITS = bytes(x - 48 if 49 <= x <= 57 else 10 if x == ord(_TEN) else _MISS for x in range(256))


def _separated_names(text: str, separators: str) -> bytes | None:
    """The symbols of `text` when it is the characters of `separators`, each
    followed by one name 1..10, repeated; None otherwise, and the caller
    splits `text` instead.  A string body piece has separators ``" "``, and
    a list body, with a newline in front, a newline and k - 1 commas.

    The test is exact.  `text` is ASCII, so a _TEN can only come from
    folding a name 10 that follows a separator.  After the fold, the
    characters at even places must be `separators` repeated, and each
    character at an odd place must map to 1..10, which no separator does.
    So the text alternates one separator and one name, and reads as a split
    at the separators would.  A 0, a sign, a longer name, a blank field, a
    tab or a doubled separator leaves a miss or a separator out of place.
    """
    if not text.isascii():
        return None
    for separator in dict.fromkeys(separators):
        text = text.replace(separator + "10", separator + _TEN)
    m, rest = divmod(len(text), 2 * len(separators))
    if rest or text[0::2] != separators * m:
        return None
    symbols = text[1::2].encode("latin-1").translate(_DIGITS)
    return None if _MISS in symbols else symbols


def _string_line(number: int, raw: str, line: str, one: bool) -> Iterator[SymbolString]:
    """A body line's symbols (a list body of decimal names may be given as
    one comma line), read in pieces of about 64 kB cut at a separator: each
    piece is ``bytes`` while every symbol fits in a byte, else a tuple.
    `line` is `raw` stripped, and `one` says the document declares one symbol.

    A whitespace piece of names 1..10 between single spaces is read by
    `_separated_names` in a few C-level passes; any other piece is split into
    one token per symbol.  A piece after a cut starts at the cut's separator,
    and the first piece is given a space in front, so that each is read as
    (space, name) pairs.  Each piece is yielded as it is read, so that a
    caller can drop the body lines before it joins the pieces.
    """
    rule = _split_rule(line, one)
    start = 0
    while start < len(line):
        cut = rule.separator.search(line, start + _SPLIT_CHARS)
        end = cut.start() if cut else len(line)
        piece = None
        if rule is _WHITESPACE:
            piece = _separated_names(line[start:end] if start else " " + line[:end], " ")
        if piece is not None:
            yield piece
            start = end
            continue
        tokens = rule.split(line[start:end])
        try:
            # int() once per distinct token; a long body repeats a few symbols
            table = {t: int(t) for t in set(tokens)}
        except ValueError as exc:
            raise _bad_token(rule, number, raw, start, end, tokens) from exc
        try:
            piece = bytes(map(table.__getitem__, tokens))
        except ValueError:
            piece = tuple(map(table.__getitem__, tokens))
        yield piece
        start = end


def _joined(pieces: list[SymbolString]) -> SymbolString:
    """`pieces`, each ``bytes`` or a tuple, joined: ``bytes``, or a tuple if
    a piece is one (a symbol outside 0..255).  A lone bytes piece is its
    own join."""
    try:
        return b"".join(pieces)
    except TypeError:
        return tuple(chain.from_iterable(pieces))


@dataclass(frozen=True)
class ParsedInput:
    fmt: str  # "string" | "list"
    params: InstanceParams | None
    symbols: SymbolString | None  # bytes when every symbol fits in a byte
    words: Sequence[Word] | None  # a Windows view, or word tuples


# where ``str.splitlines`` breaks a line
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# the leading blank and header lines, each with its line break
_HEAD_BLOCK = re.compile(rf"(?:[^\S{_BREAKS}]*(?:#[^{_BREAKS}]*)?(?:[{_BREAKS}]|\Z))*")


def _lines(text: str) -> tuple[dict[str, str], int, list[str]]:
    """The headers of `text`, first of each name, its count of body lines,
    and its lines, split once: a whole document's, or its header block's."""
    headers: dict[str, str] = {}
    body_lines = 0
    lines = text.splitlines()
    for line in map(str.strip, lines):
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                headers.setdefault(parts[0], parts[1])
        elif line:
            body_lines += 1
    return headers, body_lines, lines


def _body(lines: list[str]) -> Iterator[tuple[int, str, str]]:
    """Each body line's number, text and stripped text."""
    numbered = zip(count(1), lines, map(str.strip, lines))
    return ((number, raw, line) for number, raw, line in numbered if line and line[0] != "#")


def _list_words(text: str) -> Windows | None:
    """The words of a list body, given as its lines each after a newline,
    as a view at stride k over one string of k symbols per word, when every
    line is k decimal names between single commas, or k digits 1..9 packed;
    None otherwise.  The first line sets k.

    Comma lines of names 1..10 are read by `_separated_names` with the
    separators a newline and k - 1 commas; others, if their non-digits are
    just those separators, by `_string_line` as one comma line, which must
    give k names a line (it drops blank fields) and int() every name.
    Packed lines must be ASCII with a newline at every place 0, k + 1,
    2k + 2, ... and nowhere else, and their digits map to 1..9 in one
    ``translate``.  Any other character declines the body.
    """
    first = text.find("\n", 1)  # where the first line ends
    if first < 0:
        first = len(text)
    if first < 2:  # no line, or a blank one
        return None
    if text.find(",", 1, first) < 0:
        k = first - 1
        m, rest = divmod(len(text), k + 1)
        if rest or not text.isascii() or text[:: k + 1] != "\n" * m:
            return None
        symbols = text.encode("latin-1").translate(_DIGITS, b"\n")
        # no newline off its place, and no miss
        return Windows(symbols, k, k) if len(symbols) == m * k and _MISS not in symbols else None
    k = text.count(",", 1, first) + 1
    symbols = _separated_names(text, "\n" + "," * (k - 1))
    if symbols is not None:
        return Windows(symbols, k, k)
    m, separators = text.count("\n"), b"\n" + b"," * (k - 1)
    if not text.isascii() or text.encode().translate(None, b"0123456789") != separators * m:
        return None
    line = text.replace("\n", ",")
    try:
        symbols = _joined(list(_string_line(1, line, line, False)))
    except DocumentError:  # a name int() rejects: the line reader reports where
        return None
    return Windows(symbols, k, k) if len(symbols) == m * k else None


def _params(headers: dict[str, str]) -> InstanceParams | None:
    """The instance the headers declare, if they name a mode and s; a mode
    other than kperm or multiset, or a missing n, k or multiset, is an error."""
    if not {"mode", "s"} <= headers.keys():
        return None
    try:
        if Mode(headers["mode"]) is Mode.MULTISET:
            multiset = _parse_multiset(headers["multiset"])
            return validate_params(multiset=multiset, s=int(headers["s"]))
        return validate_params(n=int(headers["n"]), k=int(headers["k"]), s=int(headers["s"]))
    except KeyError as exc:
        raise DocumentError(f"bad document header: no {exc.args[0]} header") from exc
    except (ValueError, ParamError) as exc:
        raise DocumentError(f"bad document header: {exc}") from exc


def _text_list(text: str, headers: dict[str, str], start: int) -> Windows | None:
    """The words of a list body, from `start` to the end, that `_list_words`
    reads as one slice, given the `headers` of the header block before it;
    None where the body is not a list or the slice is declined.

    A body the slice reads is only digits, commas and newlines, so it holds
    no header, blank or comment line and no other line break: the headers
    are the whole document's, and its lines are the body lines the line
    reader would strip and join.  The body is sliced only once the headers
    say list, or say no format and a newline follows the first body line
    (a one-line body is a string), so a string body is never copied.
    """
    fmt = headers.get("format")
    end = len(text) - text.endswith("\n")
    if fmt != "list" and (fmt is not None or text.find("\n", start, end) < 0):
        return None
    # the newline that ends the header block leads the slice, if there is one
    before = start > 0 and text[start - 1] == "\n"
    return _list_words(text[start - 1 : end] if before else "\n" + text[start:end])


def _text_string(text: str, headers: dict[str, str], start: int) -> bytes | None:
    """The symbols of a string body of more than one line, from `start` to
    the end, read as one slice by `_separated_names` with its newlines read
    as spaces, given the `headers` of the header block before it; None
    where they do not say string, the body is one line, or the slice is
    declined.

    The slice accepts only lines of names 1..10 between single spaces,
    which the line reader splits at whitespace into the same symbols, but
    for a line that is a bare 10: it has no whitespace, so the line reader
    reads it packed, as 1 and 0, and the slice is declined.  A body the
    slice reads is only digits, spaces and newlines, so it holds no header,
    blank or comment line: the headers are the whole document's.  The body
    is sliced only once a newline is found in it, so a one-line body, which
    the line reader reads in pieces, is never copied.
    """
    end = len(text) - text.endswith("\n")
    if headers.get("format") != "string" or text.find("\n", start, end) < 0:
        return None
    if text.startswith("10\n", start) or text.endswith("\n10", start, end):
        return None
    if text.find("\n10\n", start, end) >= 0:
        return None
    return _separated_names(" " + text[start:end].replace("\n", " "), " ")


def parse_text(text: str) -> ParsedInput:
    """The document's format, instance (from its headers, if any) and body:
    a string body's symbols, ``bytes`` when every symbol fits in a byte, or
    a list body's words.

    The header block is found first, by one match in place, and only it is
    split into lines for its headers: the first body line may be a whole
    string body.  A list body of decimal names, k to a line between commas,
    or of digits 1..9 packed, is then read by `_text_list` as one slice
    into one string of k symbols per word, and its words are a ``Windows``
    view over it at stride k, which ``verify_object_list`` checks in
    whole-string passes.  A string body of more than one line, every line
    of names 1..10 between single spaces, is read by `_text_string` as one
    slice too.  Any other document is split into lines, and its headers
    are read from all of them; a string body is then read a line at a
    time by `_string_line`.  A list body with blank, comment or
    padded lines, or other line breaks, is read by `_list_words` from its
    stripped lines joined by newlines, and where that declines too (a blank
    field, a sign, a line of another length) a line at a time into word
    tuples by `_string_line`.  The words are the same every way, and so are
    the errors.

    The headers are checked here, once, whichever reader took the body: the
    instance before any line of the body is read, so that a bad instance
    header is reported before a bad symbol, then the declared counts.  A
    list's ``objects`` is always checked, and its ``length`` against the
    instance; a string's ``length`` is always checked, and its ``objects``
    against the instance.
    """
    start = _HEAD_BLOCK.match(text).end()
    headers = _lines(text[:start])[0]
    words = _text_list(text, headers, start)
    symbols = _text_string(text, headers, start)
    fmt = "list" if symbols is None else "string"
    if words is None and symbols is None:
        headers, body_lines, lines = _lines(text)
        fmt = headers.get("format") or ("string" if body_lines == 1 else "list")
    params = _params(headers)
    if fmt == "string":
        if symbols is None:
            one = headers.get("length") == "1"  # then a lone 10 is ten, not 1, 0
            body = _body(lines)
            del lines  # only the body iterator keeps the lines, none once read
            pieces = [piece for numbered in body for piece in _string_line(*numbered, one)]
            symbols = _joined(pieces)
        objects = len(symbols) // (params.k - params.s) if params is not None else None
        _check_declared(headers, len(symbols), objects)
        return ParsedInput("string", params, symbols, None)
    if fmt != "list":
        raise DocumentError(f"unknown format {fmt!r}")
    if words is None:
        words = _list_words("\n".join(["", *(line for _, _, line in _body(lines))]))
    if words is None:
        words = tuple(tuple(chain.from_iterable(_string_line(*x, False))) for x in _body(lines))
    length = len(words) * (params.k - params.s) if params is not None else None
    _check_declared(headers, length, len(words))
    return ParsedInput("list", params, None, words)


def _check_declared(headers: dict[str, str], length: int | None, objects: int | None) -> None:
    """Raise if a ``length`` or ``objects`` header is not an integer, or
    differs from the body's count; a count that is None is not checked."""
    try:
        declared = {key: int(headers[key]) for key in ("length", "objects") if key in headers}
    except ValueError as exc:
        raise DocumentError(f"bad document header: {exc}") from exc
    if "length" in declared and length is not None and declared["length"] != length:
        raise DocumentError(
            f"header declares length {declared['length']}, body has {length} symbols"
        )
    if "objects" in declared and objects is not None and declared["objects"] != objects:
        raise DocumentError(
            f"header declares {declared['objects']} objects, body has {objects}"
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
    """Write `text` to the file `out`, or to stdout, ``_WRITE_CHARS`` at a
    time: the text layer encodes each slice, so it never holds a second
    copy of the whole document."""
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
        for i in range(0, len(text), _WRITE_CHARS):
            fh.write(text[i : i + _WRITE_CHARS])


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
        cycle = euler_tour(graph)
    except TourIncomplete as exc:
        print(f"incomplete: {exc.used} of {exc.total} edges reached", file=sys.stderr)
        return EXIT_INCOMPLETE
    emit = emit_document if args.format == "string" else emit_list
    _write_output(emit(cycle), args.out)
    return EXIT_OK


def _print_report(report: VerificationReport) -> None:
    print(f"valid: {'yes' if report.valid else 'no'}")
    print(f"objects: {report.object_count}")
    print(f"length-ok: {'yes' if report.length_ok else 'no'}")
    print(f"invalid-words: {len(report.invalid_words)}")
    print(f"duplicates: {len(report.duplicates)}")
    print(f"missing: {count_text(report.missing_count)}")
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
    stdin = args.input == "-"
    try:
        # stdin is read from its descriptor, as UTF-8 with universal
        # newlines like a file, and left open
        source = sys.stdin.fileno() if stdin else args.input
        with open(source, encoding="utf-8", closefd=not stdin) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{'stdin' if stdin else args.input} is not UTF-8 text: {exc}") from exc
    parsed = parse_text(text)
    del text  # the document is parsed; verifying needs only its symbols
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
    print(f"vertices: {vertex_count(params)}")
    print(f"edges: {g.edge_count}")
    if params.mode is Mode.KPERM:
        print(f"out-degree: {math.perm(params.n - params.s, params.k - params.s)}")
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ocycles`` parser, built once per process, on the first ``main``
    call, and reused: ``parse_args`` leaves it unchanged, and help is
    formatted when it is printed."""
    parser = argparse.ArgumentParser(
        prog="ocycles",
        description=(
            "Generate and verify overlap cycles over k-permutations and multiset permutations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an overlap cycle")
    _add_params(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("string", "list"), default="string")
    p.add_argument("--limit", type=int, default=DEFAULT_EDGE_LIMIT, help="edge-count limit")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("verify", help="verify a cycle file")
    p.add_argument("input", help="path to a cycle document or object list, or - for stdin")
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
    except (ParamError, DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IOFMT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
