"""The three readers of a list document against each other, and against
the per-word reader that came before them.

A list body of decimal names, k to a line between commas or packed, is
read into one string of k symbols per word: as one slice of the document
after its header block (the text pass, ``cli._text_list``, which returns
the words and leaves every header to ``parse_text``), or, where that
declines, from its stripped lines joined by newlines (the joined-lines
pass).  Every other body is read a line at a time into word tuples by
``cli._string_line`` (the line reader).  On every document here each
reader must give the same parse, the same report, the same ``verify``
output and exit code, and the same parse error.  The joined-lines pass is
forced by making ``_text_list`` decline every document, and the line
reader by making ``_list_words`` decline every body as well.
``verify_object_list`` checks either form as one string at stride k, so its
report on the words, also handed over as a list of tuples, is compared with
the per-word reference ``reference_object_list`` too.
"""

import contextlib
import io
import random
import tempfile
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ocycles.cli
from ocycles.cli import _COMMA, DocumentError, _bad_token, _split_rule, emit_list, main, parse_text
from ocycles.core import Windows, validate_params
from ocycles.euler import euler_tour
from ocycles.graph import build_graph
from ocycles.verify import verify_object_list
from conftest import reference_object_list


def _argv(p):
    if p.multiset is not None:
        return ["--multiset", ",".join(map(str, p.multiset)), "--s", str(p.s)]
    return ["--n", str(p.n), "--k", str(p.k), "--s", str(p.s)]


def _split(text):
    lines = text.splitlines()
    head = [x for x in lines if x.startswith("#")]
    return head, [x for x in lines if x and not x.startswith("#")]


def _join(head, body, end="\n"):
    return end.join(head + body) + end


# generated instances: names up to 10, a packed-width alphabet, full
# permutations, multisets (one with a symbol 10), and wide names: n = 11
# and 12, and a multiset with names above 255, whose words are a tuple string
GENERATED = [
    validate_params(n=5, k=3, s=1),
    validate_params(n=10, k=2, s=1),
    validate_params(n=10, k=3, s=2),
    validate_params(n=6, k=6, s=2),
    validate_params(n=4, k=4, s=1),
    validate_params(multiset=(1, 1, 2, 3), s=1),
    validate_params(multiset=(1, 1, 2, 2, 3), s=2),
    validate_params(multiset=(1, 2, 10, 10), s=1),
    validate_params(n=11, k=2, s=1),
    validate_params(n=12, k=2, s=1),
    validate_params(multiset=(11, 99, 100, 255, 256), s=2),
]


# the line breaks of str.splitlines other than a newline
BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _tampered(p, text, rng):
    """Edits of one generated list document, each (label, text, reader):
    the reader that reads it, "text" or "lines", or None where neither
    whole-body pass does (it is read by the line reader, or fails to
    parse).  The edits that change the word count drop the count headers,
    but for one, which the reader rejects."""
    head, body = _split(text)
    uncounted = [x for x in head if not x.startswith(("# objects", "# length"))]
    i, j = rng.sample(range(len(body)), 2)
    out = []

    def edit(label, lines, reader="text", h=head, end="\n"):
        out.append((label, _join(h, lines, end), reader))

    dup = list(body)
    dup[j] = body[i]
    edit("duplicate", dup)
    swapped = list(body)
    swapped[i], swapped[j] = body[j], body[i]
    edit("swap", swapped)
    edit("missing", body[:i] + body[i + 1 :], h=uncounted)
    edit("missing, counted", body[:i] + body[i + 1 :], None)
    edit("extra", body[:i] + [body[j]] + body[i:], h=uncounted)
    edit("k+1 names", body[:i] + [body[i] + ",1"] + body[i + 1 :], None, uncounted)
    edit("k-1 names", body[:i] + [body[i].rsplit(",", 1)[0]] + body[i + 1 :], None, uncounted)
    for symbol in (0, p.n + 1, 10, 255):
        names = body[i].split(",")
        names[rng.randrange(len(names))] = str(symbol)
        edit(f"symbol {symbol}", body[:i] + [",".join(names)] + body[i + 1 :])
    # the same names and separators, the third line's first name moved onto
    # the second line (the first line sets how many names a line has)
    first, rest = body[2].split(",", 1)
    edit("a name moved up", [body[0], f"{body[1]},{first}", rest, *body[3:]], None, uncounted)
    edit("crlf", body, "lines", end="\r\n")
    edit("blank lines", body[:i] + ["", "   "] + body[i:] + [""], "lines")
    edit("padded lines", [f" \t{line}  " for line in body], "lines")
    edit("comment inside", body[:i] + ["# a note"] + body[i:], "lines")
    edit("no headers", body, h=[])
    edit("blank field", body[:i] + [body[i].replace(",", ",,", 1)] + body[i + 1 :], None)
    edit("spaced field", body[:i] + [body[i].replace(",", ", ", 1)] + body[i + 1 :], None)
    edit("leading zero", body[:i] + ["0" + body[i]] + body[i + 1 :])
    edit("bad token", body[:i] + [body[i] + "x"] + body[i + 1 :], None)
    edit("spaced names", body[:i] + [body[i].replace(",", " ")] + body[i + 1 :], None)
    edit("all spaced", [line.replace(",", " ") for line in body], None, [])
    if p.n <= 9:
        packed = [line.replace(",", "") for line in body]
        edit("packed", packed)
        moved = [packed[0], packed[1] + packed[2][0], packed[2][1:], *packed[3:]]
        edit("packed, a name moved up", moved, None, uncounted)
        edit("packed, one comma line", packed[:-1] + body[-1:], None)
        # as many characters, but one line is cut in two by a newline
        split = [*packed[:i], packed[i][:1], packed[i][2:], *packed[i + 1 :]]
        edit("packed, a line cut in two", split, None, uncounted)
    return out


def _layout_edits(p, text, rng):
    """Edits of one generated list document that move its lines, blanks,
    breaks and headers about, each (label, text, reader) as in
    `_tampered`: the text pass reads only a body of bare lines, each ended
    by a newline (the last one's may be missing), after any header block."""
    head, body = _split(text)
    i = rng.randrange(1, len(body) - 1)
    out = []

    def edit(label, doc, reader="text"):
        out.append((label, doc, reader))

    edit("blank line after the body", _join(head, body + [""]), "lines")
    edit("comment after the body", _join(head, body + ["# the end"]), "lines")
    edit("headers after the body", _join([], body + head), "lines")
    edit("a header after the body", _join(head, body + ["# n 99"]), "lines")
    edit("blank lines before the body", _join(head + ["", " \t"], body))
    # blanks, as str.strip takes them: also a no-break and an ideographic space
    edit("padded headers", _join([f" \t\xa0{x}\u3000 " for x in head], body))
    edit("headers ended by cr", "".join(x + "\r" for x in head) + _join([], body))
    edit("leading blanks", _join(head, body[:i] + [" \t" + body[i]] + body[i + 1 :]), "lines")
    edit("trailing blanks", _join(head, body[:i] + [body[i] + "\t "] + body[i + 1 :]), "lines")
    edit("first line padded", _join(head, [" " + body[0]] + body[1:]), "lines")
    edit("no final newline", _join(head, body).removesuffix("\n"))
    edit("no final newline, no headers", _join([], body).removesuffix("\n"))
    for mark in BREAKS:
        after = body[:i] + [body[i] + mark + body[i + 1]] + body[i + 2 :]
        edit(f"break {mark!r}", _join(head, after), "lines")
        edit(f"headers broken by {mark!r}", mark.join([*head, ""]) + _join([], body))
    edit("final break \\x85", _join(head, body).removesuffix("\n") + "\x85", "lines")
    edit("a # inside a line", _join(head, body[:i] + [body[i] + "#"] + body[i + 1 :]), None)
    # a line that starts with # is a comment, so its word is dropped
    uncounted = [x for x in head if not x.startswith(("# objects", "# length"))]
    commented = body[:i] + ["#" + body[i]] + body[i + 1 :]
    edit("a # starting a line", _join(uncounted, commented), "lines")
    length_1 = [x if not x.startswith("# length") else "# length 1" for x in head]
    edit("length 1", _join(length_1, body), None)
    names = body[i].split(",")
    names[0] = "10"
    edit("10 at a line start", _join(head, body[:i] + [",".join(names)] + body[i + 1 :]))
    names[0] = "11"
    edit("11 at a line start", _join(head, body[:i] + [",".join(names)] + body[i + 1 :]))
    return out


def _corpus():
    """(label, params, text, reader as in `_tampered`): generated list
    documents, their edits, plain packed listings and a few small ones."""
    rng = random.Random(2203)
    docs = []
    # the last two instances are edited last, so that the edits of the
    # others are drawn as they were before those two were added
    narrow, wide = GENERATED[:9], GENERATED[9:]
    for edited, laid_out in (narrow, [narrow[i] for i in (0, 2, 7, 8)]), (wide, wide[1:]):
        for p in edited:
            text = emit_list(euler_tour(build_graph(p)))
            docs.append((f"{p.describe()} generated", p, text, "text"))
            edits = _tampered(p, text, rng)
            docs += [(f"{p.describe()} {label}", p, t, b) for label, t, b in edits]
        for p in laid_out:
            text = emit_list(euler_tour(build_graph(p)))
            edits = _layout_edits(p, text, rng)
            docs += [(f"{p.describe()} {label}", p, t, b) for label, t, b in edits]
    p = validate_params(n=5, k=3, s=2)
    listing = "".join("".join(map(str, w)) + "\n" for w in permutations(range(1, 6), 3))
    docs.append(("packed lexicographic listing", p, listing, "text"))
    docs.append(("packed listing, a 0", p, listing.replace("345", "305"), None))
    docs.append(("packed listing, a 4-digit line", p, listing.replace("345", "3456"), None))
    docs.append(("packed listing, a blank line", p, listing.replace("345\n", "345\n\n"), "lines"))
    docs.append(("packed listing, a break", p, listing.replace("345\n", "345\u2028"), "lines"))
    docs.append(("packed listing, a 10", p, listing.replace("\n345", "\n105"), None))
    p3 = validate_params(n=3, k=2, s=1)
    docs.append(("one line", p3, "# format list\n1,2\n", "text"))
    docs.append(("one packed line", p3, "# format list\n12\n", "text"))
    # without a format header one body line is a string, and more are a list
    docs.append(("one line, no format", p3, "# mode kperm\n# n 3\n# k 2\n# s 1\n1,2\n", None))
    docs.append(("one line, no headers", p3, "1,2,2,1,1,3\n", None))
    docs.append(("one line and a comment, no headers", p3, "1,2\n# 2,1\n", None))
    docs.append(("two lines, no headers", p3, "1,2\n2,1", "text"))
    p10 = validate_params(n=10, k=2, s=1)
    docs.append(("10 first, no headers", p10, "10,1\n1,10\n", "text"))
    docs.append(("names 0, 10 and 11", p10, "# format list\n0,10\n10,11\n", "text"))
    p11 = validate_params(n=11, k=2, s=1)
    narrow = "# mode kperm\n# n 11\n# k 2\n# s 1\n1,2\n2,1\n"
    docs.append(("n = 11, names 1..10", p11, narrow, "text"))
    # count headers without an instance: the objects are still counted
    counted = "# format list\n# {}\n1,2\n2,1\n"
    docs.append(("objects 5, no instance", p3, counted.format("objects 5"), None))
    docs.append(("length abc, no instance", p3, counted.format("length abc"), None))
    docs.append(("objects 2, no instance", p3, counted.format("objects 2"), "text"))
    # a bad instance header is reported before the body is read
    bad_n = "# mode kperm\n# n x\n# k 2\n# s 1\n1,2\n{}\n"
    docs.append(("n x", p3, bad_n.format("2,1"), None))
    docs.append(("n x, a bad token", p3, bad_n.format("1,y"), None))
    # so is an unknown mode, or a missing header the mode needs
    docs.append(("mode bogus", p3, "# mode bogus\n# n 3\n# k 2\n# s 1\n1,2\n2,1\n", None))
    docs.append(("no n header", p3, "# mode kperm\n# k 2\n# s 1\n1,2\n2,1\n", None))
    docs.append(("no multiset header", p3, "# mode multiset\n# s 1\n1,2\n2,1\n", None))
    docs.append(("no body", p3, "# format list\n# mode kperm\n", None))
    docs.append(("empty", p3, "", None))
    return docs


CORPUS = _corpus()


def _read(text):
    try:
        parsed = parse_text(text)
    except DocumentError as exc:
        return str(exc), None
    return (parsed.fmt, parsed.params, parsed.symbols, tuple(parsed.words or ())), parsed


def _verify(path, p):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), *_argv(p)])
    return code, out.getvalue(), err.getvalue()


def check_every_reader(monkeypatch, p, text, folder):
    """The text pass, the joined-lines pass and the line reader, each
    forced in turn, give the same parse, errors, report and verify output;
    returns the reader of the list words as in `_tampered`."""
    path = Path(folder) / "doc.txt"
    path.write_text(text, newline="")
    took = []  # whether the text pass read the document, per parse
    text_list = ocycles.cli._text_list

    def spy(*args):
        parsed = text_list(*args)
        took.append(parsed is not None)
        return parsed

    with monkeypatch.context() as patched:
        patched.setattr(ocycles.cli, "_text_list", spy)
        results = [(_read(text), _verify(path, p))]
        by_text = took[0] if took else False
        patched.setattr(ocycles.cli, "_text_list", lambda *args: None)
        results.append((_read(text), _verify(path, p)))
        by_lines = isinstance(results[-1][0][1] and results[-1][0][1].words, Windows)
        patched.setattr(ocycles.cli, "_list_words", lambda text: None)
        results.append((_read(text), _verify(path, p)))
    (read, parsed), run = results[0]
    for (other, _), other_run in results[1:]:
        assert other == read
        assert other_run == run
    if parsed is None or parsed.fmt == "string":
        return None
    # one word per body line, as str.splitlines cuts the document
    stripped = map(str.strip, text.splitlines())
    assert len(parsed.words) == sum(1 for x in stripped if x and x[0] != "#")
    assert not isinstance(results[-1][0][1].words, Windows)
    tuples = [tuple(w) for w in parsed.words]
    assert verify_object_list(parsed.words, p) == verify_object_list(tuples, p)
    assert verify_object_list(tuples, p) == reference_object_list(tuples, p)
    return "text" if by_text else "lines" if by_lines else None


@pytest.mark.parametrize("label, p, text, reader", CORPUS, ids=[doc[0] for doc in CORPUS])
def test_corpus(monkeypatch, tmp_path, label, p, text, reader):
    # the forms each byte pass reads do take it, and the others do not
    assert check_every_reader(monkeypatch, p, text, tmp_path) == reader


@pytest.mark.parametrize("label", ["n x", "n x, a bad token"])
def test_bad_instance_header_before_the_body(label):
    # every reader gives the same error on the corpus; this pins which one
    text = next(doc[2] for doc in CORPUS if doc[0] == label)
    with pytest.raises(DocumentError) as e:
        parse_text(text)
    assert str(e.value) == "bad document header: invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize(
    "label, error",
    [("mode bogus", "'bogus' is not a valid Mode"), ("no n header", "no n header"),
     ("no multiset header", "no multiset header")],
    ids=["mode bogus", "no n header", "no multiset header"],
)
def test_unknown_mode_or_missing_instance_header(label, error):
    # every reader gives the same error on the corpus; this pins which one
    text = next(doc[2] for doc in CORPUS if doc[0] == label)
    with pytest.raises(DocumentError) as e:
        parse_text(text)
    assert str(e.value) == f"bad document header: {error}"


def test_one_body_line_without_format_is_a_string():
    parsed = parse_text("# mode kperm\n# n 3\n# k 2\n# s 1\n1,2\n")
    assert (parsed.fmt, parsed.symbols) == ("string", b"\x01\x02")
    assert parse_text("1,2\n2,1\n").fmt == "list"


# edits of a body line (picked by a number), or of the whole document
LINE_EDITS = st.sampled_from(["drop", "dup", "swap", "blank", "symbol", "names", "move", "crlf", "pad"])


@given(
    doc=st.sampled_from(CORPUS),
    edits=st.lists(st.tuples(LINE_EDITS, st.integers(0, 10**6), st.integers(0, 12)), max_size=4),
    counted=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_edited_corpus(doc, edits, counted):
    label, p, text, _ = doc
    head, body = _split(text)
    if not counted:  # edits that change the word count leave a readable document
        head = [x for x in head if not x.startswith(("# objects", "# length"))]
    end = "\n"
    for edit, at, symbol in edits:
        if not body:
            break
        i = at % len(body)
        if edit == "drop":
            del body[i]
        elif edit == "dup":
            body.insert(i, body[(i + 1) % len(body)])
        elif edit == "swap":
            j = (i + 1) % len(body)
            body[i], body[j] = body[j], body[i]
        elif edit == "blank":
            body.insert(i, "")
        elif edit == "symbol" and body[i]:
            names = body[i].split(",") if "," in body[i] else list(body[i])
            names[at % len(names)] = str(symbol)
            body[i] = ",".join(names) if "," in body[i] else "".join(names)
        elif edit == "names":
            body[i] = body[i] + ("," if "," in body[i] else "") + str(symbol)
        elif edit == "move" and len(body[i - 1]) > 1:
            # a name moves from the line before onto the start of this one
            cut = body[i - 1].rfind(",") if "," in body[i - 1] else len(body[i - 1]) - 1
            name = body[i - 1][cut:].lstrip(",")
            body[i - 1] = body[i - 1][:cut]
            body[i] = name + ("," if "," in body[i] else "") + body[i]
        elif edit == "crlf":
            end = "\r\n"
        else:
            body[i] = f" {body[i]}\t"
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as folder:
        check_every_reader(monkeypatch, p, _join(head, body, end), folder)


# edits of where a generated list document's lines, blanks, breaks and
# headers fall, and of its names; each picks a body line by a number
LAYOUT_EDITS = st.sampled_from(
    ["break", "blank", "comment", "header", "pad", "final", "name", "hash", "ten"]
)
GENERATED_LISTS = [(p, emit_list(euler_tour(build_graph(p)))) for p in GENERATED]


@given(
    doc=st.sampled_from(GENERATED_LISTS),
    edits=st.lists(st.tuples(LAYOUT_EDITS, st.integers(0, 10**6), st.integers(0, 20)), max_size=4),
    counted=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_layout_edited_documents(doc, edits, counted):
    p, text = doc
    head, body = _split(text)
    if not counted:
        head = [x for x in head if not x.startswith(("# objects", "# length"))]
    lines = [[x, "\n"] for x in head + body]  # each line and the break after it
    final = True
    for edit, at, pick in edits:
        i = len(head) + at % len(body)
        line = lines[i]
        if edit == "break":
            line[1] = (BREAKS + ["\r\n", "\n"])[pick % (len(BREAKS) + 2)]
        elif edit in ("blank", "comment", "header"):
            extra = {"blank": " \t"[: pick % 3], "comment": "# a note", "header": "# n 99"}[edit]
            lines.insert(i + pick % 2, [extra, "\n"])
        elif edit == "pad":
            pad = " \t"[pick % 2] * (1 + pick % 3)
            line[0] = pad + line[0] if pick % 4 < 2 else line[0] + pad
        elif edit == "final":
            final = False
        elif edit in ("name", "ten") and line[0] and not line[0].startswith("#"):
            names = line[0].split(",")
            value = "10" if edit == "ten" else ("0", "10", "11")[pick % 3]
            names[0 if edit == "ten" else pick % len(names)] = value
            line[0] = ",".join(names)
        elif edit == "hash":
            cut = pick % (len(line[0]) + 1)
            line[0] = line[0][:cut] + "#" + line[0][cut:]
    edited = "".join(x + end for x, end in lines)
    if not final:
        edited = edited[: -len(lines[-1][1])]
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as folder:
        check_every_reader(monkeypatch, p, edited, folder)


def reference_word(number, raw, line):
    """A list body line's symbols as the per-word reader read them before
    every line the whole-body passes decline went to ``cli._string_line``:
    the reference for words and errors.  `line` is `raw` stripped."""
    rule = _split_rule(line)
    if rule is _COMMA:
        # int() rejects a blank field, so a line that converts has none to skip
        try:
            return tuple(map(int, line.split(",")))
        except ValueError:
            pass
    try:
        return tuple(map(int, rule.split(line)))
    except ValueError as exc:
        raise _bad_token(rule, number, raw, 0, len(line), rule.split(line)) from exc


def reference_words(text):
    """The words of a list document, `reference_word` over its stripped
    body lines, numbered as the document's lines."""
    numbered = ((number, raw, raw.strip()) for number, raw in enumerate(text.splitlines(), 1))
    return tuple(reference_word(*x) for x in numbered if x[2] and x[2][0] != "#")


# names for generated list bodies: decimal ones of every width the
# whole-body passes read, a leading zero, a blank, a sign, an underscore,
# padding, a letter, a non-ASCII digit, and a name int() reads only below
# 4,301 digits
FUZZ_NAMES = [
    "0", "07", *map(str, range(1, 13)), "99", "100", "255", "256", "300",
    "", "+4", "1_0", " 5 ", "x", "٣", "1" * 30, "9" * 5000,
]  # fmt: skip


@given(data=st.data(), k=st.integers(2, 4), n=st.sampled_from([None, 10, 300]), crlf=st.booleans())
@settings(max_examples=400, deadline=None)
def test_list_bodies_match_the_per_word_reader(data, k, n, crlf):
    # a few names per document, so that some bodies are all decimal but for
    # one blank field or one long name; lines of k names or one off, and
    # some blank and comment lines
    pool = data.draw(st.lists(st.sampled_from(FUZZ_NAMES), min_size=1, max_size=4, unique=True))
    width = st.sampled_from([k] * 8 + [k - 1, k + 1])
    names = width.flatmap(lambda w: st.lists(st.sampled_from(pool), min_size=w, max_size=w))
    words = names.map(",".join)
    line = st.one_of(words, words, words, words, st.sampled_from(["", " \t", "# a note"]))
    body = data.draw(st.lists(line, min_size=1, max_size=10))
    head = ["# format list"]
    if n is not None:
        head += ["# mode kperm", f"# n {n}", f"# k {k}", "# s 1"]
    text = _join(head, body, "\r\n" if crlf else "\n")
    try:
        expected = reference_words(text)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as raised:
            parse_text(text)
        assert str(raised.value) == str(exc)
        return
    assert tuple(parse_text(text).words) == expected
