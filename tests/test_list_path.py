"""The byte reader for list documents against the per-word reader.

A list body of names 1..10 is read into one byte string of k symbols per
word; every other body is read a line at a time into word tuples.  On every
document here both readers must give the same words, the same report, the
same ``verify`` output and exit code, and the same parse error.  The
per-word reader is forced by making ``cli._list_words`` decline every body.
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
from ocycles.cli import DocumentError, emit_list, main, parse_text
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
# permutations, multisets (one with a symbol 10), and n = 11, which has a
# name above 10 and is read per word
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
]


def _tampered(p, text, rng):
    """Edits of one generated list document, each (label, text, whether the
    byte path reads it).  The edits that change the word count drop the
    count headers, but for one, which the reader rejects."""
    head, body = _split(text)
    uncounted = [x for x in head if not x.startswith(("# objects", "# length"))]
    i, j = rng.sample(range(len(body)), 2)
    wide = p.n > 10  # a name above 10: never the byte path
    out = []

    def edit(label, lines, by_bytes=True, h=head, end="\n"):
        out.append((label, _join(h, lines, end), by_bytes and not wide))

    dup = list(body)
    dup[j] = body[i]
    edit("duplicate", dup)
    swapped = list(body)
    swapped[i], swapped[j] = body[j], body[i]
    edit("swap", swapped)
    edit("missing", body[:i] + body[i + 1 :], h=uncounted)
    edit("missing, counted", body[:i] + body[i + 1 :], False)
    edit("extra", body[:i] + [body[j]] + body[i:], h=uncounted)
    edit("k+1 names", body[:i] + [body[i] + ",1"] + body[i + 1 :], False, uncounted)
    edit("k-1 names", body[:i] + [body[i].rsplit(",", 1)[0]] + body[i + 1 :], False, uncounted)
    for symbol in (0, p.n + 1, 10, 255):
        names = body[i].split(",")
        names[rng.randrange(len(names))] = str(symbol)
        edit(f"symbol {symbol}", body[:i] + [",".join(names)] + body[i + 1 :], 1 <= symbol <= 10)
    # the same names and separators, the third line's first name moved onto
    # the second line (the first line sets how many names a line has)
    first, rest = body[2].split(",", 1)
    edit("a name moved up", [body[0], f"{body[1]},{first}", rest, *body[3:]], False, uncounted)
    edit("crlf", body, end="\r\n")
    edit("blank lines", body[:i] + ["", "   "] + body[i:] + [""])
    edit("padded lines", [f" \t{line}  " for line in body])
    edit("comment inside", body[:i] + ["# a note"] + body[i:])
    edit("no headers", body, h=[])
    edit("blank field", body[:i] + [body[i].replace(",", ",,", 1)] + body[i + 1 :], False)
    edit("spaced field", body[:i] + [body[i].replace(",", ", ", 1)] + body[i + 1 :], False)
    edit("leading zero", body[:i] + ["0" + body[i]] + body[i + 1 :], False)
    edit("bad token", body[:i] + [body[i] + "x"] + body[i + 1 :], False)
    edit("spaced names", body[:i] + [body[i].replace(",", " ")] + body[i + 1 :], False)
    edit("all spaced", [line.replace(",", " ") for line in body], False, [])
    if p.n <= 9:
        packed = [line.replace(",", "") for line in body]
        edit("packed", packed)
        moved = [packed[0], packed[1] + packed[2][0], packed[2][1:], *packed[3:]]
        edit("packed, a name moved up", moved, False, uncounted)
        edit("packed, one comma line", packed[:-1] + body[-1:], False)
    return out


def _corpus():
    """(label, params, text, whether the byte path reads it): generated list
    documents, their edits, and plain packed listings."""
    rng = random.Random(2203)
    docs = []
    for p in GENERATED:
        text = emit_list(euler_tour(build_graph(p)))
        docs.append((f"{p.describe()} generated", p, text, p.n <= 10))
        docs += [(f"{p.describe()} {label}", p, t, b) for label, t, b in _tampered(p, text, rng)]
    p = validate_params(n=5, k=3, s=2)
    listing = "".join("".join(map(str, w)) + "\n" for w in permutations(range(1, 6), 3))
    docs.append(("packed lexicographic listing", p, listing, True))
    docs.append(("packed listing, a 0", p, listing.replace("345", "305"), False))
    docs.append(("packed listing, a 4-digit line", p, listing.replace("345", "3456"), False))
    docs.append(("one line", validate_params(n=3, k=2, s=1), "# format list\n1,2\n", True))
    docs.append(("one packed line", validate_params(n=3, k=2, s=1), "# format list\n12\n", True))
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


def check_both_paths(monkeypatch, p, text, folder):
    """Both paths give the same parse, report and verify output; returns
    whether the byte path read the words."""
    path = Path(folder) / "doc.txt"
    path.write_text(text, newline="")
    read, parsed = _read(text)
    run = _verify(path, p)
    with monkeypatch.context() as patched:
        patched.setattr(ocycles.cli, "_list_words", lambda lines: None)
        per_word_read, per_word_parsed = _read(text)
        per_word_run = _verify(path, p)
    assert read == per_word_read
    assert run == per_word_run
    if parsed is None:
        return False
    assert not isinstance(per_word_parsed.words, Windows)
    tuples = [tuple(w) for w in parsed.words]
    assert verify_object_list(parsed.words, p) == verify_object_list(tuples, p)
    assert verify_object_list(tuples, p) == reference_object_list(tuples, p)
    return isinstance(parsed.words, Windows)


@pytest.mark.parametrize("label, p, text, by_bytes", CORPUS, ids=[doc[0] for doc in CORPUS])
def test_corpus(monkeypatch, tmp_path, label, p, text, by_bytes):
    # the forms the byte path reads do take it, and the others do not
    assert check_both_paths(monkeypatch, p, text, tmp_path) == by_bytes


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
        check_both_paths(monkeypatch, p, _join(head, body, end), folder)
