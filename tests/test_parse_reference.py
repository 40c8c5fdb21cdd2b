"""The instance parser against a plain reference parser.

The reference reads the format's rules straight off ``str.splitlines``,
one line at a time, and shares no code with the library: it returns plain
tuples, and the errors as their type name, line number and message. Both
ways the library reads text, ``parse_instance`` on a str and
``read_instance`` on an open file, must give what it gives, at any block
size.
"""

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lframes import instance_io
from lframes.errors import ParseError, ValidationError
from lframes.instance_io import parse_instance, read_instance

HEADER_KEYWORDS = ("model", "kind", "diagonal", "vline", "hline")


def reference_parse(text):
    """What ``text`` parses to: ("ok", model, diagonal, vline, hline,
    kind, records), with kind None when there are no records and each
    record (id, a, b, c, d), or the first error as ("ParseError", lineno,
    message) or ("ValidationError", None, message)."""

    def parse_error(lineno, message):
        return ("ParseError", lineno, f"line {lineno}: {message}")

    def invalid(message):
        return ("ValidationError", None, message)

    def is_int(token):
        try:
            int(token)
        except ValueError:
            return False
        return True

    header = {"model": "standard", "kind": "frames", "diagonal": None, "vline": None, "hline": None}
    seen = set()
    version = in_records = False
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.partition("#")[0].split()
        if not fields:
            continue
        first, rest = fields[0], fields[1:]
        if not version:
            if first != "version":
                return parse_error(lineno, "file must start with a version line")
            if len(rest) != 1:
                return parse_error(lineno, "version takes one field")
            if not is_int(rest[0]):
                return parse_error(lineno, f"expected integer, got {rest[0]!r}")
            if int(rest[0]) != 1:
                return parse_error(lineno, f"unsupported format version {rest[0]}")
            version = True
        elif not in_records and first in HEADER_KEYWORDS and len(rest) != 4:
            if first in seen:
                return parse_error(lineno, f"duplicate {first} declaration")
            if len(rest) != 1:
                return parse_error(lineno, f"{first} takes one field")
            seen.add(first)
            value = rest[0]
            if first == "model" and value not in ("standard", "edge"):
                return invalid(f"unknown model {value!r}")
            if first == "kind" and value not in ("frames", "rects"):
                return invalid(f"unknown record kind {value!r}")
            if first in ("diagonal", "vline", "hline"):
                if not is_int(value):
                    return parse_error(lineno, f"expected integer, got {value!r}")
                value = int(value)
            header[first] = value
        else:
            in_records = True
            if len(rest) != 4:
                return parse_error(lineno, "record takes an id and four integers")
            for token in rest:
                if not is_int(token):
                    return parse_error(lineno, f"expected integer, got {token!r}")
            a, b, c, d = (int(token) for token in rest)
            if header["kind"] == "frames" and (c == 0 or d == 0):
                return invalid(f"frame {first!r}: spans must be nonzero")
            if header["kind"] == "rects" and not (a < c and b < d):
                return invalid(f"rect {first!r}: degenerate")
            records.append((first, a, b, c, d))
    if not version:
        return parse_error(1, "empty file, expected a version line")
    if header["model"] == "edge" and header["kind"] == "rects" and records:
        return invalid("edge model is defined for frames only")
    if len({r[0] for r in records}) != len(records):
        return invalid("object ids must be unique")
    return ("ok", header["model"], header["diagonal"], header["vline"], header["hline"],
            header["kind"] if records else None, records)


def outcome(read):
    """``read()``'s instance in the reference's terms, or its error."""
    try:
        inst = read()
    except (ParseError, ValidationError) as e:
        return (type(e).__name__, getattr(e, "lineno", None), str(e))
    if inst.rects:
        kind = "rects"
        records = [(r.id, r.lo.x, r.lo.y, r.hi.x, r.hi.y) for r in inst.rects]
    else:
        fr = inst.frames
        kind = "frames" if fr else None
        records = list(zip(fr.ids, fr.x, fr.y, fr.hspan, fr.vspan))
    return ("ok", inst.model, inst.diagonal, inst.vline, inst.hline, kind, records)


# values on both sides of the signed 64-bit range and of 2**64
WIDE = (2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, -(2**64), 3**50)
values = st.one_of(st.integers(-4, 6), st.sampled_from(WIDE)).map(str)
ids = st.one_of(st.sampled_from(HEADER_KEYWORDS + ("version", "f#2")),
                st.integers(0, 40).map("f{}".format))
gaps = st.sampled_from((" ", "  ", "\t", " \t "))
comments = st.sampled_from(("", "", " # note", "#", " #f1 0 0 3 3"))


@st.composite
def record_lines(draw):
    """A record: mostly valid, else with a wrong field count, a field that
    is not an integer, a zero span or a comment cutting its fields short."""
    fields = [draw(ids)] + [draw(values) for _ in range(4)]
    flaw = draw(st.sampled_from(("none",) * 16 + ("count", "integer", "span", "cut")))
    if flaw == "count":
        del fields[draw(st.integers(1, 4)):]
        fields += [draw(values) for _ in range(draw(st.sampled_from((0, 2, 3))))]
    elif flaw == "integer":
        fields[draw(st.integers(1, 4))] = draw(st.sampled_from(("x", "1.5", "0x10", "--1", "+7", "1_0")))
    elif flaw == "span":
        fields[draw(st.integers(3, 4))] = draw(st.sampled_from(("0", "-0", "+0")))
    elif flaw == "cut":
        k = draw(st.integers(0, 4))
        fields[k:] = ["#" + " ".join(fields[k:])]
    gap = draw(gaps)
    return draw(st.sampled_from(("", " "))) + gap.join(fields) + draw(comments)


header_lines = st.sampled_from((
    "model standard", "model edge", "kind frames", "kind rects", "diagonal 3", "vline -2",
    "hline 0", "vline 18446744073709551616", "model plain", "kind dots", "diagonal x",
    "vline 1 2", "hline", "kind",
))
other_lines = st.sampled_from(("", "   ", "# a comment", "\t# kind rects"))
version_lines = st.sampled_from(("version 1",) * 20 + ("version 2", "version", "version x", "f1 0 0 3 3"))
breaks = st.sampled_from(("\n",) * 6 + ("\r\n", "\r", "\x85", "\u2028", "\f"))


@st.composite
def instance_texts(draw):
    """Instance texts: an optional version line, header lines, then records
    mixed with blank lines, comments and stray header lines."""
    lines = []
    if draw(st.integers(0, 9)):
        lines.append(draw(version_lines))
    lines += draw(st.lists(st.one_of(header_lines, other_lines), max_size=3))
    lines += draw(st.lists(st.one_of(record_lines(), record_lines(), other_lines, header_lines),
                           max_size=14))
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.integers(0, 4)) else text.rstrip("\n")


def _read_at(block, read):
    saved = instance_io._BLOCK
    instance_io._BLOCK = block
    try:
        return outcome(read)
    finally:
        instance_io._BLOCK = saved


@settings(max_examples=400)
@given(instance_texts())
@example("version 1\nkind frames\nf1 0 0 3 3 # comment\n\nmodel 1 2 3 4\nf2 0 0 3\nf3 0 x 3 3\n")
@example("version 1\nvline 0\nhline 0\nf1 -1 1 18446744073709551616 -2\nf2 0 x 3 3\nf3 0 0 0 3\n")
@example("version 1\nf1 0 0 3 3\nf2 0 0 0 3\nf3 0 0 3\n")
@example("version 1\nkind rects\nf1 0 0 3 3\nf2 0 0 0 3\nf3 0 y 3 3\n")
@example("version 1\nf1 0 0 3 3 4\nf2 0 0 0 3\n")
@example("version 1\nkind rects\nr1 0 0 1 1\nvline 5\n")
# canonical records but for an id holding '#', which starts a comment
@example("version 1\nf1 0 0 3 3\nf#2 0 0 3 3\nf3 0 0 3 3\n")
def test_parsers_agree_with_the_reference(text):
    expected = reference_parse(text)
    for block in (1, 7, 64, instance_io._BLOCK):
        assert _read_at(block, lambda: parse_instance(text)) == expected, block
        for newline in (None, "\n"):
            file = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)
            assert _read_at(block, lambda: read_instance(file)) == expected, (block, newline)
