"""Instance text format round trips and the report line format."""

import io
import random
import re
import string
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from lframes import cli, instance_io
from lframes.errors import ParseError, ValidationError
from lframes.generators import FAMILIES, gen_anchored_rects, generate
from lframes.geometry import FrameColumns, GeomInstance, LFrame, Point, Rect
from lframes.instance_io import (
    emit_instance,
    format_fields,
    instance_summary,
    parse_instance,
    read_instance,
)


def test_parse_minimal_frame():
    inst = parse_instance("version 1\nf1 0 0 3 3\n")
    assert inst.frames == (LFrame("f1", Point(0, 0), 3, 3),)
    assert inst.model == "standard"


def test_parse_zero_span_is_validation_error():
    with pytest.raises(ValidationError):
        parse_instance("version 1\nf1 0 0 0 3\n")


def test_parse_reports_the_earliest_bad_record():
    # records are checked in file order: a zero span on one line wins over
    # a malformed integer on a later line, and the other way round
    with pytest.raises(ValidationError, match=r"^frame 'f1': spans must be nonzero$"):
        parse_instance("version 1\nf1 0 0 0 3\nf2 0 0 x 3\n")
    with pytest.raises(ParseError, match=r"^line 2: expected integer, got 'x'$"):
        parse_instance("version 1\nf2 0 0 x 3\nf1 0 0 0 3\n")


def test_emit_frame_instance():
    inst = GeomInstance(frames=(LFrame("f1", Point(0, 0), 3, 3),))
    assert emit_instance(inst) == "version 1\nmodel standard\nkind frames\nf1 0 0 3 3\n"


def test_emit_rect_instance_with_diagonal():
    inst = GeomInstance(rects=(Rect("r1", Point(1, 1), Point(3, 4)),), diagonal=2)
    assert emit_instance(inst) == (
        "version 1\nmodel standard\nkind rects\ndiagonal 2\nr1 1 1 3 4\n"
    )


def test_round_trip_all_families():
    for family in sorted(FAMILIES):
        for seed in (0, 1, 2**63 - 1):
            inst = generate(family, seed, 6)
            assert parse_instance(emit_instance(inst)) == inst


def test_round_trip_rect_family():
    inst = gen_anchored_rects(5, 7)
    assert parse_instance(emit_instance(inst)) == inst


# ids are single tokens, header keywords included
ids = st.text(st.sampled_from(string.ascii_letters + string.digits + "_.-"),
              min_size=1, max_size=6)
big = st.integers(-(2**70), 2**70)


@st.composite
def instances(draw):
    names = draw(st.lists(ids, unique=True, max_size=8))
    lines = {
        "diagonal": draw(st.none() | big),
        "vline": draw(st.none() | big),
        "hline": draw(st.none() | big),
    }
    if draw(st.booleans()):
        nonzero = big.filter(bool)
        frames = [LFrame(i, Point(draw(big), draw(big)), draw(nonzero), draw(nonzero))
                  for i in names]
        model = draw(st.sampled_from(("standard", "edge")))
        return GeomInstance(frames=frames, model=model, **lines)
    rects = []
    for i in names:
        x, y = draw(big), draw(big)
        w, h = draw(st.integers(1, 2**70)), draw(st.integers(1, 2**70))
        rects.append(Rect(i, Point(x, y), Point(x + w, y + h)))
    return GeomInstance(rects=rects, **lines)


@settings(max_examples=200)
@given(instances())
def test_round_trip_generated_instances(inst):
    text = emit_instance(inst)
    assert parse_instance(text) == inst
    assert emit_instance(parse_instance(text)) == text


@pytest.mark.parametrize("record_id", ["kind", "vline"])
def test_header_keyword_as_first_record_id(record_id):
    frames = (LFrame(record_id, Point(0, 0), 3, 3), LFrame("f2", Point(1, 1), 2, 2))
    inst = GeomInstance(frames=frames, diagonal=0, vline=5)
    text = emit_instance(inst)
    assert f"\n{record_id} 0 0 3 3\n" in text
    assert parse_instance(text) == inst
    rects = GeomInstance(rects=(Rect(record_id, Point(0, 0), Point(2, 2)),))
    assert parse_instance(emit_instance(rects)) == rects


@pytest.mark.parametrize("bad", ["", "#a", "a#", "a b", "a\tb", "a\nb", "a\x85b", "a\u2028b",
                                 "\x1c", "a\u00a0b"])
def test_emit_refuses_ids_that_do_not_read_back(bad):
    # such an id would split into several fields, turn the rest of its line
    # into a comment or break the line, so the text would not read back
    frames = (LFrame(bad, Point(0, 0), 3, 3), LFrame("g", Point(5, 5), 1, 1))
    rects = (Rect("g", Point(0, 0), Point(1, 1)), Rect(bad, Point(2, 2), Point(3, 3)))
    for inst in (GeomInstance(frames=frames), GeomInstance(rects=rects)):
        with pytest.raises(ValueError, match=f"^id {re.escape(repr(bad))} cannot be written"):
            emit_instance(inst)


@pytest.mark.parametrize("good", ["version", "model", "vline", "f_1", "\u00e9", "a\u200bb", "'\"",
                                  "-1"])
def test_ids_of_one_field_round_trip(good):
    frames = GeomInstance(frames=(LFrame(good, Point(0, 0), 3, 3), LFrame("g", Point(5, 5), 1, 1)))
    rects = GeomInstance(rects=(Rect(good, Point(0, 0), Point(1, 1)),))
    for inst in (frames, rects):
        assert parse_instance(emit_instance(inst)) == inst


@pytest.mark.parametrize("text, message", [
    ("version 1\nkind frames rects\nf1 0 0 3 3\n", "line 2: kind takes one field"),
    ("version 1\nkind frames\nkind rects\n", "line 3: duplicate kind declaration"),
    ("version 1\nvline 0\nvline 1 2 3\n", "line 3: duplicate vline declaration"),
    ("version 1\nvline 1 2\n", "line 2: vline takes one field"),
    # after the first record a header or version line is a bad record
    ("version 1\nf1 0 0 3 3\nkind rects\n", "line 3: record takes an id and four integers"),
    ("version 1\nf1 0 0 3 3\nversion 1\n", "line 3: record takes an id and four integers"),
])
def test_header_errors_keep_their_messages(text, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(text)


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\nversion 1\nkind frames\n# another\nf1 0 0 3 3  # inline\n"
    inst = parse_instance(text)
    assert inst.n == 1


def test_missing_version_rejected():
    with pytest.raises(ParseError):
        parse_instance("f1 0 0 3 3\n")


def test_bad_version_rejected():
    with pytest.raises(ParseError):
        parse_instance("version 9\nf1 0 0 3 3\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("version 1\nkind frames\nf1 0 0 3\n")
    assert "line 3" in str(err.value)


# every line break str.splitlines knows
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _mixed_break_text(rng, records, bad_at=None):
    """A frame file whose lines end in random line breaks, with blank lines
    and comments, and a bad record as the first line past ``bad_at``
    characters."""
    parts = ["version 1", rng.choice(LINE_BREAKS)]
    size = sum(map(len, parts))
    for k in range(records):
        if bad_at is not None and size > bad_at:
            parts += ["bad 0 0 3 x", rng.choice(LINE_BREAKS)]
            bad_at = None
        line = rng.choice((f"f{k} 0 0 3 3", "", "# note", f"f{k} 1 2 3 3 # c"))
        parts += [line, rng.choice(LINE_BREAKS)]
        size += len(line) + len(parts[-1])
    return "".join(parts)


def _text_file(text, newline):
    """``text`` as an open text file in one newline mode: None translates
    ``\r\n`` and ``\r`` as ``open(path)`` does, ``"\n"`` translates
    nothing and splits at ``\n`` only, as stdin does on POSIX."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)


def _read_ways(text, tmp_path, monkeypatch):
    """Calls that each read ``text`` one way: parsed as a str, and read by
    the CLI from a file by path and from stdin."""
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())

    def stdin():
        monkeypatch.setattr(sys, "stdin", _text_file(text, "\n"))
        return cli._read_instance("-")

    return {
        "str": lambda: parse_instance(text),
        "path": lambda: cli._read_instance(str(path)),
        "stdin": stdin,
    }


def test_lines_are_those_of_splitlines(monkeypatch):
    # pieces of any size end just after a line break, so none is split and
    # their lines are those of the whole text, whether they are cut from a
    # str or read from a file in either newline mode the CLI reads in
    text = _mixed_break_text(random.Random(8), 400) + "f9 0 0 3 3"  # no final break
    for block in (1, 2, 3, 5, 8, 13, 40, 10**6):
        monkeypatch.setattr(instance_io, "_BLOCK", block)
        for t in (text, text[:-10], ""):
            assert "".join(instance_io._blocks(t)) == t
            for source in (t, _text_file(t, None), _text_file(t, "\n")):
                pieces = list(instance_io._blocks(source))
                assert all(p.endswith("\n") for p in pieces[:-1]), (block, source)
                lines = [line for p in pieces for line in p.splitlines()]
                assert lines == t.splitlines(), (block, source)


def test_files_and_stdin_read_as_the_text_parses(tmp_path, monkeypatch):
    text = _mixed_break_text(random.Random(10), 300)
    assert all(b in text for b in LINE_BREAKS)
    inst = parse_instance(text)
    assert inst.n > 100
    for block in (1, 7, 64, 10**6):
        monkeypatch.setattr(instance_io, "_BLOCK", block)
        for way, read in _read_ways(text, tmp_path, monkeypatch).items():
            assert read() == inst, (block, way)


def test_respaced_records_parse_as_the_canonical_text(monkeypatch):
    # tabs, doubled and trailing spaces and comment lines in every other
    # run of 1000 records send those blocks through the line loop; the
    # canonical blocks between them are taken whole
    text = emit_instance(generate("two-line", 1, 10_000))
    rng = random.Random(12)
    lines = []
    for k, line in enumerate(text.splitlines()):
        if k // 1000 % 2 == 0:
            if k % 300 == 0:
                lines.append("# a comment")
            line = rng.choice((" ", "\t", "  ")).join(line.split()) + rng.choice(("", " ", "\t"))
        lines.append(line)
    respaced = "\n".join(lines) + "\n"
    assert "\t" in respaced and "  " in respaced and " \n" in respaced
    inst = parse_instance(text)
    for block in (1, 64, 1000, instance_io._BLOCK):
        monkeypatch.setattr(instance_io, "_BLOCK", block)
        got = parse_instance(respaced)
        assert got == inst == parse_instance(text), block
        assert type(got.frames.x) is array


def test_parse_error_line_numbers_follow_splitlines(tmp_path, monkeypatch):
    # the bad record sits more than one block in, behind every kind of line
    # break, and each way of reading names the same line
    block = instance_io._BLOCK
    text = _mixed_break_text(random.Random(9), block // 4, 3 * block // 2)
    assert text.index("bad 0 0 3 x") > block
    assert all(b in text for b in LINE_BREAKS)
    lineno = text.splitlines().index("bad 0 0 3 x") + 1
    for way, read in _read_ways(text, tmp_path, monkeypatch).items():
        with pytest.raises(ParseError) as err:
            read()
        assert err.value.lineno == lineno, way
        assert str(err.value) == f"line {lineno}: expected integer, got 'x'", way


def test_reading_a_file_never_holds_its_whole_text(tmp_path):
    # a file is read a block at a time, so reading it peaks where parsing
    # its text does, at about 149 bytes a frame; the text takes 32 bytes a
    # frame more, so a read that held it whole would pass 180
    n = 50_000
    text = emit_instance(generate("two-line", 1, n))
    assert len(text) / n > 30
    path = tmp_path / "t.txt"
    path.write_text(text)

    def read():
        with open(path) as file:
            return read_instance(file)

    inst, peak = traced_peak(read)
    assert inst.n == n
    assert peak / n < 165


def test_parse_allocates_little_beyond_what_it_keeps():
    # the ids keep about 64 bytes a frame and the four coordinate columns,
    # machine words written in place, 32 more; lines are split a block at
    # a time and no column is copied
    n = 50_000
    text = emit_instance(generate("two-line", 1, n))
    inst, peak = traced_peak(parse_instance, text)
    assert inst.n == n
    assert peak / n < 170


def test_wide_coordinate_past_the_first_block_switches_to_python_ints():
    # the first coordinate beyond 64 bits is a y, so the record's x is
    # already in its column when the switch comes
    block = instance_io._BLOCK
    records = block // 8
    frames = [LFrame(f"f{k}", Point(k, -k), 3 + k % 5, -1 - k % 7) for k in range(records)]
    frames[records - 100] = LFrame("wide", Point(0, -(2**64)), 3, -1)
    text = emit_instance(GeomInstance(frames=frames))
    assert text.index("wide 0 -18446744073709551616 ") > block
    cols = parse_instance(text).frames
    assert cols == tuple(frames) == FrameColumns.of(frames)
    assert cols.y[records - 100] == -(2**64) and type(cols.y) is tuple
    assert type(cols.x) is array and type(cols.vspan) is array
    # errors after the switch still name their own line
    lineno = text.count("\n") + 1
    with pytest.raises(ValidationError, match=r"^frame 'z': spans must be nonzero$"):
        parse_instance(text + "z 0 0 0 3\n")
    with pytest.raises(ParseError, match=rf"^line {lineno}: expected integer, got 'x'$"):
        parse_instance(text + "z 0 x 3 3\n")


def test_header_after_records_rejected():
    text = "version 1\nf1 0 0 3 3\ndiagonal 4\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_duplicate_header_rejected():
    with pytest.raises(ParseError):
        parse_instance("version 1\nmodel standard\nmodel edge\nf1 0 0 3 3\n")


def test_unknown_model_rejected():
    with pytest.raises(ValidationError):
        parse_instance("version 1\nmodel loose\nf1 0 0 3 3\n")


def test_non_integer_field_rejected():
    with pytest.raises(ParseError):
        parse_instance("version 1\nf1 0 0 3.5 3\n")


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        parse_instance("version 1\nf1 0 0 3 3\nf1 1 1 2 2\n")


def test_degenerate_rect_rejected():
    with pytest.raises(ValidationError):
        parse_instance("version 1\nkind rects\nr1 0 0 0 3\n")


def test_edge_model_with_rects_rejected():
    with pytest.raises(ValidationError):
        parse_instance("version 1\nmodel edge\nkind rects\nr1 0 0 2 2\n")


def test_instance_summary():
    inst = GeomInstance(rects=(Rect("r1", Point(1, 1), Point(3, 4)),), diagonal=2)
    assert instance_summary(inst) == "rects=1 model=standard diagonal=2"
    two_line = GeomInstance(
        frames=(LFrame("a", Point(-5, 3), 6, -4),), model="edge", vline=0, hline=0
    )
    assert instance_summary(two_line) == "frames=1 model=edge vline=0 hline=0"


def test_format_fields_sorts_keys():
    assert format_fields({"b": "2", "a": "1"}) == "a 1\nb 2\n"
