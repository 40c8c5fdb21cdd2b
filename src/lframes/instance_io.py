"""Plain-text instance files and the key-value report lines of the CLI.

The instance format is line oriented: whitespace-separated fields, ``#``
starts a comment, blank lines are ignored. A header declares the format
version, the adjacency model, the record kind, and any reference lines;
each following line is one record, ``id corner-x corner-y hspan vspan``
for frames or ``id lo-x lo-y hi-x hi-y`` for rectangles:

    version 1
    model standard
    kind frames
    diagonal 12
    f1 0 12 3 3

``parse_instance(emit_instance(inst))`` reproduces ``inst`` exactly.
``parse_instance`` takes the text as a str; ``read_instance`` takes an
open text file, such as stdin, and gives what ``parse_instance`` gives on
its text without ever holding that text whole.

Frame records are read in one pass into the integer columns of
``FrameColumns`` and written back from them, so neither direction builds
an ``LFrame`` object. Records are checked in file order, so the error
reported is the one on the earliest bad line. One parser serves both
readers: it takes pieces of about ``_BLOCK`` characters, cut from the
str or read from the file, each ending just after a line break, and
never makes one list of every line. After the header, a piece of frame
records that is canonical, as ``emit_instance`` writes it, is taken
whole: it holds no ``#``, and it is the lines of its fields, five to a
line, one space between them and ``\n`` after the fifth. One split gives
its fields, and its four integer columns are converted by
``map(int, ...)``. If a field is not an integer, a span is zero or a
value needs more than 64 bits, the piece is read as any other. Every
other piece (the header, the first piece, comments, other spacing, rect
records) goes through one loop a line at a time, which splits each line
into fields once and reads it as the version line, a header declaration
or a record, so its errors name their line. The integers go into
machine-word columns (``array('q')``), which ``FrameColumns`` keeps
without a copy; the first value beyond 64 bits turns the four columns
into lists of Python ints from that record on, and ``FrameColumns`` then
stores each as its values allow.

Reports are one ``key value`` line per field, keys sorted
(``format_fields``).
"""

from __future__ import annotations

from array import array
from typing import TextIO

from .errors import ParseError, ValidationError
from .geometry import _LINES, _MODELS, FrameColumns, GeomInstance, Point, Rect

FORMAT_VERSION = 1

_KINDS = ("frames", "rects")
_HEADER_KEYWORDS = ("model", "kind", *_LINES)


def emit_instance(inst: GeomInstance) -> str:
    """The instance as text that ``parse_instance`` reads back exactly.

    Raises ValueError for an id that would not read back as one field: an
    empty id, or one holding whitespace (line breaks included) or ``#``.
    """
    ids = inst.ids
    joined = " ".join(ids)
    if "#" in joined or tuple(joined.split()) != ids:
        bad = next(i for i in ids if "#" in i or i.split() != [i])
        raise ValueError(f"id {bad!r} cannot be written: it is empty or holds whitespace or '#'")
    lines = [
        f"version {FORMAT_VERSION}",
        f"model {inst.model}",
        f"kind {'rects' if inst.rects else 'frames'}",
    ]
    for name in _LINES:
        if (line := getattr(inst, name)) is not None:
            lines.append(f"{name} {line}")
    fr = inst.frames
    lines += map("{} {} {} {} {}".format, fr.ids, fr.x, fr.y, fr.hspan, fr.vspan)
    for r in inst.rects:
        lines.append(f"{r.id} {r.lo.x} {r.lo.y} {r.hi.x} {r.hi.y}")
    return "\n".join(lines) + "\n"


def _ints(tokens: list[str], lineno: int) -> list[int]:
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ParseError(lineno, f"expected integer, got {t!r}") from None
    return out


_BLOCK = 1 << 13  # characters read and parsed at a time


def _blocks(source):
    """Consecutive pieces of ``source``, a str or an open text file, of
    about ``_BLOCK`` characters, each ending just after a line break or at
    the end. A str is cut after the first ``\n`` at least ``_BLOCK``
    characters on. A file's piece is ``_BLOCK`` characters read, completed
    by ``readline``, which in the newline modes of ``open`` and of stdin
    ends just after a ``\n``."""
    if isinstance(source, str):
        start, end = 0, len(source)
        while start < end:
            stop = source.find("\n", start + _BLOCK) + 1 or end
            yield source[start:stop]
            start = stop
        return
    while block := source.read(_BLOCK):
        yield block + source.readline()


def _canonical(block: str):
    """The ids and the four integer columns of ``block`` if it is a
    canonical piece of frame records that holds no error (see the module
    docstring); else None, and the line loop reads the block."""
    tok = () if "#" in block else block.split()
    if not tok or "\n".join(map(" ".join, zip(*[iter(tok)] * 5))) + "\n" != block:
        return None
    try:
        cols = [array("q", list(map(int, tok[k::5]))) for k in range(1, 5)]
    except (ValueError, OverflowError):
        return None
    return (tok[0::5], *cols) if all(cols[2]) and all(cols[3]) else None


def parse_instance(text: str) -> GeomInstance:
    """Read an instance file back into a GeomInstance.

    Raises ParseError for malformed syntax and ValidationError when the
    file is well formed but describes an invalid instance.
    """
    return _parse(text)


def read_instance(file: TextIO) -> GeomInstance:
    """``parse_instance`` of what an open text file holds from where it
    stands, read a block at a time, so the whole text is never held.

    Raises what ``parse_instance`` raises, for the earliest bad line, and
    what reading the file raises, such as UnicodeDecodeError for bytes
    that do not decode, when the read gets there first.
    """
    return _parse(file)


def _parse(source) -> GeomInstance:
    model = "standard"
    kind = "frames"
    ref_lines: dict[str, int] = {}  # the declared reference lines
    seen: set[str] = set()
    version_seen = False
    frames = None  # whether the records are frames; None until the header ends

    ids: list[str] = []
    # machine-word columns until a value needs more than 64 bits, then
    # Python-int lists from that record on
    xs, ys, hspans, vspans = array("q"), array("q"), array("q"), array("q")
    rects: list[Rect] = []
    lineno = 0
    for block in _blocks(source):
        if frames and (whole := _canonical(block)):
            for col, values in zip((ids, xs, ys, hspans, vspans), whole):
                col.extend(values)
            lineno += len(whole[0])
            continue
        for lineno, raw in enumerate(block.splitlines(), lineno + 1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            name, rest = tokens[0], tokens[1:]

            if not version_seen:
                if name != "version":
                    raise ParseError(lineno, "file must start with a version line")
                if len(rest) != 1:
                    raise ParseError(lineno, "version takes one field")
                if _ints(rest, lineno)[0] != FORMAT_VERSION:
                    raise ParseError(lineno, f"unsupported format version {rest[0]}")
                version_seen = True
            # a header keyword followed by four fields is a record with that id
            elif frames is None and name in _HEADER_KEYWORDS and len(rest) != 4:
                if name in seen:
                    raise ParseError(lineno, f"duplicate {name} declaration")
                if len(rest) != 1:
                    raise ParseError(lineno, f"{name} takes one field")
                seen.add(name)
                if name == "model":
                    if rest[0] not in _MODELS:
                        raise ValidationError(f"unknown model {rest[0]!r}")
                    model = rest[0]
                elif name == "kind":
                    if rest[0] not in _KINDS:
                        raise ValidationError(f"unknown record kind {rest[0]!r}")
                    kind = rest[0]
                else:
                    ref_lines[name] = _ints(rest, lineno)[0]
            elif len(rest) != 4:
                raise ParseError(lineno, "record takes an id and four integers")
            else:
                a, b, c, d = _ints(rest, lineno)
                if frames is None:  # the first record ends the header
                    frames = kind == "frames"
                if not frames:
                    try:
                        rects.append(Rect(name, Point(a, b), Point(c, d)))
                    except ValueError as e:
                        raise ValidationError(str(e)) from None
                    continue
                if not (c and d):
                    raise ValidationError(f"frame {name!r}: spans must be nonzero")
                ids.append(name)
                try:
                    xs.append(a)
                    ys.append(b)
                    hspans.append(c)
                    vspans.append(d)
                except OverflowError:  # this record and those before it, as lists
                    k = len(ids) - 1
                    xs, ys, hspans, vspans = [col[:k].tolist() + [value] for col, value
                                              in zip((xs, ys, hspans, vspans), (a, b, c, d))]

    if not version_seen:
        raise ParseError(1, "empty file, expected a version line")
    ids = tuple(ids)  # frees the list, so one copy of the ids stays alive
    try:
        return GeomInstance(
            frames=FrameColumns(ids, xs, ys, hspans, vspans),
            rects=rects,
            model=model,
            **ref_lines,
        )
    except ValueError as e:
        raise ValidationError(str(e)) from None


def instance_summary(inst: GeomInstance) -> str:
    """Compact one-token-pair description used in reports."""
    kind = "rects" if inst.rects else "frames"
    parts = [f"{kind}={inst.n}", f"model={inst.model}"]
    for name in _LINES:
        if (line := getattr(inst, name)) is not None:
            parts.append(f"{name}={line}")
    return " ".join(parts)


def format_fields(fields: dict[str, str]) -> str:
    """One ``key value`` line per entry, keys sorted."""
    return "\n".join(f"{k} {v}" for k, v in sorted(fields.items())) + "\n"
