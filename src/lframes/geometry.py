"""Exact integer geometry: L-frames, rectangles, instances with their
reference lines, predicates, and the solvers' result type, ``DominatingSet``.

Everything here is pure integer arithmetic on closed segments. There is no
floating point anywhere; distance comparisons use squared distances.

The package's record classes (the frozen value objects here and in the
solver modules) derive from ``_Record``. Each names its fields once, in
``__slots__`` and in constructor order, and its own ``__init__`` validates
the arguments and stores them with ``_set``. A slot whose name starts with
``_`` is internal: it stays out of equality, hashing, ``repr`` and the
constructor. From the fields the base derives equality with objects of the
same class only, a hash, a ``Name(field=value, ...)`` repr, pickling and
copying (both call the constructor again) and ``_replace(**changes)``,
which also builds through the constructor, so validation runs again.
Assigning or deleting an attribute raises AttributeError, and records have
no ordering. No method is generated at import time and defining a record
imports nothing, so the records add almost nothing to a CLI call's start-up.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Sequence
from typing import NamedTuple, Optional

from .errors import NotAnchored

_set = object.__setattr__  # stores a field of a record in its __init__

# the reference lines of an instance: x + y = diagonal, x = vline, y = hline
_LINES = ("diagonal", "vline", "hline")

# the adjacency models: "standard" (a shared point), "edge" (a shared unit grid edge)
_MODELS = ("standard", "edge")


def _integer(value, what: str = "coordinate") -> int:
    """``value`` as an int (``operator.index``), else ValueError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class _Record:
    """Base of the record classes; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with the given fields changed, validated as a new record."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Point(NamedTuple):
    x: int
    y: int


def check_spans(fid: str, hspan: int, vspan: int) -> None:
    """Raise ValueError unless both arms of frame ``fid`` have nonzero length."""
    if hspan == 0 or vspan == 0:
        raise ValueError(f"frame {fid!r}: spans must be nonzero")


class LFrame(_Record):
    """Union of a horizontal and a vertical closed segment sharing a corner.

    The horizontal segment runs from ``corner`` to ``corner + (hspan, 0)``,
    the vertical one from ``corner`` to ``corner + (0, vspan)``. Both spans
    are nonzero; the sign pair picks one of the four orientations.
    """

    __slots__ = ("id", "corner", "hspan", "vspan")

    def __init__(self, id: str, corner: Point, hspan: int, vspan: int):
        if type(corner) is not Point:
            corner = Point(*corner)
        check_spans(id, hspan, vspan)
        _set(self, "id", id)
        _set(self, "corner", corner)
        _set(self, "hspan", hspan)
        _set(self, "vspan", vspan)

    def hseg(self) -> tuple[int, int, int]:
        """Horizontal arm as (y, x_lo, x_hi) with x_lo <= x_hi."""
        x2 = self.corner.x + self.hspan
        lo, hi = (self.corner.x, x2) if self.corner.x <= x2 else (x2, self.corner.x)
        return self.corner.y, lo, hi

    def vseg(self) -> tuple[int, int, int]:
        """Vertical arm as (x, y_lo, y_hi) with y_lo <= y_hi."""
        y2 = self.corner.y + self.vspan
        lo, hi = (self.corner.y, y2) if self.corner.y <= y2 else (y2, self.corner.y)
        return self.corner.x, lo, hi

    def hand(self) -> Point:
        """Free endpoint of the horizontal arm."""
        return Point(self.corner.x + self.hspan, self.corner.y)

    def vhand(self) -> Point:
        """Free endpoint of the vertical arm."""
        return Point(self.corner.x, self.corner.y + self.vspan)


def _column(values) -> Sequence[int]:
    """``values`` as an ``array('q')`` when every one fits a signed 64-bit
    word, else as a tuple of ints. A ``q`` array is kept as it is, not
    copied. Raises ValueError for a value that is not an integer."""
    if type(values) is array and values.typecode == "q":
        return values
    if not isinstance(values, (list, tuple, array)):
        values = tuple(values)
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return tuple(map(_integer, values))


class FrameColumns(Sequence):
    """A read-only sequence of L-frames stored as five parallel columns.

    ``ids`` holds the frame ids as a tuple. ``x`` and ``y`` hold the
    corners and ``hspan`` and ``vspan`` the signed arm lengths, each as an
    ``array('q')`` of machine words when every value of that column fits
    in a signed 64-bit word, else as a tuple of Python ints, so
    coordinates of any size work; the values alone decide. An array
    given as a column is kept, not copied, and arrays are mutable, so
    nothing may write a column once it is here: not the caller that
    handed it over, not a reader. Code on hot paths reads the columns;
    indexing or iterating builds the ``LFrame`` objects, once, on first
    use. Two sequences are equal when they hold equal frames in the same
    order, whether columns or a tuple of ``LFrame``.
    """

    __slots__ = ("ids", "x", "y", "hspan", "vspan", "_frames")

    def __init__(self, ids, x, y, hspan, vspan):
        self.ids = tuple(ids)
        self.x, self.y, self.hspan, self.vspan = map(_column, (x, y, hspan, vspan))
        if len({len(self.ids), len(self.x), len(self.y), len(self.hspan), len(self.vspan)}) > 1:
            raise ValueError("frame columns differ in length")
        if 0 in self.hspan or 0 in self.vspan:
            for fid, h, v in zip(self.ids, self.hspan, self.vspan):
                check_spans(fid, h, v)
        self._frames = None

    @classmethod
    def of(cls, frames: Iterable[LFrame]) -> FrameColumns:
        """Columns of the given frames, which are kept as the built objects."""
        frames = tuple(frames)
        cols = cls(
            [f.id for f in frames],
            [f.corner.x for f in frames],
            [f.corner.y for f in frames],
            [f.hspan for f in frames],
            [f.vspan for f in frames],
        )
        cols._frames = frames
        return cols

    def _built(self) -> tuple[LFrame, ...]:
        if self._frames is None:
            self._frames = tuple(map(LFrame, self.ids, map(Point, self.x, self.y), self.hspan, self.vspan))
        return self._frames

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, FrameColumns):
            # equal integer columns get the same storage, so they compare equal
            return (self.ids, self.x, self.y, self.hspan, self.vspan) == (
                other.ids, other.x, other.y, other.hspan, other.vspan)
        if isinstance(other, tuple):
            return self._built() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._built())

    def __repr__(self):
        return f"FrameColumns({self._built()!r})"


class Rect(_Record):
    """Closed axis-parallel rectangle with integer corners, lo strictly
    southwest of hi."""

    __slots__ = ("id", "lo", "hi")

    def __init__(self, id: str, lo: Point, hi: Point):
        lo, hi = Point(*map(_integer, lo)), Point(*map(_integer, hi))
        if not (lo.x < hi.x and lo.y < hi.y):
            raise ValueError(f"rect {id!r}: degenerate")
        _set(self, "id", id)
        _set(self, "lo", lo)
        _set(self, "hi", hi)


class DominatingSet(_Record):
    """A vertex set intended to dominate some graph; members sorted."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]):
        _set(self, "members", tuple(sorted(members)))

    @property
    def size(self) -> int:
        return len(self.members)


class GeomInstance(_Record):
    """A family of frames or rectangles plus optional reference lines.

    ``model`` selects the adjacency predicate: "standard" means nonempty
    point intersection, "edge" means sharing a unit grid edge. Frames and
    rectangles are mutually exclusive. The three reference lines are each
    None or an int: the diagonal x + y = ``diagonal``, the vertical line
    x = ``vline`` and the horizontal line y = ``hline``. Any other value
    raises ValueError.

    Frames are held as integer columns (``FrameColumns``): ``frames`` may
    be given as columns or as any iterable of ``LFrame``, and reads back as
    a read-only sequence of ``LFrame`` built from the columns at most once.
    Rectangles are held as a tuple of ``Rect``.
    """

    __slots__ = ("frames", "rects", "model", "diagonal", "vline", "hline")

    def __init__(
        self,
        frames: Sequence[LFrame] = (),
        rects: tuple[Rect, ...] = (),
        model: str = "standard",
        diagonal: Optional[int] = None,
        vline: Optional[int] = None,
        hline: Optional[int] = None,
    ):
        if not isinstance(frames, FrameColumns):
            frames = FrameColumns.of(frames)
        rects = tuple(rects)
        if frames and rects:
            raise ValueError("frames and rects are mutually exclusive")
        if model not in _MODELS:
            raise ValueError(f"unknown model {model!r}")
        if model == "edge" and rects:
            raise ValueError("edge model is defined for frames only")
        _set(self, "frames", frames)
        _set(self, "rects", rects)
        _set(self, "model", model)
        for name, line in zip(_LINES, (diagonal, vline, hline)):
            _set(self, name, None if line is None else _integer(line, name))
        ids = self.ids
        if len(set(ids)) != len(ids):
            raise ValueError("object ids must be unique")

    @property
    def objects(self) -> Sequence:
        return self.frames if self.frames else self.rects

    @property
    def ids(self) -> tuple[str, ...]:
        """Object ids in instance order."""
        return self.frames.ids if self.frames else tuple(r.id for r in self.rects)

    @property
    def n(self) -> int:
        return len(self.objects)


def _overlap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    return max(a_lo, b_lo) <= min(a_hi, b_hi)


def _h_meets_v(h: tuple[int, int, int], v: tuple[int, int, int]) -> bool:
    hy, hx0, hx1 = h
    vx, vy0, vy1 = v
    return hx0 <= vx <= hx1 and vy0 <= hy <= vy1


def lframe_intersect(a: LFrame, b: LFrame) -> bool:
    """True iff the closed point sets of the two frames share a point.

    Symmetric and reflexive. A single shared point (including an endpoint
    touching the other segment) counts.
    """
    ah, av = a.hseg(), a.vseg()
    bh, bv = b.hseg(), b.vseg()
    if ah[0] == bh[0] and _overlap(ah[1], ah[2], bh[1], bh[2]):
        return True
    if av[0] == bv[0] and _overlap(av[1], av[2], bv[1], bv[2]):
        return True
    return _h_meets_v(ah, bv) or _h_meets_v(bh, av)


def rect_intersect(a: Rect, b: Rect) -> bool:
    """Closed-box overlap, boundary touch included."""
    return _overlap(a.lo.x, a.hi.x, b.lo.x, b.hi.x) and _overlap(
        a.lo.y, a.hi.y, b.lo.y, b.hi.y
    )


def rect_to_lframe(r: Rect, d: int) -> LFrame:
    """Replace a rectangle anchored at the diagonal x + y = d by the
    equivalent L-frame.

    The rectangle must meet the diagonal in exactly one corner. The result
    keeps the two sides incident to that corner (the boundary facing the
    line); replacing every rectangle of an anchored family this way leaves
    the intersection graph unchanged.

    Raises NotAnchored when the rectangle misses the line or the line cuts
    through its interior.
    """
    lo_sum = r.lo.x + r.lo.y
    hi_sum = r.hi.x + r.hi.y
    w = r.hi.x - r.lo.x
    h = r.hi.y - r.lo.y
    if d == lo_sum:
        return LFrame(r.id, r.lo, w, h)
    if d == hi_sum:
        return LFrame(r.id, r.hi, -w, -h)
    raise NotAnchored(f"rect {r.id!r} is not anchored at x+y={d}")


def is_anchored(f: LFrame, d: int, side: str) -> bool:
    """True iff f's corner lies on the diagonal x + y = d and f opens into
    ``side``.

    side="above" means both arms point into the open halfplane x+y > d
    (positive spans); side="below" means both point into x+y < d. This is
    the configuration produced by rect_to_lframe and assumed by the
    exchange-graph drawing, where arc endpoints are frame corners on the
    line.
    """
    if side not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    if f.corner.x + f.corner.y != d:
        return False
    if side == "above":
        return f.hspan > 0 and f.vspan > 0
    return f.hspan < 0 and f.vspan < 0


def rotate_cw(f: LFrame) -> LFrame:
    """Rotate a frame 90 degrees clockwise about the origin: (x,y) -> (y,-x)."""
    c = f.corner
    return LFrame(f.id, Point(c.y, -c.x), f.vspan, -f.hspan)
