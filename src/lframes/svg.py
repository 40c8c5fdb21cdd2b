"""Deterministic SVG 1.1 rendering of instances and arc drawings.

Output is a pure function of the arguments: same input, same bytes. Frames
are drawn as three-point polylines, rectangles as rects, reference lines
dashed, solution objects highlighted, and exchange arcs as half-circle
paths. Arcs are the only ``path`` elements emitted. Frames are read from
the instance's columns (corner x and y, hspan, vspan), so drawing builds
no ``LFrame``.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable, Optional

from .geometry import GeomInstance

if TYPE_CHECKING:  # annotations only: drawing an instance loads no exchange code
    from .exchange import ArcPiece

_SCALE = 20.0
_PAD = 30.0

# frames and rectangles share one outline style, plain or chosen
_SHAPE = 'fill="none" stroke="#222222" stroke-width="1.5"'
_SHAPE_SOL = 'fill="none" stroke="#c62828" stroke-width="3"'
_REF = 'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"'
_ARC = 'fill="none" stroke="#1565c0" stroke-width="1.5"'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    """World-to-screen mapping with the y axis flipped."""

    def __init__(self, xlo: float, ylo: float, xhi: float, yhi: float):
        self.xlo, self.ylo, self.xhi, self.yhi = xlo, ylo, xhi, yhi
        self.width = (xhi - xlo) * _SCALE + 2 * _PAD
        self.height = (yhi - ylo) * _SCALE + 2 * _PAD

    def pt(self, x: float, y: float) -> tuple[float, float]:
        return (
            (x - self.xlo) * _SCALE + _PAD,
            (self.yhi - y) * _SCALE + _PAD,
        )

    def sxy(self, x: float, y: float) -> str:
        sx, sy = self.pt(x, y)
        return f"{_fmt(sx)},{_fmt(sy)}"

    def ref_line(self, x1: float, y1: float, x2: float, y2: float) -> str:
        """Dashed reference line between two world points."""
        (sx1, sy1), (sx2, sy2) = self.pt(x1, y1), self.pt(x2, y2)
        return (
            f'<line x1="{_fmt(sx1)}" y1="{_fmt(sy1)}" x2="{_fmt(sx2)}" y2="{_fmt(sy2)}" {_REF}/>'
        )


def _bounds(inst: GeomInstance, arcs: Optional[tuple[ArcPiece, ...]]) -> tuple[float, float, float, float]:
    # a frame spans from its corner to its arm tips (x + hspan, y) and (x, y + vspan)
    fr = inst.frames
    xs: list[float] = [*fr.x, *map(operator.add, fr.x, fr.hspan)]
    ys: list[float] = [*fr.y, *map(operator.add, fr.y, fr.vspan)]
    for r in inst.rects:
        xs.extend((r.lo.x, r.hi.x))
        ys.extend((r.lo.y, r.hi.y))
    if arcs is not None:
        for piece in arcs:
            # the half circle bulges from the chord's midpoint by its radius,
            # up and right above the diagonal, down and left below it
            (x0, y0), (x1, y1) = piece.p0, piece.p1
            r = math.hypot(x1 - x0, y1 - y0) / 2.0
            if piece.side == "below":
                r = -r
            xs.extend((x0, x1, (x0 + x1) / 2.0 + r))
            ys.extend((y0, y1, (y0 + y1) / 2.0 + r))
    if not xs:
        return -5.0, -5.0, 5.0, 5.0
    return min(xs), min(ys), max(xs), max(ys)


def _ref_lines(inst: GeomInstance, cv: _Canvas) -> list[str]:
    out = []
    if (d := inst.diagonal) is not None:
        xlo = max(cv.xlo, d - cv.yhi)
        xhi = min(cv.xhi, d - cv.ylo)
        if xlo <= xhi:
            out.append(cv.ref_line(xlo, d - xlo, xhi, d - xhi))
    if inst.vline is not None and cv.xlo <= inst.vline <= cv.xhi:
        out.append(cv.ref_line(inst.vline, cv.ylo, inst.vline, cv.yhi))
    if inst.hline is not None and cv.ylo <= inst.hline <= cv.yhi:
        out.append(cv.ref_line(cv.xlo, inst.hline, cv.xhi, inst.hline))
    return out


def render_svg(
    inst: GeomInstance,
    solution: Optional[Iterable[int]] = None,
    arcs: Optional[tuple[ArcPiece, ...]] = None,
) -> str:
    """Render the instance, an optional solution, and optional arcs.

    Raises ValueError when a coordinate or the canvas size is not a finite
    float, as the drawing could not place it.
    """
    chosen = frozenset(solution) if solution is not None else frozenset()
    try:
        cv = _Canvas(*_bounds(inst, arcs))
        finite = all(map(math.isfinite, (cv.xlo, cv.ylo, cv.xhi, cv.yhi, cv.width, cv.height)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("cannot draw: coordinates and canvas size must be finite floats")

    body: list[str] = []
    if inst.n == 0:
        # nothing to draw, show the coordinate axes
        body.append(cv.ref_line(cv.xlo, 0, cv.xhi, 0))
        body.append(cv.ref_line(0, cv.ylo, 0, cv.yhi))
    # a vline 0 or hline 0 is an axis already: each line is drawn once
    body.extend(line for line in _ref_lines(inst, cv) if line not in body)

    fr = inst.frames
    for i, (x, y, h, v) in enumerate(zip(fr.x, fr.y, fr.hspan, fr.vspan)):
        # vertical arm tip, corner, horizontal arm tip
        pts = f"{cv.sxy(x, y + v)} {cv.sxy(x, y)} {cv.sxy(x + h, y)}"
        style = _SHAPE_SOL if i in chosen else _SHAPE
        body.append(f'<polyline points="{pts}" {style}/>')
        if i in chosen:
            sx, sy = cv.pt(x, y)
            body.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="#c62828"/>')
    for i, r in enumerate(inst.rects):
        sx, sy = cv.pt(r.lo.x, r.hi.y)
        w = (r.hi.x - r.lo.x) * _SCALE
        h = (r.hi.y - r.lo.y) * _SCALE
        style = _SHAPE_SOL if i in chosen else _SHAPE
        body.append(
            f'<rect x="{_fmt(sx)}" y="{_fmt(sy)}" width="{_fmt(w)}" height="{_fmt(h)}" {style}/>'
        )

    if arcs is not None:
        for piece in arcs:
            (x1, y1), (x2, y2) = (
                cv.pt(piece.p0.x, piece.p0.y),
                cv.pt(piece.p1.x, piece.p1.y),
            )
            r = math.hypot(x2 - x1, y2 - y1) / 2.0
            sweep = 1 if piece.side == "above" else 0
            body.append(
                f'<path d="M {_fmt(x1)} {_fmt(y1)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} '
                f'{_fmt(x2)} {_fmt(y2)}" {_ARC}/>'
            )

    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(cv.width)}" height="{_fmt(cv.height)}" '
        f'viewBox="0 0 {_fmt(cv.width)} {_fmt(cv.height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
