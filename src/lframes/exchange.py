"""Witness arcs between two disjoint dominating sets, and their drawing.

For each vertex u, the closest pair (by squared corner distance) among the
solution frames covering u contributes an arc. The build and the local
exchange check read these covers in one walk over the graph, which a
caller may pass in. The build and the drawing read the corners from the
frame columns, so neither builds an ``LFrame``. Arcs are classified by
how their endpoints meet a shared witness: from the left (corner x at
most the witness corner x) or from below (at least). The drawing places
every arc as one or two half-circles whose diameters lie on the
diagonal, so crossing detection reduces to strict interval interleaving.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional

from .errors import DegeneratePosition, NotDisjoint
from .geometry import GeomInstance, Point, _Record, _set
from .graph_core import IntersectionGraph, build_intersection_graph


class Arc(_Record):
    """Witness arc between b in B and r in R; ``cls`` is "top", "down" or
    "mixed", and ``mixed_orientation`` "b_left" or "r_left"."""

    __slots__ = ("b", "r", "witness", "cls", "witnesses", "mixed_orientation")

    def __init__(self, b: int, r: int, witness: int, cls: str,
                 witnesses: tuple[int, ...] = (), mixed_orientation: Optional[str] = None):
        _set(self, "b", b)
        _set(self, "r", r)
        _set(self, "witness", witness)
        _set(self, "cls", cls)
        _set(self, "witnesses", witnesses)
        _set(self, "mixed_orientation", mixed_orientation)


class ExchangeGraph(_Record):
    """The arcs between the disjoint dominating sets B and R."""

    __slots__ = ("B", "R", "arcs")

    def __init__(self, B: frozenset, R: frozenset, arcs: tuple[Arc, ...]):
        _set(self, "B", B)
        _set(self, "R", R)
        _set(self, "arcs", arcs)


class ArcPiece(_Record):
    """Half circle with diameter endpoints on the diagonal, p0.x < p1.x;
    ``side`` is "above" or "below"."""

    __slots__ = ("p0", "p1", "side")

    def __init__(self, p0: Point, p1: Point, side: str):
        _set(self, "p0", p0)
        _set(self, "p1", p1)
        _set(self, "side", side)


def _vertices(inst: GeomInstance, members: Iterable[int]) -> frozenset:
    """``members`` as a frozenset. Raises ValueError naming the first one
    that is not a vertex index of ``inst``, an int in range(inst.n)."""
    members, n = tuple(members), inst.n
    for v in members:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"member {v!r} is not a vertex of the instance")
    return frozenset(members)


def _covered(g: IntersectionGraph, B: frozenset, R: frozenset):
    """Each vertex u whose closed neighborhood meets B and R, with N[u] & B, N[u] & R."""
    for u, nbrs in enumerate(g.adjacency):
        cover = {u, *nbrs}
        if not (B.isdisjoint(cover) or R.isdisjoint(cover)):
            yield u, cover & B, cover & R


def build_exchange_graph(
    inst: GeomInstance, B: Iterable[int], R: Iterable[int],
    g: Optional[IntersectionGraph] = None,
) -> ExchangeGraph:
    """Arc set {chosen pair of u : u has covering frames in both sets}.

    The chosen pair of u is the b in B and r in R whose frames meet u's
    frame (u itself counts when it belongs to a set) and whose corners are
    closest; ties in squared distance break lexicographically on (b, r).
    Each arc is classified top if some witness sees both endpoints from the
    left, else down if some witness sees both from below, else mixed. The
    designated witness is the qualifying one with the smallest corner x,
    ties by smallest id. ``g`` is the instance's intersection graph, built
    here when none is given. Raises ValueError on a rectangle instance
    (arcs join frame corners) and for a member that is not a vertex index
    of the instance, and NotDisjoint when B and R share a vertex, all
    before any graph is built.
    """
    if inst.rects:
        raise ValueError("exchange graphs are defined on frame instances")
    bset, rset = _vertices(inst, B), _vertices(inst, R)
    if bset & rset:
        raise NotDisjoint(f"common vertices: {sorted(bset & rset)}")
    if g is None:
        g = build_intersection_graph(inst)
    xs, ys = inst.frames.x, inst.frames.y
    pairs: dict[tuple[int, int], list[int]] = {}
    for u, bs, rs in _covered(g, bset, rset):
        _, b, r = min(((xs[b] - xs[r]) ** 2 + (ys[b] - ys[r]) ** 2, b, r) for b in bs for r in rs)
        pairs.setdefault((b, r), []).append(u)

    arcs = []
    for (b, r), ws in sorted(pairs.items()):
        top = [w for w in ws if xs[b] <= xs[w] and xs[r] <= xs[w]]
        down = [w for w in ws if xs[b] >= xs[w] and xs[r] >= xs[w]]
        orientation = None
        if top:
            cls, pool = "top", top
        elif down:
            cls, pool = "down", down
        else:
            cls, pool = "mixed", ws
        witness = min(pool, key=lambda w: (xs[w], w))
        if cls == "mixed":
            orientation = "b_left" if xs[b] < xs[witness] else "r_left"
        arcs.append(Arc(b, r, witness, cls, tuple(sorted(ws)), orientation))
    return ExchangeGraph(bset, rset, tuple(arcs))


def draw_arcs(h: ExchangeGraph, inst: GeomInstance) -> tuple[ArcPiece, ...]:
    """Half-circle drawing: top arcs above the diagonal, down arcs below,
    mixed arcs as an upper piece into the witness corner and a lower piece
    out of it.

    Raises DegeneratePosition when two involved corners share an
    x-coordinate (the drawing assumes general position on the line).
    """
    d = inst.diagonal
    if d is None:
        raise ValueError("instance has no diagonal")
    xs, ys, ids = inst.frames.x, inst.frames.y, inst.ids
    involved = set()
    for a in h.arcs:
        involved.update((a.b, a.r))
        if a.cls == "mixed":
            involved.add(a.witness)
    seen_x: dict[int, int] = {}
    for v in involved:
        x = xs[v]
        if x + ys[v] != d:
            raise ValueError(f"corner of frame {ids[v]!r} is off the diagonal")
        if x in seen_x and seen_x[x] != v:
            raise DegeneratePosition(f"frames {ids[seen_x[x]]!r} and {ids[v]!r} share corner x")
        seen_x[x] = v

    def span(u: int, v: int, side: str) -> ArcPiece:
        if xs[u] > xs[v]:
            u, v = v, u
        return ArcPiece(Point(xs[u], ys[u]), Point(xs[v], ys[v]), side)

    pieces = []
    for a in h.arcs:
        if a.cls == "top":
            pieces.append(span(a.b, a.r, "above"))
        elif a.cls == "down":
            pieces.append(span(a.b, a.r, "below"))
        else:
            left, right = (a.b, a.r) if a.mixed_orientation == "b_left" else (a.r, a.b)
            pieces.append(span(left, a.witness, "above"))
            pieces.append(span(a.witness, right, "below"))
    return tuple(pieces)


def count_crossings(pieces: tuple[ArcPiece, ...]) -> int:
    """Crossing pairs among same-side pieces by strict interval interleaving.

    Pieces sharing an endpoint do not cross; opposite-side pieces can only
    meet on the diagonal itself, which does not count either. Pieces (a, b)
    and (c, d) with a < c cross iff c < b < d, so each side is swept by
    left end: every group of equal left ends c counts the right ends b of
    the earlier pieces that lie in (c, d), then adds its own, in a Fenwick
    tree over the ranks of the right ends. O(p log p) for p pieces.
    """
    crossings = 0
    for side in ("above", "below"):
        spans = sorted((p.p0.x, p.p1.x) for p in pieces if p.side == side)
        ends = sorted({d for _, d in spans})
        tree = [0] * (len(ends) + 1)  # tree[i] counts a span of ranks ending at i - 1
        for c, group in groupby(spans, key=itemgetter(0)):
            ranks = [bisect_left(ends, d) for _, d in group]
            after_c = _count_below(tree, bisect_right(ends, c))
            for r in ranks:
                crossings += _count_below(tree, r) - after_c
            for r in ranks:
                r += 1
                while r < len(tree):
                    tree[r] += 1
                    r += r & -r
    return crossings


def _count_below(tree: list, rank: int) -> int:
    """How many inserted right ends have a rank below ``rank``."""
    total = 0
    while rank:
        total += tree[rank]
        rank &= rank - 1
    return total


def check_local_exchange(h: ExchangeGraph, g: IntersectionGraph) -> bool:
    """Every vertex covered by both sets has an arc inside its neighborhood."""
    arcs = {(a.b, a.r) for a in h.arcs}
    return all(any((b, r) in arcs for b in bs for r in rs) for _, bs, rs in _covered(g, h.B, h.R))
