"""Gadget constructions mapping classic hard problems onto frame families.

Four sources are supported: chord diagrams of a circle (two target
geometries, one family of frames hanging below a diagonal and one pinned to
a vertical line), planar monotone rectilinear 3SAT drawings, vertex cover,
and edge dominating set on bipartite graphs. Each construction ships a
certificate tying the source instance to the produced frame family, and
verify_equivalence recomputes both optima by brute force to check the
claimed relation. The table ``_KINDS`` is the one home of each reduction
kind: its seeded source, its certificate, its reach limits and its source
optimum, read by reduction_source, build_certificate, check_reach and
verify_equivalence.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import InvalidDrawing, SourceTooLarge
from .generators import gen_bipartite, gen_chord_diagram, gen_graph
from .geometry import GeomInstance, LFrame, Point, _integer, _Record, _set, rotate_cw
from .graph_core import IntersectionGraph, build_intersection_graph, exact_mds_size


class ReductionCertificate(_Record):
    """Links a source instance to the frame family built from it.

    ``kind`` names the reduction and ``source`` holds its input: the chord
    diagram, the 3SAT drawing, ``(n, edges)`` for vertex cover or
    ``(n_a, n_b, edges)`` for edge domination. ``instance`` is the frame
    family built from it. ``offset`` is the claimed difference between the
    reduced optimum and the source optimum (for the sat kind it is the
    domination number that satisfiability pins down).
    """

    __slots__ = ("kind", "source", "instance", "offset")


class EquivalenceReport(_Record):
    """Both recomputed optima plus the verdict on the claimed offset."""

    __slots__ = ("kind", "source_value", "reduced_value", "offset", "ok")


# -- chord diagrams ----------------------------------------------------------


class ChordDiagram(_Record):
    """n chords of a circle given by the cyclic order of their 2n endpoints.

    ``order`` lists chord ids 1..n, each appearing exactly twice. ``_ends``
    maps each chord to its two positions.
    """

    __slots__ = ("n", "order", "_ends")

    def __init__(self, n: int, order: tuple[int, ...]):
        n = _integer(n, "chord count")
        order = tuple(_integer(c, "chord") for c in order)
        if n < 1:
            raise ValueError("a chord diagram needs at least one chord")
        if len(order) != 2 * n:
            raise ValueError(f"expected {2 * n} endpoints, got {len(order)}")
        ends: dict[int, list[int]] = {}
        for pos, c in enumerate(order, start=1):
            ends.setdefault(c, []).append(pos)
        for c in range(1, n + 1):
            if len(ends.get(c, ())) != 2:
                raise ValueError(f"chord {c} must appear exactly twice")
        _set(self, "n", n)
        _set(self, "order", order)
        _set(self, "_ends", {c: tuple(ps) for c, ps in ends.items()})

    def positions(self, c: int) -> tuple[int, int]:
        """The two 1-based endpoint positions of chord c, ascending."""
        return self._ends[c]


def chords_interleave(cd: ChordDiagram, a: int, b: int) -> bool:
    """True iff the endpoints of the two chords alternate around the circle."""
    j, k = cd.positions(a)
    l, m = cd.positions(b)
    return j < l < k < m or l < j < m < k


def circle_graph(cd: ChordDiagram) -> IntersectionGraph:
    """Interleaving graph of the diagram: vertex c - 1 is chord c, the
    frame with id ``c{c}`` in either reduced instance."""
    edges = [
        (a - 1, b - 1)
        for a in range(1, cd.n + 1)
        for b in range(a + 1, cd.n + 1)
        if chords_interleave(cd, a, b)
    ]
    return IntersectionGraph(cd.n, edges)


def circle_to_diagonal(cd: ChordDiagram) -> GeomInstance:
    """Frames below x+y = 2n+1 whose intersections mirror chord interleaving.

    Endpoint position i becomes the anchor ((2n+1)-i, i) on the diagonal. A
    chord occupying positions j < k becomes the frame with corner at
    ((2n+1)-k, j) and both arms of length k-j, so its arm tips are exactly
    the two anchors. Two frames meet iff their position pairs alternate.
    """
    m = 2 * cd.n + 1
    frames = []
    for c in range(1, cd.n + 1):
        j, k = cd.positions(c)
        frames.append(LFrame(f"c{c}", Point(m - k, j), k - j, k - j))
    return GeomInstance(frames=tuple(frames), diagonal=m)


def circle_to_vertical(cd: ChordDiagram) -> GeomInstance:
    """Frames through the line x = 2n+2 with the same interleaving pattern.

    Endpoint position i becomes the staircase point (i, (2n+1)-i). A chord
    at positions j < k gets its corner at (j, (2n+1)-k), a vertical arm up
    to the staircase point of j, and a horizontal arm crossing the line.
    """
    m = 2 * cd.n + 1
    frames = []
    for c in range(1, cd.n + 1):
        j, k = cd.positions(c)
        frames.append(LFrame(f"c{c}", Point(j, m - k), (m + 1) - j, k - j))
    return GeomInstance(frames=tuple(frames), vline=m + 1)


def circle_certificate(cd: ChordDiagram, variant: str = "diagonal") -> ReductionCertificate:
    """Certificate for either circle construction; the offset is zero."""
    if variant == "diagonal":
        inst = circle_to_diagonal(cd)
    elif variant == "vertical":
        inst = circle_to_vertical(cd)
    else:
        raise ValueError(f"variant must be 'diagonal' or 'vertical', got {variant!r}")
    return ReductionCertificate(kind=f"circle-{variant}", source=cd, instance=inst, offset=0)


# -- monotone rectilinear 3SAT -----------------------------------------------


class ClauseSpec(_Record):
    """One clause of a monotone drawing.

    ``literals`` are variable indices (all plain for a positive clause, all
    negated for a negative one); ``legs`` gives the x position where each
    literal's vertical connection meets its variable, one per literal.
    Both are integers; the pairs are stored sorted by literal. ``positive``
    is a bool.
    """

    __slots__ = ("literals", "positive", "legs")

    def __init__(self, literals: tuple[int, ...], positive: bool, legs: tuple[int, ...]):
        lits = tuple(_integer(v, "literal") for v in literals)
        legs = tuple(_integer(p, "leg position") for p in legs)
        if type(positive) is not bool:
            raise ValueError(f"positive must be a bool, got {positive!r}")
        if not 1 <= len(lits) <= 3:
            raise InvalidDrawing("a clause carries one to three literals")
        if len(set(lits)) != len(lits):
            raise InvalidDrawing("clause literals must be distinct")
        if len(legs) != len(lits):
            raise InvalidDrawing("one leg position per literal")
        if any(p < 1 for p in legs):
            raise InvalidDrawing("leg positions are positive integers")
        pairs = sorted(zip(lits, legs))
        _set(self, "literals", tuple(p[0] for p in pairs))
        _set(self, "positive", positive)
        _set(self, "legs", tuple(p[1] for p in pairs))


class Monotone3SATDrawing(_Record):
    """A planar rectilinear drawing of a monotone 3SAT formula.

    Variables sit on the x axis in index order; positive clauses live above,
    negative below. Validation rejects drawings whose legs would cross a
    clause's horizontal segment; a clause whose leg span lies strictly
    inside another same-side clause's span nests under it.
    """

    __slots__ = ("n_vars", "clauses")

    def __init__(self, n_vars: int, clauses: tuple[ClauseSpec, ...]):
        n_vars = _integer(n_vars, "variable count")
        clauses = tuple(clauses)
        if n_vars < 1:
            raise InvalidDrawing("need at least one variable")
        if not clauses:
            raise InvalidDrawing("need at least one clause")
        for c in clauses:
            for v in c.literals:
                if not 1 <= v <= n_vars:
                    raise InvalidDrawing(f"variable {v} out of range")
        legs_all = [p for c in clauses for p in c.legs]
        if len(set(legs_all)) != len(legs_all):
            raise InvalidDrawing("leg positions must be distinct")
        clusters = _clusters(n_vars, clauses)
        for i in range(1, n_vars + 1):
            if not clusters[i]:
                raise InvalidDrawing(f"variable {i} appears in no clause")
        for i in range(1, n_vars):
            if clusters[i][-1] >= clusters[i + 1][0]:
                raise InvalidDrawing(
                    f"leg clusters of variables {i} and {i + 1} are out of order"
                )
        # a leg strictly inside another same-side clause's span forces
        # nesting, otherwise the leg would cross that clause's horizontal
        spans = [(min(c.legs), max(c.legs)) for c in clauses]
        for a, ca in enumerate(clauses):
            alo, ahi = spans[a]
            for b, cb in enumerate(clauses):
                blo, bhi = spans[b]
                if a == b or ca.positive != cb.positive or blo < alo and ahi < bhi:
                    continue
                for p in ca.legs:
                    if blo < p < bhi:
                        raise InvalidDrawing(
                            f"a leg of clause {a + 1} crosses the horizontal "
                            f"segment of clause {b + 1}"
                        )
        _set(self, "n_vars", n_vars)
        _set(self, "clauses", clauses)


def _clusters(n_vars: int, clauses: Iterable[ClauseSpec]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {i: [] for i in range(1, n_vars + 1)}
    for c in clauses:
        for v, p in zip(c.literals, c.legs):
            out[v].append(p)
    return {i: sorted(v) for i, v in out.items()}


def satisfiable(d: Monotone3SATDrawing) -> bool:
    """Brute-force satisfiability of the drawn formula."""
    for m in range(1 << d.n_vars):
        ok = True
        for c in d.clauses:
            vals = [(m >> (v - 1)) & 1 for v in c.literals]
            if not (any(vals) if c.positive else not all(vals)):
                ok = False
                break
        if ok:
            return True
    return False


def _check_sat_embedding(d: Monotone3SATDrawing, frames: tuple[LFrame, ...]) -> None:
    """Reject embeddings where a frame contact disagrees with the formula.

    ``frames`` come in construction order: x{i}t, x{i}f and a{i} for each
    variable i, then one frame per clause.
    """
    for f in frames:
        if abs(f.hspan) != abs(f.vspan):
            raise AssertionError(f"unbalanced arms on {f.id}")
        hy = f.hseg()[0]
        _, vy0, vy1 = f.vseg()
        if not (hy == 0 or vy0 <= 0 <= vy1):
            raise AssertionError(f"{f.id} misses the axis")
    g = build_intersection_graph(GeomInstance(frames=frames))
    first_clause = 3 * d.n_vars - 1
    for i in range(1, d.n_vars + 1):
        xt, xf, a = 3 * i - 3, 3 * i - 2, 3 * i - 1
        on_t, on_f = set(g.adjacency[xt]), set(g.adjacency[xf])
        for j, c in enumerate(d.clauses, start=1):
            member = i in c.literals
            if (first_clause + j in on_t) != (c.positive and member):
                raise InvalidDrawing(
                    f"contact between variable {i} (true side) and clause {j} "
                    f"does not match membership"
                )
            if (first_clause + j in on_f) != (not c.positive and member):
                raise InvalidDrawing(
                    f"contact between variable {i} (false side) and clause {j} "
                    f"does not match membership"
                )
        got = g.adjacency[a]
        if got != (xt, xf):
            names = sorted(frames[u].id for u in got if u not in (xt, xf))
            raise InvalidDrawing(f"anchor frame a{i} touches extra frames {names}")
        if xf not in on_t:
            raise AssertionError(f"variable {i} halves do not meet")


def monotone3sat_to_lframes(
    d: Monotone3SATDrawing,
) -> tuple[GeomInstance, ReductionCertificate]:
    """Frame family whose domination number is n_vars iff the formula holds.

    Each variable contributes a true-side frame, a false-side frame meeting
    it on the axis, and a short anchor frame touching only those two, so any
    dominating set needs at least one frame per variable. Each clause
    contributes one frame touching exactly the frames of its literals. All
    arms come out equal length and every frame meets the axis, which the
    final clockwise rotation turns into a common vertical line at x = 0.

    Raises InvalidDrawing when the drawing cannot be embedded without a
    spurious contact (a variable frame grazing a foreign clause's vertical).
    """
    clusters = _clusters(d.n_vars, d.clauses)
    x_pos = {i: 4 * clusters[i][-1] + 1 for i in clusters}
    # a variable's arm on each side reaches past every clause there naming it
    up = dict.fromkeys(clusters, 3)
    dn = dict.fromkeys(clusters, 3)
    clause_frames = []
    for j, c in enumerate(d.clauses, start=1):
        left = 4 * min(c.legs)
        span = (x_pos[max(c.literals)] + 1) - left
        reach = up if c.positive else dn
        for v in c.literals:
            reach[v] = max(reach[v], span + 1)
        if c.positive:
            clause_frames.append(LFrame(f"c{j}", Point(left, span), span, -span))
        else:
            clause_frames.append(LFrame(f"c{j}", Point(left, -span), span, span))
    frames: list[LFrame] = []
    for i in range(1, d.n_vars + 1):
        x = x_pos[i]
        frames.append(LFrame(f"x{i}t", Point(x, up[i]), up[i], -up[i]))
        frames.append(LFrame(f"x{i}f", Point(x, -dn[i]), dn[i], dn[i]))
        frames.append(LFrame(f"a{i}", Point(x, 0), 1, 1))
    frames.extend(clause_frames)
    _check_sat_embedding(d, tuple(frames))
    inst = GeomInstance(frames=tuple(rotate_cw(f) for f in frames), vline=0)
    return inst, ReductionCertificate(kind="sat", source=d, instance=inst, offset=d.n_vars)


def sat_corpus() -> tuple[Monotone3SATDrawing, ...]:
    """Twelve hand-drawn formulas covering the interesting shapes.

    Entries 2, 4 and 8 are unsatisfiable; the rest are satisfiable. The
    collection exercises single-literal clauses, full triples, duplicated
    clauses, nesting up to depth two, and both sides of the axis.
    """

    def c(lits, positive, legs):
        return ClauseSpec(tuple(lits), positive, tuple(legs))

    return (
        # 1: x1
        Monotone3SATDrawing(1, (c((1,), True, (1,)),)),
        # 2: x1, !x1 (unsat)
        Monotone3SATDrawing(1, (c((1,), True, (1,)), c((1,), False, (2,)))),
        # 3: (x1|x2|x3), (!x1|!x2|!x3)
        Monotone3SATDrawing(
            3,
            (c((1, 2, 3), True, (1, 4, 7)), c((1, 2, 3), False, (2, 5, 8))),
        ),
        # 4: x1, x2, (!x1|!x2) (unsat)
        Monotone3SATDrawing(
            2,
            (c((1,), True, (1,)), c((2,), True, (3,)), c((1, 2), False, (2, 4))),
        ),
        # 5: (!x1|!x3), (!x2) nested inside it, (x1|x2)
        Monotone3SATDrawing(
            3,
            (
                c((1, 3), False, (1, 7)),
                c((2,), False, (3,)),
                c((1, 2), True, (2, 4)),
            ),
        ),
        # 6: (x1|x2), (!x2)
        Monotone3SATDrawing(2, (c((1, 2), True, (1, 3)), c((2,), False, (4,)))),
        # 7: x1 twice, spans side by side
        Monotone3SATDrawing(1, (c((1,), True, (1,)), c((1,), True, (2,)))),
        # 8: x1, x2, x3, (!x1|!x2|!x3) (unsat)
        Monotone3SATDrawing(
            3,
            (
                c((1,), True, (1,)),
                c((2,), True, (4,)),
                c((3,), True, (7,)),
                c((1, 2, 3), False, (2, 5, 8)),
            ),
        ),
        # 9: (x1|x3) with (x2) nested, (!x1|!x2)
        Monotone3SATDrawing(
            3,
            (
                c((1, 3), True, (1, 8)),
                c((2,), True, (3,)),
                c((1, 2), False, (2, 4)),
            ),
        ),
        # 10: four variables, mixed arities and sides
        Monotone3SATDrawing(
            4,
            (
                c((1, 2, 4), True, (1, 5, 16)),
                c((2, 3), True, (6, 9)),
                c((1, 4), False, (2, 17)),
                c((3,), False, (10,)),
            ),
        ),
        # 11: (x1|x2) twice nested, (!x1|!x2)
        Monotone3SATDrawing(
            2,
            (
                c((1, 2), False, (3, 6)),
                c((1, 2), True, (1, 5)),
                c((1, 2), True, (2, 4)),
            ),
        ),
        # 12: chain nested to depth two across four variables
        Monotone3SATDrawing(
            4,
            (
                c((1, 4), True, (1, 20)),
                c((2, 3), True, (5, 10)),
                c((3,), True, (9,)),
                c((1, 3), False, (2, 11)),
            ),
        ),
    )


# -- vertex cover ------------------------------------------------------------


def _norm_edges(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out = []
    for i, j in edges:
        i, j = _integer(i, "edge endpoint"), _integer(j, "edge endpoint")
        if i == j:
            raise ValueError(f"self-loop at {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range")
        out.append((min(i, j), max(i, j)))
    uniq = tuple(sorted(set(out)))
    if len(uniq) != len(out):
        raise ValueError("duplicate edges")
    return uniq


def _check_vc_neighborhoods(
    n: int, edges: tuple[tuple[int, int], ...], inst: GeomInstance
) -> None:
    """Assert that every frame touches exactly the frames the gadget intends.

    Frames come in construction order: v_1..v_n, one path per edge, then
    p_1..p_n and q_1..q_n. The vertex gadgets are checked first, v_i, p_i
    and q_i for each i in turn, then the edge paths.
    """
    m = len(edges)
    p, q = n + m - 1, 2 * n + m - 1  # p_i is frame p + i, q_i is frame q + i
    # edge paths by endpoint, and by their higher endpoint
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    by_high: list[list[int]] = [[] for _ in range(n + 1)]
    for e, (i, j) in enumerate(edges, start=n):
        incident[i].append(e)
        incident[j].append(e)
        by_high[j].append(e)
    g = build_intersection_graph(inst)

    def check(v: int, *want: int) -> None:
        got = g.adjacency[v]
        if got != want:
            raise AssertionError(
                f"{inst.frames[v].id}: expected {sorted(inst.frames[u].id for u in want)}, "
                f"got {sorted(inst.frames[u].id for u in got)}"
            )

    for i in range(1, n + 1):
        check(i - 1, *incident[i], p + i)
        check(p + i, i - 1, q + i)
        check(q + i, p + i)
    for e, (i, j) in enumerate(edges, start=n):
        check(e, i - 1, j - 1, *(x for x in by_high[j] if x != e))


def vc_to_epg(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[GeomInstance, ReductionCertificate]:
    """Grid paths whose edge-sharing graph has domination number VC(G) + n.

    Vertex i gets a long path v_i touching x = 0 at height 2i; edge (i, j)
    gets a short path e_i_j riding v_i's vertical and v_j's horizontal; a
    pendant pair p_i, q_i hangs off each v_i so that every dominating set
    spends one path per vertex before it starts covering edge paths.
    """
    n = _integer(n, "vertex count")
    if n < 1:
        raise ValueError("need at least one vertex")
    es = _norm_edges(n, edges)
    frames = []
    for i in range(1, n + 1):
        a = i - n - 1
        frames.append(LFrame(f"v{i}", Point(a, 2 * i), -a, (2 * n + 1 + i) - 2 * i))
    for i, j in es:
        a = i - n - 1
        frames.append(LFrame(f"e{i}_{j}", Point(a, 2 * j), -a, 1))
    for i in range(1, n + 1):
        a = i - n - 1
        frames.append(LFrame(f"p{i}", Point(a, 2 * n + i), -a, 1))
    for i in range(1, n + 1):
        b = -(n + 1 + i)
        frames.append(LFrame(f"q{i}", Point(b, 2 * n + i), -b, 1))
    inst = GeomInstance(frames=tuple(frames), model="edge")
    _check_vc_neighborhoods(n, es, inst)
    return inst, ReductionCertificate(kind="vc", source=(n, es), instance=inst, offset=n)


def _vertex_cover_size(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    best = n
    for m in range(1 << n):
        if all((m >> (i - 1)) & 1 or (m >> (j - 1)) & 1 for i, j in edges):
            best = min(best, bin(m).count("1"))
    return best


# -- edge dominating set -----------------------------------------------------


def _check_eds_neighborhoods(
    edges: tuple[tuple[int, int], ...], inst: GeomInstance
) -> None:
    """Assert that each edge path touches exactly the paths of the edges
    sharing an endpoint with it; frames come in the order of ``edges``."""
    by_a: dict[int, list[int]] = {}
    by_b: dict[int, list[int]] = {}
    for e, (i, j) in enumerate(edges):
        by_a.setdefault(i, []).append(e)
        by_b.setdefault(j, []).append(e)
    g = build_intersection_graph(inst)
    for e, (i, j) in enumerate(edges):
        want = tuple(sorted(x for x in by_a[i] + by_b[j] if x != e))
        if g.adjacency[e] != want:
            raise AssertionError(f"edge ({i},{j}) has wrong contacts")


def eds_to_epg(
    n_a: int, n_b: int, edges: Iterable[tuple[int, int]]
) -> tuple[GeomInstance, ReductionCertificate]:
    """Grid paths sharing an edge iff two bipartite edges share an endpoint.

    Edge (a_i, b_j) becomes the path from (-i, 0) to (0, -j) with its corner
    at (-i, -j): paths with equal i overlap on the vertical at x = -i, paths
    with equal j overlap on the horizontal at y = -j, and everything else
    meets in single points at most. Domination in the resulting graph is
    exactly edge domination, so the offset is zero.
    """
    n_a, n_b = _integer(n_a, "vertex count"), _integer(n_b, "vertex count")
    if n_a < 1 or n_b < 1:
        raise ValueError("both sides need at least one vertex")
    seen = set()
    es = []
    for i, j in edges:
        i, j = _integer(i, "edge endpoint"), _integer(j, "edge endpoint")
        if not (1 <= i <= n_a and 1 <= j <= n_b):
            raise ValueError(f"edge ({i},{j}) out of range")
        if (i, j) in seen:
            raise ValueError("duplicate edges")
        seen.add((i, j))
        es.append((i, j))
    if not es:
        raise ValueError("need at least one edge")
    es = tuple(sorted(es))
    frames = tuple(LFrame(f"e{i}_{j}", Point(-i, -j), i, j) for i, j in es)
    inst = GeomInstance(frames=frames, model="edge")
    _check_eds_neighborhoods(es, inst)
    return inst, ReductionCertificate(kind="eds", source=(n_a, n_b, es), instance=inst, offset=0)


def _edge_dominating_size(edges: tuple[tuple[int, int], ...]) -> int:
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            if all(
                any(d[0] == i or d[1] == j for d in sub) for i, j in edges
            ):
                return r


# -- verification ------------------------------------------------------------


def _sat_source(seed: int, n: int) -> Monotone3SATDrawing:
    corpus = sat_corpus()
    return corpus[seed % len(corpus)]


def _eds_source(seed: int, n: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    n_a = max(1, n // 2)
    n_b = max(1, n - n_a)
    return n_a, n_b, gen_bipartite(seed, n_a, n_b)


def _circle(variant: str) -> tuple:
    return (gen_chord_diagram, lambda cd: circle_certificate(cd, variant),
            lambda cd: (cd.n, "chords", 12, None), lambda cd: exact_mds_size(circle_graph(cd)))


# kind -> (seeded source from (seed, n), certificate of a source, source size as
# (count, what is counted, its limit, frames it reduces to or None), source optimum)
_KINDS = {
    "circle-diagonal": _circle("diagonal"),
    "circle-vertical": _circle("vertical"),
    "sat": (_sat_source, lambda d: monotone3sat_to_lframes(d)[1],
            lambda d: (d.n_vars, "variables", 16, 3 * d.n_vars + len(d.clauses)),
            lambda d: int(satisfiable(d))),
    "vc": (gen_graph, lambda s: vc_to_epg(*s)[1],
           lambda s: (s[0], "vertices", 16, 3 * s[0] + len(s[1])),
           lambda s: _vertex_cover_size(*s)),
    "eds": (_eds_source, lambda s: eds_to_epg(*s)[1],
            lambda s: (len(s[2]), "edges", 16, None), lambda s: _edge_dominating_size(s[2])),
}


def _kind(kind: str) -> tuple:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown reduction kind {kind!r}") from None


def reduction_source(kind: str, seed: int, n: int):
    """The seeded source instance of a reduction ``kind``.

    circle-diagonal and circle-vertical take a random diagram of n chords;
    sat takes a committed drawing, the seed cycling the corpus and n unused;
    vc takes a random graph on n vertices; eds a random bipartite graph
    with n // 2 vertices on one side and the rest on the other.
    """
    return _kind(kind)[0](seed, n)


def build_certificate(kind: str, source) -> ReductionCertificate:
    """Push ``source`` through the reduction of ``kind``; the source has
    the shape that ``ReductionCertificate.source`` documents."""
    return _kind(kind)[1](source)


def check_reach(kind: str, source) -> None:
    """Raise SourceTooLarge when the source of a ``kind`` reduction, or the
    frames it reduces to, are beyond exhaustive reach.

    The limits are 12 chords; 16 variables and 64 frames for sat; 16
    vertices and 64 frames for vc; 16 edges for eds. The frame counts are
    read off the source (3 per variable plus 1 per clause, 3 per vertex
    plus 1 per edge), so the check runs before the reduction is built.
    """
    count, what, limit, frames = _kind(kind)[2](source)
    if count > limit or frames is not None and frames > 64:
        size = f"{count} {what}" if frames is None else f"{count} {what} / {frames} frames"
        raise SourceTooLarge(f"{size} is beyond exhaustive reach")


def verify_equivalence(cert: ReductionCertificate) -> EquivalenceReport:
    """Recompute both optima by brute force and check the claimed offset.

    Raises SourceTooLarge when either side is beyond exhaustive reach.
    """
    check_reach(cert.kind, cert.source)
    src = _kind(cert.kind)[3](cert.source)
    red = exact_mds_size(build_intersection_graph(cert.instance), cap=max(32, cert.instance.n))
    if cert.kind == "sat":
        ok = red >= cert.offset and (red == cert.offset) == (src == 1)
    else:
        ok = red == src + cert.offset
    return EquivalenceReport(cert.kind, src, red, cert.offset, ok)
