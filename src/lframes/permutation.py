"""Two-line frame instances as permutations, and an exact MDS solver for them.

A frame that crosses one vertical and one horizontal line is read off as a
pair of positions: top-to-bottom on the vertical line, left-to-right on the
horizontal one. Segment crossings in the resulting diagram are exactly the
frame intersections, so dominating sets transfer verbatim. That holds in
the standard model only: in the edge model frames that merely cross are
not adjacent, and the reading is refused.

The solver is a left-to-right scan over the diagram. Its state after a
prefix is the pair (M, F): M is the largest value taken so far, F the
smallest skipped value still waiting for a later, smaller take. States are
kept per take-count as a Pareto frontier under (count <=, M >=, F >=), and
values irrelevant to the remaining suffix are collapsed to sentinels.

The scan is event-driven. A position whose value is neither a suffix
minimum nor a suffix maximum, and lies outside a "hot" set of value
intervals read off the frontier, leaves the frontier and every state's
history unchanged, so it is not stepped: the next event is found by
bisecting each value against the hot intervals in a pipeline of C-level
iterators, and only events are stepped (in plain Python integers). A
step sorts every state's skip and take by (count asc, M desc, F desc)
and keeps each unless a kept one has M and F at least as large, found by
bisecting the staircase of kept (M, F) points. So the frontier stays
sorted and Pareto-pruned, which the quiet-position test relies on.

Every frontier holds a state with nothing pending (F = inf): the initial
state has it, a take from such a state keeps it and is never dropped, and
only another F = inf state can dominate it. So a frontier of one state,
which is common on near-sorted inputs, is (c, M, inf), and it is stepped
in constant time with its hot values read off the state directly.

A random permutation of 10**6 elements takes about 160 events at frontier
width 10; a sqrt(n) x sqrt(n) grid transpose takes about 4 sqrt(n) events
at width about 2 sqrt(n); the identity steps every position at width 1.
Worst-case width is Theta(n) on adversarial inputs, where the scan is
quadratic: the rotation (2, ..., n, 1) keeps about 2n states. The suffix
marks (position, least and greatest value after it) and the event
positions are held in machine-word arrays, and each event's row of parent
codes is one of three shared tuples after a one-state step, else an
array. So the history takes about two machine words per event and the
marks three per mark: about 40 bytes per element on the identity, which
steps and marks every position.

The read-off first checks, with a set of each coordinate column, that no
two crossings tie. It then sorts the frame indices once, by y, into the
line-one order, kept as a machine-word array. Line two is not ranked: the
scan only compares values, so any distinct positive integers in the order
of the crossings give the positions their ranks 1..n give. Line two is
read as the x values in line-one order, shifted to start at 1, in a
machine-word column when they fit one (``geometry._column``). The scan
takes its sentinels from the largest value. Only ``lframes_to_permutation``,
whose ``Permutation`` holds ranks, ranks line two, by one sort of plain
ints value * n + position.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress, count, islice, repeat
from operator import add, index, mul

from .errors import DegenerateOrder, NotTwoLineCrossing
from .geometry import DominatingSet, GeomInstance, _column, _Record


class Permutation(_Record):
    """pi[i] is the 1-based position on line two of the i-th vertex on line one."""

    __slots__ = ("pi",)

    def __init__(self, pi: tuple):
        pi = tuple(map(index, pi))
        n = len(pi)
        seen = bytearray(n + 1)
        for v in pi:
            if not 0 < v <= n or seen[v]:
                raise ValueError("pi is not a bijection on 1..n")
            seen[v] = 1
        _Record.__init__(self, pi)

    @property
    def n(self) -> int:
        return len(self.pi)


def _line_orders(inst: GeomInstance) -> tuple[array, Sequence[int]]:
    """Frame indices in line-one order, as a machine-word array, and line
    two read in that order: distinct positive integers, ordered as the
    frames' positions on line two, of an instance validated as
    two_line_vertex_order says. ``_scan`` takes them as they are."""
    if inst.rects:
        raise NotTwoLineCrossing("two-line conversion requires a frame instance")
    if inst.model != "standard":
        # in the edge model frames that cross at a point are not adjacent,
        # so the graph is not the permutation graph of the crossings
        raise NotTwoLineCrossing("two-line conversion requires the standard model")
    if inst.vline is None:
        raise NotTwoLineCrossing("instance has no vertical line")
    if inst.hline is None:
        raise NotTwoLineCrossing("instance has no horizontal line")
    V, H = inst.vline, inst.hline
    fr = inst.frames
    xs, ys = fr.x, fr.y
    # cx < V <= cx + hspan and cy + vspan <= H < cy for every frame imply
    # hspan > 0 > vspan, so four bounds check the whole configuration; only
    # an invalid instance walks the records to name the first bad frame
    if fr and not (max(xs) < V <= min(map(add, xs, fr.hspan))
                   and max(map(add, ys, fr.vspan)) <= H < min(ys)):
        for fid, cx, cy, h, v in zip(fr.ids, xs, ys, fr.hspan, fr.vspan):
            if h < 0 or v > 0:
                raise NotTwoLineCrossing(f"frame {fid!r} is not oriented toward both lines")
            if not (cx < V <= cx + h):
                raise NotTwoLineCrossing(f"frame {fid!r} misses the vertical line")
            if not (cy + v <= H < cy):
                raise NotTwoLineCrossing(f"frame {fid!r} misses the horizontal line")
    # a set tells whether a column holds a tie, reading it in record order;
    # only a tied column is sorted again, to name its smallest tie
    n = len(ys)
    for col, line, axis in ((ys, "vertical", "y"), (xs, "horizontal", "x")):
        if len(set(col)) < n:
            s = sorted(col)
            tie = next(a for a, b in zip(s, islice(s, 1, None)) if a == b)
            raise DegenerateOrder(f"tied {line}-line crossings at {axis}={tie}")
    # one sort, by y, from the indices in record order, where each key read
    # is a step forward in memory; its list of index objects goes as soon
    # as the order is in machine words. Line two is read in that order as
    # the x values themselves, shifted to start at 1: the scan only
    # compares them, so no second sort ranks them
    order1 = array("i" if n < 1 << 31 else "q", sorted(range(n), key=ys.__getitem__, reverse=True))
    shift = 1 - min(xs, default=0)
    return order1, _column(map(shift.__add__, map(xs.__getitem__, order1)))


def two_line_vertex_order(inst: GeomInstance) -> tuple:
    """Frame indices in line-one order (top to bottom on the vertical line).

    Validates the two-line configuration: a frame instance in the standard
    model, every frame running rightward over the vertical line and
    downward over the horizontal one, corners strictly inside the
    upper-left region, with no two crossings tied on either line. Errors
    name the first offending frame in record order, then the smallest tied
    y, then the smallest tied x.
    """
    return tuple(_line_orders(inst)[0])


def lframes_to_permutation(inst: GeomInstance) -> Permutation:
    """Read a two-line instance off as a permutation.

    Line one is the vertical line read top to bottom, line two the
    horizontal line read left to right; crossings swap order exactly when
    the frames intersect. Position t of the permutation is frame
    ``two_line_vertex_order(inst)[t]``.
    """
    line2 = _line_orders(inst)[1]
    # line two's ranks from one sort of value * n + position: plain ints,
    # with no index objects and no key list beside them
    n = len(line2)
    keys = sorted(map(add, map(mul, line2, repeat(n)), count()))
    rank = array("q", [0]) * n
    for pos, key in enumerate(keys, 1):
        rank[key % n] = pos
    del keys, line2
    return Permutation(rank)


_SKIP, _TAKE, _BOTH = (0,), (1,), (0, 1)  # the parent codes of one-state steps


def _step(front, v, smin, smax, big, inff):
    """Advance the frontier over one position of value v.

    front is a list of (count, M, F), sorted by (count asc, M desc, F desc)
    and Pareto-pruned; smin and smax bound the values after this position.
    Returns the next frontier in the same form, and for each of its states
    the code 2 * s + took naming the state s it came from: a shared tuple
    (_SKIP, _TAKE or _BOTH) when front holds one state, else an array.
    """
    if len(front) == 1:  # (c, M, inf): see the module docstring
        ((c, m, _),) = front
        if m > v:  # skip keeps the state and take only adds to its count
            return [(c, 0 if m < smin else big if m > smax else m, inff)], _SKIP
        if v < smin:  # skip leaves v pending with no smaller value left
            return [(c + 1, 0, inff)], _TAKE
        m = 0 if m < smin else big if m > smax else m
        return [(c, m, min(v, smax + 1)), (c + 1, v if v <= smax else big, inff)], _BOTH
    nv = 0 if v < smin else -big if v > smax else -v  # v as a collapsed -M
    cands = []  # (count, -M, -F, code), M and F collapsed
    for code, (c, m, f) in zip(count(0, 2), front):
        nm = 0 if m < smin else -big if m > smax else -m
        # skip keeps M and leaves v pending when M < v < F; a pending value
        # below every later one can no longer be covered
        g = v if m < v < f else f
        if g == inff:
            cands.append((c, nm, -inff, code))
        elif g >= smin:
            cands.append((c, nm, -g if g <= smax else -smax - 1, code))
        # take raises M to v and clears F when v < F
        if v < f:
            cands.append((c + 1, nm if m > v else nv, -inff, code + 1))
        elif f >= smin:
            cands.append((c + 1, nm if m > v else nv, -f if f <= smax else -smax - 1, code + 1))
    cands.sort()
    # In this order no candidate is dominated by a later one except its
    # duplicate, so keeping exactly the candidates that no earlier kept one
    # dominates (count <=, M >=, F >=) leaves the Pareto frontier. The kept
    # points' staircase: M falling as F rises, as ascending lists -M and F.
    neg_m, fs = [], []
    new, codes = [], []
    for c, nm, nf, code in cands:
        f = -nf
        i = bisect_right(neg_m, nm)  # points [0, i) have M >= -nm
        if i and fs[i - 1] >= f:
            continue
        lo = i - 1 if i and neg_m[i - 1] == nm else i
        hi = bisect_right(fs, f, lo)  # points [lo, hi) are dominated
        neg_m[lo:hi] = [nm]
        fs[lo:hi] = [f]
        new.append((c, -nm, f))
        codes.append(code)
    return new, array("q", codes)


def _hot_edges(front, inff):
    """Values whose position would change the frontier, as sorted
    boundaries [a0, b0, a1, b1, ...]: v is hot iff a_i <= v < b_i for some i,
    that is iff bisect_right(edges, v) is odd.

    A position that is neither a suffix minimum nor a suffix maximum leaves
    the sentinels in place; it then leaves the frontier as it is exactly
    when, for every state (c, M, F), skipping it keeps (M, F) and taking it
    yields a state weakly dominated by one of count <= c + 1. Per state that
    fails for v in (M, F), where skipping lowers F, and for v < min(M, F)
    when no state of count <= c + 1 has F = inf and M' >= M. For one state
    (c, M, inf) that reads [M+1, inf).

    A third case needs no clause, as it is always hot already: for a state
    of finite F, taking v > max(M, F) yields (c + 1, v, F), which is quiet
    iff v <= G, the largest M' over states of count <= c + 1 with F' >= F.
    Let v > max(F, G). Were some earlier value u > v, adding u to the
    state's takes would give count c + 1, M >= u > v (above v also once
    collapsed, as v is still ahead) and F' >= F (M only grows, so nothing
    new is pending); the frontier dominates that state, so G > v, a
    contradiction. So v exceeds every earlier value, hence the M of the
    frontier's F = inf state (the sentinel 0 or an earlier value, which v
    still ahead keeps from collapsing to big): v lies in its (M, inf).
    """
    if len(front) == 1:
        return [front[0][1] + 1, inff]
    j = 0
    below = 1  # hot for v < below
    top = -1  # the largest M over the F = inf states of count <= c + 1
    for c, m, f in front:
        while j < len(front) and front[j][0] <= c + 1:
            if front[j][2] == inff and front[j][1] > top:
                top = front[j][1]
            j += 1
        if top < m:
            below = max(below, min(m, f))

    spans = [(m + 1, f) for _, m, f in front if m + 1 < f]
    spans.append((1, below))
    spans.sort()
    edges = []
    for a, b in spans:
        if a >= b:
            continue
        if edges and a <= edges[-1]:
            edges[-1] = max(edges[-1], b)
        else:
            edges += [a, b]
    return edges


def _scan(pi) -> list:
    """0-based positions of one minimum dominating set of the inversion
    graph of pi, a sequence of distinct positive integers. Only their order
    is compared, so the positions are those the ranks 1..n give.

    Sentinels, from the largest value t: M = 0 below / t+1 above every
    remaining value, F = t+2 for "nothing pending"; a pending F below every
    remaining value can never be cleared, so that state is dropped. Only
    events are stepped: suffix minima and maxima, whose sentinel bounds
    move, and positions whose value is hot (see _hot_edges). Between events
    the frontier and its state indices stay as they are, every state
    skipping, so a parent row is kept per event only.
    """
    n = len(pi)
    top = max(pi, default=0)
    big, inff, huge = top + 1, top + 2, top + 3
    # one reverse pass marks the suffix minima and maxima, each with the
    # least and greatest value after it, in three machine-word columns
    # (the bounds in lists once huge needs more than 64 bits); between two
    # marks these bounds stay put, so the bounds after any position are
    # those after the next mark, and before the first mark they bound
    # every value
    marks = array("q")
    los, his = (array("q"), array("q")) if huge < 1 << 63 else ([], [])
    lo, hi = huge, 0
    for p, v in zip(range(n - 1, -1, -1), reversed(pi)):
        if not lo < v < hi:
            marks.append(p)
            los.append(lo)
            his.append(hi)
            if v < lo:
                lo = v
            if v > hi:
                hi = v
    for col in (marks, los, his):
        col.reverse()

    front = [(0, 0, inff)]
    events = array("q")  # the position of each event
    rows = []  # and its parent codes
    rest = iter(pi)  # the values from position p on
    p = 0
    for f, lo_after, hi_after in zip(marks, los, his):
        while p <= f:
            if p < f:  # the first hot position before the mark, else the mark
                edges = _hot_edges(front, inff)
                hot = map((1).__and__, map(bisect_right, repeat(edges), islice(rest, f - p)))
                p = next(compress(count(p), hot), f)
            if p == f:  # the mark: rest moves past it, and so do the bounds
                next(rest)
                lo, hi = lo_after, hi_after
            front, codes = _step(front, pi[p], lo, hi, big, inff)
            events.append(p)
            rows.append(codes)
            p += 1

    # after the last position every survivor is (count, 0, inf), and
    # pruning leaves the one of least count
    takes = []
    s = 0
    for p, codes in zip(reversed(events), reversed(rows)):
        code = codes[s]
        if code & 1:
            takes.append(p)
        s = code >> 1
    takes.reverse()
    return takes


def mds_permutation(p: Permutation) -> DominatingSet:
    """A minimum dominating set of the inversion graph of p.

    Vertices are 0-based positions on line one. Runs the event-driven
    frontier scan (see the module docstring): the frontier is stepped only
    at suffix minima and maxima and at positions whose value can change it,
    and parent rows are stored per event.
    """
    return DominatingSet(tuple(_scan(p.pi)))
