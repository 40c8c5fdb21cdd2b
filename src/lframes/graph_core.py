"""Intersection graphs, domination checks, greedy and exact solvers.

Vertices are integers 0..n-1 in instance order, and the instance's
``ids`` name them. ``build_intersection_graph`` reports only the contacts
that exist, with the sort-and-sweep passes of the axis-parallel case of
Bentley and Ottmann, in O((n + m) log n) time for n objects and m
contacts:

* collinear arms (frames, both models): arms sorted by (line, low end);
  an arm meets exactly the later arms of its line whose low end is at most
  its high end (strictly below it in the edge model), a contiguous run
  found by binary search;
* horizontal-vertical contacts (standard model): a sweep over x keeps the
  live horizontal arms sorted by y, and each vertical arm reports the
  slice inside its y range;
* rectangles: a sweep over x; a starting rectangle reports the live ones
  whose bottom lies in (y_lo, y_hi] by a range slice, and those whose y
  span contains its y_lo by a stabbing query on a segment tree.

Coordinates are replaced by their ranks first, which keeps every
comparison small; Python integers of any size rank alike. Each contact
found is appended to the rows of both its vertices, and storing the graph
sorts each row and merges pairs found twice.

The graph is stored as one sorted neighbor tuple per vertex
(``adjacency``), the one form that every reader uses: greedy, the
domination check, local search, the exchange graph and the reductions'
gadget checks. Each row list of the build is replaced by its tuple as
soon as the tuple is made, so one row at a time is held twice. Only the
exact solver turns neighborhoods into bitmasks, privately and per call.
It finds the connected components by walking the rows and runs branch and
bound on each component's own masks, so the search is exponential in the
size of a component, not of the graph; its vertex ``cap`` still counts
every vertex. Each search is given the vertices still to dominate and the
vertices it may take, so the pass that turns an optimum into the least
one searches only what its committed vertices leave.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable, Optional, Sequence

from .errors import TooLarge
from .geometry import DominatingSet, GeomInstance


class IntersectionGraph:
    """Static undirected graph held as ``adjacency``, the sorted neighbor
    tuple of each vertex.

    ``edges`` is an iterable of vertex pairs; repeated pairs and either
    orientation are accepted.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        rows = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not stored")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
            rows[u].append(v)
            rows[v].append(u)
        self._store(n, rows)

    @classmethod
    def _from_rows(cls, n: int, rows: list) -> IntersectionGraph:
        """The graph in which v is adjacent to every vertex in ``rows[v]``;
        each edge is listed in both its rows, in any order, possibly twice.
        Each row list is replaced by its tuple."""
        g = cls.__new__(cls)
        g._store(n, rows)
        return g

    def _store(self, n: int, rows: list) -> None:
        self.n = n
        for v, row in enumerate(rows):
            rows[v] = tuple(sorted(set(row)))
        self.adjacency = tuple(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntersectionGraph):
            return NotImplemented
        return (self.n, self.adjacency) == (other.n, other.adjacency)

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"IntersectionGraph(n={self.n}, m={sum(map(len, self.adjacency)) // 2})"


def _ranks(values: list) -> list[int]:
    """Dense order-preserving ranks of integer coordinates."""
    distinct = sorted(set(values))
    rank = dict(zip(distinct, range(len(distinct))))
    return list(map(rank.__getitem__, values))


def _link(rows: list, i: int, found: list) -> None:
    """Record the contacts of i with the vertices in ``found`` in both rows."""
    rows[i] += found
    for j in found:
        rows[j].append(i)


def _collinear_contacts(line, lo, hi, strict: bool, rows: list) -> None:
    """Arms on a common line whose closed spans meet.

    ``strict`` asks for a shared length of at least one (ranks of integers
    keep strict order) instead of a shared point. In (line, lo) order, arm a
    meets exactly the later arms b of its line with lo[b] <= hi[a], or
    lo[b] < hi[a] when strict: one run of positions. Lines holding a single
    arm are skipped.
    """
    width = max(hi) + 1
    count = Counter(line)
    keyed = sorted((w * width + lo[a], a) for a, w in enumerate(line) if count[w] > 1)
    starts = [k for k, _ in keyed]
    order = [a for _, a in keyed]
    for p, (k, a) in enumerate(keyed, 1):
        end = bisect_right(starts, k - lo[a] + hi[a] - strict, p)
        if end > p:
            _link(rows, a, order[p:end])


def _crossing_contacts(hy, hx0, hx1, vx, vy0, vy1, rows: list) -> None:
    """(horizontal arm, vertical arm) pairs that share a point, own corners excluded.

    Sweep over x. At equal x, arms start before vertical arms query and
    queries come before arms end, because the segments are closed. Live
    arms are kept as sorted keys y * n + id, their ids alongside, so a
    query's contacts are one slice.
    """
    n = len(hy)
    key = [y * n + i for i, y in enumerate(hy)]
    below = [y * n for y in vy0]
    above = [y * n + n for y in vy1]
    at = hx0 + vx + hx1
    live, ids = [], []
    for e in sorted(range(3 * n), key=at.__getitem__):
        if e < n:
            p = bisect_left(live, key[e])
            live.insert(p, key[e])
            ids.insert(p, e)
        elif e < 2 * n:
            i = e - n
            found = ids[bisect_left(live, below[i]):bisect_left(live, above[i])]
            if len(found) > 1:
                found.remove(i)  # the frame's own horizontal arm meets it at the corner
                _link(rows, i, found)
        else:
            p = bisect_left(live, key[e - 2 * n])
            del live[p], ids[p]


def _frame_contacts(x, y, hspan, vspan, strict: bool, rows: list) -> None:
    """Contacts between frames given as corner and span columns."""
    n = len(x)
    xr = _ranks([*x, *map(add, x, hspan)])
    yr = _ranks([*y, *map(add, y, vspan)])
    hy, hx0, hx1 = yr[:n], list(map(min, xr[:n], xr[n:])), list(map(max, xr[:n], xr[n:]))
    vx, vy0, vy1 = xr[:n], list(map(min, yr[:n], yr[n:])), list(map(max, yr[:n], yr[n:]))
    _collinear_contacts(hy, hx0, hx1, strict, rows)
    _collinear_contacts(vx, vy0, vy1, strict, rows)
    if not strict:
        _crossing_contacts(hy, hx0, hx1, vx, vy0, vy1, rows)


def _rect_contacts(rects, rows: list) -> None:
    """Closed rectangles that share a point.

    Sweep over x, starts before ends at equal x. A starting rectangle b
    meets the live rectangles a with lo_a.y in (lo_b.y, hi_b.y] (a slice
    of the live bottoms, kept as sorted keys y * n + id with the ids
    alongside) and those with lo_a.y <= lo_b.y <= hi_a.y (a stabbing query
    on a segment tree over the y ranks, O(log n + output); entries of ended
    rectangles are dropped when a query passes them).
    """
    n = len(rects)
    xr = _ranks([r.lo.x for r in rects] + [r.hi.x for r in rects])
    yr = _ranks([r.lo.y for r in rects] + [r.hi.y for r in rects])
    y0, y1 = yr[:n], yr[n:]
    size = 1 << max(yr).bit_length()
    tree: dict[int, list] = {}
    alive = bytearray(n)
    live, ids = [], []
    for e in sorted(range(2 * n), key=xr.__getitem__):
        if e >= n:
            i = e - n
            alive[i] = 0
            p = bisect_left(live, y0[i] * n + i)
            del live[p], ids[p]
            continue
        i = e
        found = ids[bisect_left(live, (y0[i] + 1) * n):bisect_left(live, (y1[i] + 1) * n)]
        p = y0[i] + size
        while p:
            node = tree.get(p)
            if node:
                kept = [j for j in node if alive[j]]
                if len(kept) < len(node):
                    tree[p] = kept
                found += kept
            p >>= 1
        _link(rows, i, found)
        alive[i] = 1
        k = y0[i] * n + i
        p = bisect_left(live, k)
        live.insert(p, k)
        ids.insert(p, i)
        lo, hi = y0[i] + size, y1[i] + size + 1
        while lo < hi:
            if lo & 1:
                tree.setdefault(lo, []).append(i)
                lo += 1
            if hi & 1:
                hi -= 1
                tree.setdefault(hi, []).append(i)
            lo >>= 1
            hi >>= 1


def build_intersection_graph(inst: GeomInstance) -> IntersectionGraph:
    """Intersection graph of the instance under its model, by sweeping."""
    fr = inst.frames
    rows = [[] for _ in range(inst.n)]
    if fr:
        _frame_contacts(fr.x, fr.y, fr.hspan, fr.vspan, inst.model == "edge", rows)
    elif inst.rects:
        _rect_contacts(inst.rects, rows)
    return IntersectionGraph._from_rows(inst.n, rows)


def is_dominating(g: IntersectionGraph, members: Iterable[int]) -> bool:
    """True iff the closed neighborhoods of ``members`` cover every vertex.
    Raises ValueError on a member that is not an int in range(g.n)."""
    adj, n = g.adjacency, g.n
    covered = bytearray(n)
    for v in members:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"member {v!r} is not a vertex of the graph")
        covered[v] = 1
        for u in adj[v]:
            covered[u] = 1
    return all(covered)


def greedy_mds(g: IntersectionGraph) -> DominatingSet:
    """Repeatedly take the vertex covering the most undominated vertices.

    Ties go to the smallest vertex id, so the result is deterministic.
    Each vertex's gain is kept exact: covering w lowers the gain of every
    vertex in N[w]. The queue holds (-gain, v) entries that may be stale;
    gains only fall, so the first popped entry whose gain is current is
    the rule's choice, and a stale one is pushed back with its gain.
    """
    adj = g.adjacency
    gain = [len(nbrs) + 1 for nbrs in adj]
    queue = [(-c, v) for v, c in enumerate(gain)]
    heapify(queue)
    covered = bytearray(g.n)
    left = g.n
    chosen = []
    while left:
        c, v = heappop(queue)
        if -c != gain[v]:
            heappush(queue, (-gain[v], v))
            continue
        chosen.append(v)
        new = [u for u in adj[v] if not covered[u]]
        if not covered[v]:
            new.append(v)
        left -= len(new)
        for w in new:
            covered[w] = 1
            gain[w] -= 1
            for u in adj[w]:
                gain[u] -= 1
    return DominatingSet(tuple(chosen))


def _min_ds(
    masks: Sequence[int],
    todo: int,
    usable: int,
    ub_size: int,
    target: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """Branch and bound for a least set of usable vertices dominating todo.

    ``todo`` is the bitmask of vertices still to dominate and ``usable`` the
    bitmask of vertices the search may take. Solutions of size >= ub_size
    are pruned. When ``target`` is given, the search stops as soon as a
    solution of size <= target is known. Returns the best member tuple
    found, or None.
    """
    n = len(masks)
    # who may dominate each vertex
    dom = [m & usable for m in masks]

    def lower_bound(undom: int) -> int:
        # undominated vertices with pairwise disjoint dominator sets each
        # need a dominator of their own
        cnt = 0
        used = 0
        rest = undom
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = dom[u]
            if d == 0:
                return n + 1  # uncoverable
            if d & used == 0:
                cnt += 1
                used |= d
        return cnt

    def branches(undom: int) -> list[int]:
        # branch on the undominated vertex with the fewest dominators,
        # trying high-coverage dominators first
        bu, bc = -1, n + 2
        rest = undom
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            c = dom[u].bit_count()
            if c < bc:
                bu, bc = u, c
                if c <= 1:
                    break
        cands = []
        rest = dom[bu]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cands.append(v)
        cands.sort(key=lambda v: (-(masks[v] & undom).bit_count(), v))
        return cands

    best_size, best = ub_size, None
    chosen: list[int] = []
    undom = todo
    # depth-first with an explicit stack, so the depth of a solution is not
    # bounded by the recursion limit: open_nodes[d] holds the undominated
    # mask of the node at depth d on the current path and its untried branches
    open_nodes: list = []
    while True:
        if not undom:
            if len(chosen) < best_size:
                best_size, best = len(chosen), tuple(chosen)
                if target is not None and best_size <= target:
                    return best
        elif len(chosen) + lower_bound(undom) < best_size:
            open_nodes.append((undom, iter(branches(undom))))
        while open_nodes:
            node_undom, cands = open_nodes[-1]
            v = next(cands, None)
            if v is not None:
                break
            open_nodes.pop()
        else:
            return best
        del chosen[len(open_nodes) - 1:]
        chosen.append(v)
        undom = node_undom & ~masks[v]


def check_cap(n: int, cap: int) -> None:
    """Raise TooLarge when n vertices exceed the exact solver's ``cap``.

    Callers that know n before any graph exists check it here first.
    """
    if n > cap:
        raise TooLarge(f"{n} vertices exceeds cap {cap}")


def _components(g: IntersectionGraph, cap: int) -> list:
    """Per connected component of g: its vertices in id order, their
    closed-neighborhood bitmasks (bit i is the component's i-th vertex) and
    the local ids of the greedy members that fall in it.

    Raises TooLarge when g has more than ``cap`` vertices in all, however
    they split into components.
    """
    check_cap(g.n, cap)
    adj = g.adjacency
    in_greedy = bytearray(g.n)
    for v in greedy_mds(g).members:
        in_greedy[v] = 1
    seen = bytearray(g.n)
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = 1
        verts, stack = [s], [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    verts.append(u)
                    stack.append(u)
        verts.sort()
        local = {v: i for i, v in enumerate(verts)}
        masks = []
        for i, v in enumerate(verts):
            m = 1 << i
            for u in adj[v]:
                m |= 1 << local[u]
            masks.append(m)
        out.append((verts, masks, tuple(i for i, v in enumerate(verts) if in_greedy[v])))
    return out


def _optimum(masks: Sequence[int], ub: tuple[int, ...]) -> tuple[int, ...]:
    """One optimal member tuple of a connected component, by branch and
    bound seeded with the dominating set ``ub``."""
    full = (1 << len(masks)) - 1
    opt = _min_ds(masks, full, full, len(ub))
    return ub if opt is None else opt


def _least_optimum(masks: Sequence[int], opt: tuple[int, ...]) -> list[int]:
    """The lexicographically least optimum of a component, given one optimum.

    Commits vertices in id order, keeping a vertex exactly when some optimal
    solution extends the committed prefix: a search on the residual problem
    looks for the rest of one among the vertices not yet ruled out. A vertex
    that no optimum extending the prefix contains is ruled out for good.
    ``witness`` holds the vertices still to come of such a solution, so a
    vertex in it is committed without a search.
    """
    m = len(opt)
    chosen: list[int] = []
    todo = usable = (1 << len(masks)) - 1
    witness = set(opt)
    for v in range(len(masks)):
        if len(chosen) == m:
            break
        if v not in witness:
            left = m - len(chosen) - 1
            rest = _min_ds(masks, todo & ~masks[v], usable, left + 1, target=left)
            if rest is None:
                usable &= ~(1 << v)
                continue
            witness = set(rest)
        chosen.append(v)
        todo &= ~masks[v]
    return chosen


def exact_mds_size(g: IntersectionGraph, cap: int = 32) -> int:
    """Optimal dominating set size: the sum of the component optima.

    Raises TooLarge when g has more than ``cap`` vertices.
    """
    return sum(len(_optimum(masks, ub)) for _, masks, ub in _components(g, cap))


def exact_mds(g: IntersectionGraph, cap: int = 32) -> DominatingSet:
    """Minimum dominating set; deterministic lexicographically least optimum.

    Each connected component is solved on its own masks: phase one finds an
    optimum by branch and bound seeded with the greedy members in the
    component, phase two turns it into the component's least optimum. Which
    vertices of a component are kept depends on that component alone, so
    the union is the least optimum of g.
    Raises TooLarge when g has more than ``cap`` vertices.
    """
    members: list[int] = []
    for verts, masks, ub in _components(g, cap):
        members += (verts[i] for i in _least_optimum(masks, _optimum(masks, ub)))
    return DominatingSet(tuple(members))
