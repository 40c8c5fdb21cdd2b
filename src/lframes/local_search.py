"""Local-search solver and the anchored two-sided driver.

k-swap local search removes at most k members and adds strictly fewer
outside vertices, keeping the set dominating; the first improving swap in
a fixed order is applied until none exists. Removal sets are tried by
increasing size and then lexicographically; each removal's replacements
likewise, drawn from the outside vertices adjacent to what it uncovers.

Two facts keep the search small without changing the swap it returns.

* **Links.** Two members are linked when they lie within distance 4 of
  each other, that is when their distance-2 balls meet. The members
  always dominate, and only removal sets connected under these links are
  tried. Split a removal R into parts R1 and R2 with no link between them.
  A vertex that R uncovers has all its dominators in R and they lie within
  distance 2 of each other, so they lie in one part: the uncovered set
  splits. A useful replacement vertex is adjacent to an uncovered vertex,
  and one adjacent to both parts would link them, so the replacement A
  splits as well. From |A| < |R| it follows that |A1| < |R1| or
  |A2| < |R2|: a strictly smaller removal improves too, and the order
  reaches it first. So the first improving removal is always connected.
* **Cached verdicts.** Whether a removal improves depends only on which
  vertices within distance 2 of it are members. A removal that fails stays
  failed until a swap removes or adds a member within distance 2 of one of
  its members; only those removals are queued again. The domination
  counts and the links are updated by each swap rather than recomputed.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from heapq import heappop, heappush
from itertools import combinations

from .errors import NotAnchored
from .geometry import FrameColumns, GeomInstance, _integer, _Record, rect_to_lframe
from .graph_core import DominatingSet, IntersectionGraph, build_intersection_graph, greedy_mds

K_WARN_LIMIT = 3


class LocalSearchConfig(_Record):
    """Swap radius k."""

    __slots__ = ("k",)

    def __init__(self, k: int = 2):
        k = _integer(k, "k")
        if k < 1:
            raise ValueError("k must be >= 1")
        _Record.__init__(self, k)


class _SwapSearch:
    """The k-swap search over a member set that changes one swap at a time.

    ``queue`` holds the removals whose verdict is unknown, keyed (size,
    sorted tuple), which is the search order; ``pending`` holds the same
    removals, so none is queued twice. Every other connected removal of the
    members is known to fail. The starting members must dominate, and a
    swap keeps them dominating.
    """

    def __init__(self, g: IntersectionGraph, members, k: int):
        self.closed = [frozenset((v, *nbrs)) for v, nbrs in enumerate(g.adjacency)]
        self.k = k
        self.members = set(members)
        self.count = [0] * g.n  # members in each closed neighborhood
        for s in self.members:
            for u in self.closed[s]:
                self.count[u] += 1
        self.balls = {}  # vertex -> its distance-2 ball, built on first use
        self.near = defaultdict(set)  # vertex -> members within distance 2
        self.links = {}  # member -> members within distance 4
        for s in self.members:
            self._link(s)
        self.queue = []
        self.pending = set()
        for s in self.members:  # each removal from its least member
            self._push(self._levels(s, s))

    def _ball(self, v: int) -> frozenset:
        ball = self.balls.get(v)
        if ball is None:
            closed = self.closed
            ball = self.balls[v] = frozenset().union(*(closed[u] for u in closed[v]))
        return ball

    def _link(self, a: int) -> None:
        linked = set()
        for w in self._ball(a):
            linked |= self.near[w]
            self.near[w].add(a)
        self.links[a] = linked
        for b in linked:
            self.links[b].add(a)

    def _unlink(self, a: int) -> None:
        for w in self._ball(a):
            self.near[w].discard(a)
        for b in self.links.pop(a):
            self.links[b].discard(a)

    def _levels(self, m: int, least: int):
        """Connected removals through m whose other members exceed
        ``least``, as one set of frozensets per size from 1 to k."""
        level = {frozenset((m,))}
        yield level
        for _ in range(1, self.k):
            level = {
                removal | {x}
                for removal in level
                for x in set().union(*map(self.links.__getitem__, removal)) - removal
                if x > least
            }
            yield level

    def _push(self, levels) -> None:
        for size, level in enumerate(levels, 1):
            for r in level:
                key = tuple(sorted(r))
                if key not in self.pending:
                    self.pending.add(key)
                    heappush(self.queue, (size, key))

    def _improve(self, removal: tuple[int, ...]):
        """The first replacement that makes ``removal`` a shrinking swap."""
        closed = self.closed
        lost = Counter()
        for x in removal:
            lost.update(closed[x])
        uncovered = {u for u, c in lost.items() if c == self.count[u]}
        if not uncovered:
            return removal, ()
        candidates = sorted({v for u in uncovered for v in closed[u] if v not in self.members})
        for m in range(1, len(removal)):
            for repl in combinations(candidates, m):
                if not uncovered.difference(*(closed[v] for v in repl)):
                    return removal, repl
        return None

    def first_improvement(self):
        """First (removal, replacement) swap that shrinks the members, or
        None at a k-local optimum."""
        while self.queue:
            _, removal = heappop(self.queue)
            self.pending.discard(removal)
            if self.members.issuperset(removal) and (found := self._improve(removal)):
                return found
        return None

    def swap(self, removal, repl) -> None:
        for x in removal:
            self.members.discard(x)
            self._unlink(x)
            for u in self.closed[x]:
                self.count[u] -= 1
        for a in repl:
            self.members.add(a)
            self._link(a)
            for u in self.closed[a]:
                self.count[u] += 1
        # the removals near the swap are unknown again
        around = set().union(*(self._ball(x) for x in (*removal, *repl)))
        for m in around & self.members:
            self._push(self._levels(m, -1))


def local_search_mds(g: IntersectionGraph, cfg: LocalSearchConfig = LocalSearchConfig()) -> DominatingSet:
    """Shrink the greedy solution by k-swaps until locally optimal.

    A swap removes a subset of at most k vertices and adds strictly fewer
    outside vertices while keeping the set dominating, so every accepted
    swap reduces the size and the loop terminates. The first improving swap
    in enumeration order is applied, which makes runs deterministic. Only
    removals connected under the distance-4 links are tried, and a removal
    that failed is tried again only after a swap within distance 2 of it;
    the module docstring shows why this returns the same swap as trying
    every removal after every swap.
    """
    if cfg.k > K_WARN_LIMIT:
        warnings.warn(
            f"k={cfg.k}: swap enumeration is exponential in k", stacklevel=2
        )
    search = _SwapSearch(g, greedy_mds(g).members, cfg.k)
    while (found := search.first_improvement()) is not None:
        search.swap(*found)
    return DominatingSet(tuple(search.members))


def split_two_sided(inst: GeomInstance) -> tuple[GeomInstance, GeomInstance]:
    """Partition an anchored instance into its above-side and below-side parts.

    A frame is anchored when its corner lies on the diagonal x + y = d and
    both spans have one sign: positive opens it above the line, negative
    below. This is the configuration rect_to_lframe produces and the
    exchange drawing assumes, with arc endpoints at corners on the line.
    Rectangles are replaced by their anchored L-frames (rect_to_lframe),
    which leaves the intersection graph unchanged. The split reads the
    frame columns and builds each side as columns, so no ``LFrame`` is
    built for a frame instance. Raises NotAnchored if the instance has no
    diagonal, some rectangle is not anchored, or some frame is anchored on
    neither side, naming the first in record order.
    """
    d = inst.diagonal
    if d is None:
        raise NotAnchored("instance has no diagonal")
    cols = inst.frames or FrameColumns.of(rect_to_lframe(r, d) for r in inst.rects)
    above, below = [], []
    for i, (x, y, h, v) in enumerate(zip(cols.x, cols.y, cols.hspan, cols.vspan)):
        if x + y != d or (h > 0) != (v > 0):
            raise NotAnchored(f"frame {cols.ids[i]!r} is not anchored at the diagonal")
        (above if h > 0 else below).append(i)
    columns = (cols.ids, cols.x, cols.y, cols.hspan, cols.vspan)

    def side(picked: list[int]) -> GeomInstance:
        frames = FrameColumns(*([col[i] for i in picked] for col in columns))
        return GeomInstance(frames=frames, model=inst.model, diagonal=d)

    return side(above), side(below)


def approx_two_sided(inst: GeomInstance, k: int) -> DominatingSet:
    """k-swap local search on each anchoring side separately, and the union.

    Frames from opposite sides can only touch at a shared corner on the
    diagonal, so the union of the two one-sided solutions dominates the
    whole instance. A one-sided instance is the case with one side empty.
    """
    index_of = {fid: i for i, fid in enumerate(inst.ids)}
    members: list[int] = []
    for part in split_two_sided(inst):  # disjoint sides, so no member repeats
        if part.frames:
            ds = local_search_mds(build_intersection_graph(part), LocalSearchConfig(k=k))
            members += (index_of[part.ids[v]] for v in ds.members)
    return DominatingSet(tuple(members))
