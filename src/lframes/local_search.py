"""Local-search solver and the anchored one-sided / two-sided drivers."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import NotAnchored, NotOneSided
from .geometry import GeomInstance, is_anchored, rect_to_lframe
from .graph_core import DominatingSet, IntersectionGraph, build_intersection_graph, greedy_mds

K_WARN_LIMIT = 3


@dataclass(frozen=True)
class LocalSearchConfig:
    """Swap radius k."""

    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _closed_sets(g: IntersectionGraph) -> list[frozenset]:
    return [frozenset((v, *nbrs)) for v, nbrs in enumerate(g.adjacency)]


def _find_improvement(closed: list[frozenset], solution: list[int], k: int):
    """First (removal, replacement) swap that shrinks the solution.

    Removal subsets are enumerated by increasing size then lexicographically;
    replacements likewise, drawn from outside vertices adjacent to something
    the removal uncovers. ``closed`` holds the closed neighborhood of each
    vertex. A removal uncovers the vertices of its closed neighborhoods
    whose solution dominators all lie in it, by a count per vertex, and
    keeps uncovered any vertex the solution does not dominate.
    Returns None at a k-local optimum.
    """
    sol_sorted = sorted(solution)
    sol_set = set(solution)
    count = [0] * len(closed)
    for s in sol_sorted:
        for u in closed[s]:
            count[u] += 1
    undominated = {u for u, c in enumerate(count) if c == 0}
    for r in range(1, min(k, len(sol_sorted)) + 1):
        for removal in combinations(sol_sorted, r):
            lost = Counter()
            for x in removal:
                lost.update(closed[x])
            uncovered = undominated.union(u for u, c in lost.items() if c == count[u])
            if not uncovered:
                return removal, ()
            candidates = sorted({v for u in uncovered for v in closed[u] if v not in sol_set})
            for m in range(1, r):
                for repl in combinations(candidates, m):
                    if not uncovered.difference(*(closed[v] for v in repl)):
                        return removal, repl
    return None


def local_search_mds(g: IntersectionGraph, cfg: LocalSearchConfig = LocalSearchConfig()) -> DominatingSet:
    """Shrink the greedy solution by k-swaps until locally optimal.

    A swap removes a subset of at most k vertices and adds strictly fewer
    outside vertices while keeping the set dominating, so every accepted
    swap reduces the size and the loop terminates. The first improving swap
    in enumeration order is applied, which makes runs deterministic.
    """
    if cfg.k > K_WARN_LIMIT:
        warnings.warn(
            f"k={cfg.k}: swap enumeration is exponential in k", stacklevel=2
        )
    closed = _closed_sets(g)
    solution = list(greedy_mds(g).members)
    while (found := _find_improvement(closed, solution, cfg.k)) is not None:
        removal, repl = found
        solution = sorted(set(solution).difference(removal).union(repl))
    return DominatingSet(tuple(solution))


def is_k_locally_optimal(g: IntersectionGraph, members, k: int) -> bool:
    """Re-run the swap enumeration once and report whether nothing improves."""
    return _find_improvement(_closed_sets(g), list(members), k) is None


def anchoring_side(inst: GeomInstance) -> Optional[str]:
    """The common anchoring side of all frames, or None if mixed/unanchored."""
    if inst.diagonal is None or not inst.frames:
        return None
    for side in ("above", "below"):
        if all(is_anchored(f, inst.diagonal, side) for f in inst.frames):
            return side
    return None


def ptas_one_sided(inst: GeomInstance, k: int) -> DominatingSet:
    """Local search on an instance anchored entirely on one diagonal side.

    Larger k trades time for solution quality; the swap structure of
    one-sided anchored instances is what makes this a principled
    approximation rather than a heuristic.
    """
    if anchoring_side(inst) is None:
        raise NotOneSided(
            "every frame must be anchored at the diagonal on one common side"
        )
    g = build_intersection_graph(inst)
    return local_search_mds(g, LocalSearchConfig(k=k))


def split_two_sided(inst: GeomInstance) -> tuple[GeomInstance, GeomInstance]:
    """Partition an anchored instance into its above-side and below-side parts.

    Rectangles are replaced by their anchored L-frames (rect_to_lframe),
    which leaves the intersection graph unchanged. Raises NotAnchored if
    some frame is anchored on neither side, or some rectangle not at all.
    """
    if inst.diagonal is None:
        raise NotAnchored("instance has no diagonal")
    above, below = [], []
    for f in inst.frames or [rect_to_lframe(r, inst.diagonal) for r in inst.rects]:
        if is_anchored(f, inst.diagonal, "above"):
            above.append(f)
        elif is_anchored(f, inst.diagonal, "below"):
            below.append(f)
        else:
            raise NotAnchored(f"frame {f.id!r} is not anchored at the diagonal")
    mk = lambda fs: GeomInstance(
        frames=tuple(fs), model=inst.model, diagonal=inst.diagonal
    )
    return mk(above), mk(below)


def approx_two_sided(inst: GeomInstance, k: int) -> DominatingSet:
    """Solve each anchoring side separately and return the union.

    Frames from opposite sides can only touch at a shared corner on the
    diagonal, so the union of the two one-sided solutions dominates the
    whole instance.
    """
    above, below = split_two_sided(inst)
    index_of = {o.id: i for i, o in enumerate(inst.objects)}
    members: set[int] = set()
    for part in (above, below):
        if not part.frames:
            continue
        sol = ptas_one_sided(part, k)
        for v in sol.members:
            members.add(index_of[part.frames[v].id])
    return DominatingSet(tuple(sorted(members)))
