"""Shared test fixtures and independent brute-force oracles.

Oracles here recompute answers from raw vertex/edge data by exhaustive
enumeration. They deliberately share no code with the library so that
agreement between the two is meaningful.
"""

import itertools
import os
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from lframes.epg import epg_intersect
from lframes.geometry import GeomInstance, LFrame, Point, lframe_intersect, rect_intersect
from lframes.graph_core import IntersectionGraph, _min_ds, greedy_mds, is_dominating
from lframes.local_search import _SwapSearch

# CLI runs in a subprocess import the package from this checkout, as the
# in-process tests do through the pytest ``pythonpath`` setting
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# property tests replay the same examples on every run, with no time limit
# per example and no example database written to the checkout
settings.register_profile("lframes", deadline=None, derandomize=True, database=None)
settings.load_profile("lframes")


def traced_peak(fn, *args):
    """``fn(*args)`` and the most memory, in bytes, that Python held during
    the call beyond what it held when the call began (tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def edge_set(g):
    """The edges of an IntersectionGraph as (u, v) pairs with u < v."""
    return frozenset((v, u) for v, nbrs in enumerate(g.adjacency) for u in nbrs if v < u)


def closed_masks(n, edges):
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def brute_mds_size(n, edges):
    """Minimum dominating set size by subset enumeration."""
    masks = closed_masks(n, edges)
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            cov = 0
            for v in combo:
                cov |= masks[v]
            if cov == full:
                return size
    raise AssertionError("no dominating set found")


def brute_is_dominating(n, edges, members):
    masks = closed_masks(n, edges)
    cov = 0
    for v in members:
        cov |= masks[v]
    return cov == (1 << n) - 1


def reference_exact_mds(g):
    """Least optimum of g searched as one bitmask problem over all of g.

    Phase one runs the library's branch and bound on the whole graph,
    seeded with the greedy bound; phase two commits vertices in id order,
    keeping a vertex exactly when some optimum extends the committed prefix
    (a member of the last optimum found is kept without a search). It
    shares ``_min_ds`` with the library, so it checks the split into
    components, not the search itself, which brute force checks.
    """
    masks = [1 << v for v in range(g.n)]
    for v, nbrs in enumerate(g.adjacency):
        for u in nbrs:
            masks[v] |= 1 << u
    full = (1 << g.n) - 1
    ub = greedy_mds(g).members
    opt = _min_ds(masks, full, full, len(ub)) or ub
    m = len(opt)
    chosen = []
    todo = usable = full
    witness = set(opt)
    for v in range(g.n):
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
    return tuple(chosen)


def is_k_locally_optimal(g, members, k):
    """Run the library's swap search once on a dominating member set and
    report whether nothing improves. The search assumes that the members
    dominate, as every set it is started from in the library does."""
    return _SwapSearch(g, members, k).first_improvement() is None


def reference_greedy(n, edges):
    """The bitmask greedy: take the vertex covering the most undominated
    vertices, ties to the smallest id, until all are dominated."""
    masks = closed_masks(n, edges)
    full = (1 << n) - 1
    chosen = []
    covered = 0
    while covered != full:
        best_v, best_gain = -1, -1
        for v in range(n):
            gain = (masks[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen.append(best_v)
        covered |= masks[best_v]
    return tuple(sorted(chosen))


def reference_find_improvement(masks, solution, k):
    """The bitmask k-swap step: first (removal, replacement) that shrinks
    ``solution``, removals and replacements in increasing size then
    lexicographic order, replacements drawn from outside vertices whose
    closed neighborhood meets what the removal uncovers; None when none."""
    full = (1 << len(masks)) - 1
    sol_sorted = sorted(solution)
    sol_set = set(solution)
    for r in range(1, min(k, len(sol_sorted)) + 1):
        for removal in itertools.combinations(sol_sorted, r):
            kept_mask = 0
            for v in sol_set.difference(removal):
                kept_mask |= masks[v]
            uncovered = full & ~kept_mask
            if uncovered == 0:
                return removal, ()
            candidates = [
                v for v in range(len(masks)) if v not in sol_set and masks[v] & uncovered
            ]
            for m in range(1, r):
                for repl in itertools.combinations(candidates, m):
                    add = 0
                    for v in repl:
                        add |= masks[v]
                    if kept_mask | add == full:
                        return removal, repl
    return None


def reference_local_search(n, edges, k):
    """k-swap local search from the bitmask greedy, first improvement."""
    masks = closed_masks(n, edges)
    solution = list(reference_greedy(n, edges))
    while (found := reference_find_improvement(masks, solution, k)) is not None:
        removal, repl = found
        solution = sorted(set(solution).difference(removal).union(repl))
    return tuple(solution)


def reference_exchange_pairs(inst, edges, B, R):
    """Bitmask exchange arcs: for every vertex u whose closed neighborhood
    meets both B and R, the (b, r) pair inside it with the closest corners
    (ties to the smallest (b, r)); maps each pair to its sorted witnesses."""
    frames = inst.frames
    masks = closed_masks(len(frames), edges)
    pairs = {}
    for u, mask in enumerate(masks):
        bs = [b for b in sorted(B) if (mask >> b) & 1]
        rs = [r for r in sorted(R) if (mask >> r) & 1]
        if not bs or not rs:
            continue
        _, b, r = min(
            ((frames[b].corner.x - frames[r].corner.x) ** 2
             + (frames[b].corner.y - frames[r].corner.y) ** 2, b, r)
            for b in bs for r in rs
        )
        pairs.setdefault((b, r), []).append(u)
    return pairs


def reference_local_exchange(n, edges, B, R, arcs):
    """Every vertex whose closed neighborhood meets both B and R holds
    both ends of some (b, r) arc in it, read off bitmasks."""
    for mask in closed_masks(n, edges):
        if not any((mask >> b) & 1 for b in B) or not any((mask >> r) & 1 for r in R):
            continue
        if not any((mask >> b) & 1 and (mask >> r) & 1 for b, r in arcs):
            return False
    return True


def reference_count_crossings(ps):
    """Crossing pairs of same-side pieces, comparing every pair: (a, b)
    and (c, d) cross iff a < c < b < d or c < a < d < b."""
    crossings = 0
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if ps[i].side != ps[j].side:
                continue
            a, b = ps[i].p0.x, ps[i].p1.x
            c, d = ps[j].p0.x, ps[j].p1.x
            if a < c < b < d or c < a < d < b:
                crossings += 1
    return crossings


def swap_is_dominating(g, h, base_members, removed):
    """Whether (base minus removed) plus the arc neighbors of removed dominates.

    ``h`` is an exchange graph; ``base_members`` is the full solution its B
    side came from, including any vertices shared with the other solution;
    ``removed`` must be a subset of h.B.
    """
    removed = set(removed)
    kept = set(base_members) - removed
    return is_dominating(g, kept | {a.r for a in h.arcs if a.b in removed})


@dataclass(frozen=True)
class GridPath:
    """A frame together with its materialized unit-edge set, the slow
    reference for the edge-model predicate."""

    frame: LFrame

    def edges(self) -> frozenset:
        """All unit grid edges covered by the frame, as ordered point pairs."""
        out = set()
        hy, hx0, hx1 = self.frame.hseg()
        for x in range(hx0, hx1):
            out.add(((x, hy), (x + 1, hy)))
        vx, vy0, vy1 = self.frame.vseg()
        for y in range(vy0, vy1):
            out.add(((vx, y), (vx, y + 1)))
        return frozenset(out)


def pairwise_edges(inst):
    """Edge set of a geometric instance by testing every pair with the
    public predicate of its model."""
    objs = inst.objects
    if inst.model == "edge":
        pred = epg_intersect
    elif inst.frames:
        pred = lframe_intersect
    else:
        pred = rect_intersect
    return {
        (i, j)
        for i in range(len(objs))
        for j in range(i + 1, len(objs))
        if pred(objs[i], objs[j])
    }


def permutation_graph(p):
    """Inversion graph of a Permutation: i < j adjacent iff pi[i] > pi[j],
    by testing every pair."""
    n = p.n
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if p.pi[i] > p.pi[j]
    ]
    return IntersectionGraph(n, edges)


def parse_report(text):
    """``key value`` report lines as a dict, the inverse of format_fields."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def brute_vertex_cover_size(n, edges):
    """Minimum vertex cover size by subset enumeration (vertices 1..n)."""
    es = list(edges)
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in es):
                return size
    raise AssertionError("no vertex cover found")


def brute_edge_dominating_size(edges):
    """Minimum edge dominating set size by edge-subset enumeration.

    Edges are (a, b) pairs of a bipartite graph; the two sides use
    independent index ranges, so endpoints are tagged before comparing.
    """
    es = [frozenset((("a", a), ("b", b))) for a, b in edges]
    if not es:
        return 0
    for size in range(1, len(es) + 1):
        for combo in itertools.combinations(es, size):
            if all(any(e & f for f in combo) for e in es):
                return size
    raise AssertionError("no edge dominating set found")


# A realization of the five-frame instance used throughout the unit
# tests: a long flat frame, a medium square, a wide mid frame, a small
# one, and a tall thin one, all anchored above the diagonal x + y = 20.
STAIR5_FRAMES = (
    LFrame("a", Point(2, 18), 13, 1),
    LFrame("b", Point(5, 15), 4, 4),
    LFrame("c", Point(8, 12), 7, 3),
    LFrame("d", Point(11, 9), 4, 3),
    LFrame("e", Point(14, 6), 1, 13),
)

STAIR5_EDGES = {(0, 1), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)}


# A hub frame x touching five slab frames a..e; the closest pair of
# corners among {d, e} makes (d, e) the canonical exchange edge for the
# witness x.
HUB6_FRAMES = (
    LFrame("x", Point(10, 10), 9, 9),
    LFrame("a", Point(1, 19), 10, 1),
    LFrame("b", Point(4, 16), 7, 1),
    LFrame("c", Point(6, 14), 5, 1),
    LFrame("d", Point(9, 11), 2, 1),
    LFrame("e", Point(11, 9), 1, 2),
)


@pytest.fixture
def stair5():
    return GeomInstance(frames=STAIR5_FRAMES, diagonal=20)


@pytest.fixture
def hub6():
    return GeomInstance(frames=HUB6_FRAMES, diagonal=20)
