"""Intersection graphs plus the exact and greedy dominating-set solvers."""

import inspect
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    STAIR5_EDGES,
    brute_is_dominating,
    brute_mds_size,
    edge_set,
    reference_exact_mds,
)
from lframes.errors import TooLarge
from lframes.generators import gen_anchored_two_sided
from lframes.geometry import GeomInstance, LFrame, Point, Rect
from lframes import graph_core
from lframes.graph_core import (
    IntersectionGraph,
    build_intersection_graph,
    exact_mds,
    exact_mds_size,
    greedy_mds,
    is_dominating,
)


def random_edges(rng, n, p):
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def test_stair5_edge_set(stair5):
    g = build_intersection_graph(stair5)
    assert edge_set(g) == STAIR5_EDGES


def test_is_dominating_examples(stair5):
    g = build_intersection_graph(stair5)
    assert is_dominating(g, [0, 2])
    assert not is_dominating(g, [])
    assert is_dominating(g, range(5))


@pytest.mark.parametrize("member", [-1, 3, True, 1.0, "0"])
def test_is_dominating_refuses_non_vertices(member):
    # a negative index would read another vertex's row, a bool passes as 0 or 1
    g = IntersectionGraph(3, [(0, 1)])
    with pytest.raises(ValueError, match=rf"^member {re.escape(repr(member))} is not a vertex of the graph$"):
        is_dominating(g, [0, member])
    assert not is_dominating(g, [0])
    assert is_dominating(g, [0, 2])


def test_exact_stair5(stair5):
    g = build_intersection_graph(stair5)
    ds = exact_mds(g)
    assert ds.size == 2
    assert is_dominating(g, ds.members)


def test_exact_star_picks_center():
    g = IntersectionGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert exact_mds(g).members == (0,)


def test_exact_edgeless_needs_everything():
    g = IntersectionGraph(4, [])
    assert exact_mds(g).members == (0, 1, 2, 3)


def test_exact_empty_graph():
    g = IntersectionGraph(0, [])
    assert exact_mds(g).members == ()


def test_exact_depth_is_not_bounded_by_recursion_limit():
    # every one of the 150 disjoint frames is in the only optimum, so a
    # search that recursed once per chosen vertex would need 150 frames
    frames = tuple(LFrame(f"f{i}", Point(3 * i, 0), 1, 1) for i in range(150))
    g = build_intersection_graph(GeomInstance(frames=frames))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        ds = exact_mds(g, cap=150)
    finally:
        sys.setrecursionlimit(limit)
    assert ds.members == tuple(range(150))


def test_exact_commits_witness_members_without_search(monkeypatch):
    # the phase-one optimum is the only one and holds every frame, so the
    # lexicographic pass needs no search of its own: every search is a
    # phase-one search, which has no target
    frames = tuple(LFrame(f"f{i}", Point(3 * i, 0), 1, 1) for i in range(40))
    g = build_intersection_graph(GeomInstance(frames=frames))
    calls = []
    min_ds = graph_core._min_ds

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return min_ds(*args, **kwargs)

    monkeypatch.setattr(graph_core, "_min_ds", counting)
    assert exact_mds(g, cap=40).members == tuple(range(40))
    assert calls and all(len(args) == 4 and not kwargs for args, kwargs in calls)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _least_cover(masks, todo, usable):
    """Size of a least set of usable vertices dominating todo, by brute
    force over the subsets of usable; None when even all of them fail."""
    pool = _bits(usable)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            cov = 0
            for v in combo:
                cov |= masks[v]
            if todo & ~cov == 0:
                return size
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
            st.integers(0, 2**n - 1),
            st.integers(0, 2**n - 1),
            st.integers(0, n + 1),
            st.integers(0, n),
        )
    )
)
def test_residual_search_matches_brute_force(case):
    # any vertices to dominate, any vertices to take: the search the
    # lexicographic pass runs after it has committed a prefix
    n, pairs, todo, usable, ub, target = case
    masks = [1 << v for v in range(n)]
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    least = _least_cover(masks, todo, usable)
    for stop in (None, target):
        sol = graph_core._min_ds(masks, todo, usable, ub, target=stop)
        if least is None or least >= ub:
            assert sol is None
            continue
        cov = 0
        for v in sol:
            cov |= masks[v]
        assert todo & ~cov == 0 and set(sol) <= set(_bits(usable))
        # a solution within the target ends the search, else it runs to the end
        if stop is not None and least <= stop:
            assert len(sol) <= stop
        else:
            assert len(sol) == least


def test_greedy_stair5(stair5):
    # the wide middle frame covers four vertices and is taken first
    g = build_intersection_graph(stair5)
    assert greedy_mds(g).members == (0, 2)


def test_greedy_star_picks_center():
    g = IntersectionGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert greedy_mds(g).members == (0,)


def test_greedy_tie_breaks_by_index():
    # path 0-1-2-3: vertices 1 and 2 tie on coverage, 1 wins
    g = IntersectionGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert greedy_mds(g).members == (1, 2)


def test_greedy_always_dominates():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 10)
        g = IntersectionGraph(n, random_edges(rng, n, 0.3))
        assert is_dominating(g, greedy_mds(g).members)


def test_exact_matches_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = random_edges(rng, n, 0.4)
        g = IntersectionGraph(n, edges)
        ds = exact_mds(g)
        assert is_dominating(g, ds.members)
        assert ds.size == brute_mds_size(n, edges)
        assert exact_mds_size(g) == ds.size


def test_exact_returns_lex_least_optimum():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = random_edges(rng, n, 0.35)
        g = IntersectionGraph(n, edges)
        opt = brute_mds_size(n, edges)
        best = min(
            c
            for c in itertools.combinations(range(n), opt)
            if brute_is_dominating(n, edges, c)
        )
        assert exact_mds(g).members == best


def test_vertex_cap():
    g = IntersectionGraph(33, [])
    with pytest.raises(TooLarge):
        exact_mds(g)
    with pytest.raises(TooLarge):
        exact_mds_size(g)
    assert exact_mds(g, cap=40).size == 33


def test_vertex_cap_counts_every_component():
    # 20 disjoint edges: 40 vertices in components of two
    g = IntersectionGraph(40, [(2 * i, 2 * i + 1) for i in range(20)])
    with pytest.raises(TooLarge):
        exact_mds(g, cap=39)
    with pytest.raises(TooLarge):
        exact_mds_size(g, cap=39)
    assert exact_mds(g, cap=40).members == tuple(range(0, 40, 2))


@st.composite
def disjoint_unions(draw):
    """A disjoint union of random graphs and isolated vertices, with the
    vertex ids shuffled across the components."""
    parts = draw(st.lists(st.integers(1, 7), max_size=4))
    isolated = draw(st.integers(0, 3))
    n = sum(parts) + isolated
    ids = draw(st.permutations(range(n)))
    edges, start = [], 0
    for size in parts:
        for i, j in itertools.combinations(range(size), 2):
            if draw(st.booleans()):
                edges.append((ids[start + i], ids[start + j]))
        start += size
    return IntersectionGraph(n, edges)


@settings(max_examples=300)
@given(disjoint_unions())
def test_exact_per_component_matches_whole_graph_search(g):
    ds = exact_mds(g)
    assert ds.members == reference_exact_mds(g)
    assert exact_mds_size(g) == ds.size


def test_exact_anchored_two_sided_2000():
    g = build_intersection_graph(gen_anchored_two_sided(1, 2000))
    assert exact_mds_size(g, cap=2000) == 718
    ds = exact_mds(g, cap=2000)
    assert ds.size == 718
    assert is_dominating(g, ds.members)


def test_model_selects_predicate():
    frames = (LFrame("a", Point(0, 0), 3, 3), LFrame("b", Point(1, -1), 2, 3))
    std = build_intersection_graph(GeomInstance(frames=frames))
    edge = build_intersection_graph(GeomInstance(frames=frames, model="edge"))
    assert edge_set(std) == {(0, 1)}
    assert edge_set(edge) == set()


def test_rect_instance_graph():
    rects = (
        Rect("r1", Point(0, 0), Point(2, 2)),
        Rect("r2", Point(2, 2), Point(4, 4)),
        Rect("r3", Point(5, 5), Point(6, 6)),
    )
    g = build_intersection_graph(GeomInstance(rects=rects))
    assert edge_set(g) == {(0, 1)}


def test_graph_helpers():
    g = IntersectionGraph(3, [(0, 1)])
    assert g.adjacency == ((1,), (0,), ())
    assert g == IntersectionGraph(3, [(1, 0)])
    assert g != IntersectionGraph(3, [(1, 2)])
