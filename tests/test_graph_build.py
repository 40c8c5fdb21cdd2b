"""The sweep-built intersection graph against the pairwise predicates, and
the queue-driven greedy against the bitmask greedy.

Coordinates are drawn from a small box so that collinear overlaps of
length 0 and 1, endpoint touches, shared corners, nested and touching
rectangles all occur often; an offset of 2**70 checks that coordinates
beyond 64 bits compare correctly.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edge_set, pairwise_edges, reference_greedy, traced_peak
from lframes.generators import FAMILIES, gen_anchored_one_sided, gen_anchored_rects, gen_two_line
from lframes.geometry import GeomInstance, LFrame, Point, Rect
from lframes.graph_core import IntersectionGraph, build_intersection_graph, greedy_mds

PROPERTY = settings(max_examples=400)

coord = st.integers(-4, 4)
span = st.integers(1, 4).flatmap(lambda s: st.sampled_from((s, -s)))
offset = st.sampled_from((0, 2**70))


def frames_of(specs, dx=0):
    return tuple(
        LFrame(f"f{i}", Point(x + dx, y), h, v) for i, (x, y, h, v) in enumerate(specs)
    )


def rects_of(specs, dx=0):
    return tuple(
        Rect(f"r{i}", Point(x + dx, y), Point(x + dx + w, y + h))
        for i, (x, y, w, h) in enumerate(specs)
    )


@PROPERTY
@given(
    specs=st.lists(st.tuples(coord, coord, span, span), max_size=14),
    model=st.sampled_from(("standard", "edge")),
    dx=offset,
)
@example(specs=[(0, 0, 2, 1), (2, 0, 3, 1)], model="standard", dx=0)  # collinear, length 0
@example(specs=[(0, 0, 2, 1), (1, 0, 3, 1)], model="edge", dx=0)  # collinear, length 1
@example(specs=[(0, 0, 2, 1), (0, 1, 2, 1)], model="standard", dx=0)  # endpoint on a corner
@example(specs=[(0, 0, 3, 3), (1, -1, 2, 3)], model="standard", dx=0)  # single crossing
@example(specs=[(0, 0, 2, 2), (0, 0, -2, -2)], model="standard", dx=0)  # shared corner
@example(specs=[(0, 0, 4, 1), (2, 3, 1, -3)], model="standard", dx=0)  # hand on an arm
def test_frame_sweep_matches_predicates(specs, model, dx):
    inst = GeomInstance(frames=frames_of(specs, dx), model=model)
    assert edge_set(build_intersection_graph(inst)) == pairwise_edges(inst)


@PROPERTY
@given(specs=st.lists(st.tuples(coord, coord, st.integers(1, 4), st.integers(1, 4)),
                      max_size=14), dx=offset)
@example(specs=[(0, 0, 4, 4), (1, 1, 1, 1)], dx=0)  # nested
@example(specs=[(0, 0, 2, 2), (2, 0, 2, 2)], dx=0)  # shared edge
@example(specs=[(0, 0, 2, 2), (2, 2, 2, 2)], dx=0)  # shared corner
@example(specs=[(0, 0, 3, 3), (1, -1, 1, 5)], dx=0)  # crossing, no corner inside
@example(specs=[(0, 0, 3, 3), (1, 1, 5, 1)], dx=0)  # lower-left corner of the second inside
def test_rect_sweep_matches_predicates(specs, dx):
    inst = GeomInstance(rects=rects_of(specs, dx))
    assert edge_set(build_intersection_graph(inst)) == pairwise_edges(inst)


@pytest.mark.parametrize("family", sorted(FAMILIES) + ["anchored-rects"])
def test_every_family_matches_predicates(family):
    gen = gen_anchored_rects if family == "anchored-rects" else FAMILIES[family]
    for seed, n in itertools.product(range(4), (1, 6, 25)):
        inst = gen(seed, n)
        g = build_intersection_graph(inst)
        assert edge_set(g) == pairwise_edges(inst), (family, seed, n)
        # both CSR orientations, each pair once per row
        assert g == IntersectionGraph(g.n, pairwise_edges(inst)), (family, seed, n)


@PROPERTY
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                                       st.integers(0, n - 1)))
                        if n else st.just([]))))
def test_greedy_matches_bitmask_greedy(case):
    n, pairs = case
    edges = [(u, v) for u, v in pairs if u != v]
    assert greedy_mds(IntersectionGraph(n, edges)).members == reference_greedy(n, edges)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_greedy_matches_bitmask_greedy_on_families(family):
    for seed in range(3):
        g = build_intersection_graph(FAMILIES[family](seed, 40))
        assert greedy_mds(g).members == reference_greedy(g.n, edge_set(g)), seed


def test_graph_stores_only_its_neighbor_tuples():
    g = build_intersection_graph(gen_anchored_one_sided(1, 30))
    assert set(vars(g)) == {"n", "adjacency"}
    assert all(type(nbrs) is tuple for nbrs in g.adjacency)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="^self-loops are not stored$"):
        IntersectionGraph(3, [(1, 1)])
    with pytest.raises(ValueError, match="^edge endpoint out of range$"):
        IntersectionGraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="^edge endpoint out of range$"):
        IntersectionGraph(3, [(-1, 2)])


def test_graph_merges_pairs_into_sorted_tuples():
    g = IntersectionGraph(4, [(2, 0), (0, 2), (0, 2), (3, 0), (1, 3), (3, 1)])
    assert g.adjacency == ((2, 3), (3,), (0,), (0, 1))
    assert edge_set(g) == {(0, 2), (0, 3), (1, 3)}


def test_dense_graph_is_held_once():
    # the finished tuples take about 4.5 MiB; a build that held all its row
    # lists and all the tuples at once would peak at about 8 MiB
    inst = gen_two_line(1, 1000)
    adjacency, peak = traced_peak(lambda: build_intersection_graph(inst).adjacency)
    assert sum(map(len, adjacency)) == 496_712
    assert peak < 6 * 2**20, peak
