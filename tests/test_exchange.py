"""Exchange graph construction, arc drawing, crossing counts, swap checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HUB6_FRAMES,
    edge_set,
    reference_count_crossings,
    reference_exchange_pairs,
    reference_local_exchange,
    swap_is_dominating,
)
import lframes.exchange as exchange
from lframes.errors import DegeneratePosition, NotDisjoint
from lframes.exchange import (
    ArcPiece,
    build_exchange_graph,
    check_local_exchange,
    count_crossings,
    draw_arcs,
)
from lframes.generators import gen_anchored_one_sided, gen_anchored_rects
from lframes.geometry import GeomInstance, LFrame, Point
from lframes.graph_core import build_intersection_graph, exact_mds, is_dominating
from lframes.local_search import LocalSearchConfig, local_search_mds


def inst_of(*frames):
    return GeomInstance(frames=frames, diagonal=20)


# Three-frame fixtures exercising each arc class. The first frame is the
# witness candidate, the second belongs to B, the third to R.
TOP_CASE = inst_of(
    LFrame("w", Point(5, 15), 1, 4),
    LFrame("b", Point(3, 17), 3, 1),
    LFrame("r", Point(4, 16), 2, 1),
)
DOWN_CASE = inst_of(
    LFrame("w", Point(2, 18), 6, 1),
    LFrame("b", Point(5, 15), 1, 4),
    LFrame("r", Point(7, 13), 1, 6),
)
MIXED_CASE = inst_of(
    LFrame("w", Point(5, 15), 4, 3),
    LFrame("b", Point(3, 17), 3, 1),
    LFrame("r", Point(8, 12), 1, 4),
)


def test_choose_edge_picks_closest_corners(hub6):
    h = build_exchange_graph(hub6, [1, 4], [2, 3, 5])
    assert [(a.b, a.r) for a in h.arcs if 0 in a.witnesses] == [(4, 5)]


def test_single_arc_on_hub_instance(hub6):
    h = build_exchange_graph(hub6, [1], [2])
    assert len(h.arcs) == 1
    arc = h.arcs[0]
    assert (arc.b, arc.r, arc.cls) == (1, 2, "top")
    drawing = draw_arcs(h, hub6)
    assert [(p.p0, p.p1, p.side) for p in drawing] == [
        (Point(1, 19), Point(4, 16), "above")
    ]
    assert count_crossings(drawing) == 0


def test_top_classification():
    h = build_exchange_graph(TOP_CASE, [1], [2])
    (arc,) = h.arcs
    assert (arc.b, arc.r, arc.cls, arc.witness) == (1, 2, "top", 2)


def test_down_classification():
    h = build_exchange_graph(DOWN_CASE, [1], [2])
    (arc,) = h.arcs
    assert (arc.b, arc.r, arc.cls, arc.witness) == (1, 2, "down", 0)


def test_mixed_classification_and_pieces():
    h = build_exchange_graph(MIXED_CASE, [1], [2])
    (arc,) = h.arcs
    assert (arc.b, arc.r, arc.cls, arc.witness) == (1, 2, "mixed", 0)
    assert arc.mixed_orientation == "b_left"
    drawing = draw_arcs(h, MIXED_CASE)
    assert [(p.p0, p.p1, p.side) for p in drawing] == [
        (Point(3, 17), Point(5, 15), "above"),
        (Point(5, 15), Point(8, 12), "below"),
    ]


def piece(x0, x1, side):
    return ArcPiece(Point(x0, 0), Point(x1, 0), side)


def test_count_crossings_interleaved():
    d = (piece(1, 3, "above"), piece(2, 4, "above"))
    assert count_crossings(d) == 1


def test_count_crossings_nested():
    d = (piece(1, 4, "above"), piece(2, 3, "above"))
    assert count_crossings(d) == 0


def test_count_crossings_opposite_sides():
    d = (piece(1, 3, "above"), piece(2, 4, "below"))
    assert count_crossings(d) == 0


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4), st.sampled_from(("above", "below"))),
                max_size=40))
def test_count_crossings_matches_every_pair(spans):
    # small coordinates, so shared endpoints and equal pieces are common
    d = tuple(piece(x, x + w, side) for x, w, side in spans)
    assert count_crossings(d) == reference_count_crossings(d)


def test_count_crossings_shared_endpoint():
    d = (piece(1, 3, "above"), piece(3, 5, "above"))
    assert count_crossings(d) == 0


def test_check_local_exchange_on_built_graph():
    g = build_intersection_graph(TOP_CASE)
    h = build_exchange_graph(TOP_CASE, [1], [2])
    assert check_local_exchange(h, g)


def test_check_local_exchange_fails_without_needed_arc():
    g = build_intersection_graph(TOP_CASE)
    h = build_exchange_graph(TOP_CASE, [1], [2])
    broken = h._replace(arcs=())
    assert not check_local_exchange(broken, g)


def test_swap_empty_subset_keeps_base():
    g = build_intersection_graph(TOP_CASE)
    h = build_exchange_graph(TOP_CASE, [1], [2])
    assert swap_is_dominating(g, h, [1], [])


def test_swap_full_b_side():
    g = build_intersection_graph(TOP_CASE)
    h = build_exchange_graph(TOP_CASE, [1], [2])
    # removing b leaves its arc partner r, which dominates the triangle
    assert swap_is_dominating(g, h, [1], [1])


@pytest.fixture
def graph_builds(monkeypatch):
    """The size of each graph the exchange module builds."""
    calls = []
    build = exchange.build_intersection_graph

    def counting_build(inst):
        calls.append(inst.n)
        return build(inst)

    monkeypatch.setattr(exchange, "build_intersection_graph", counting_build)
    return calls


def test_overlapping_sides_rejected(graph_builds):
    with pytest.raises(NotDisjoint):
        build_exchange_graph(TOP_CASE, [1], [1, 2])
    assert graph_builds == []


def test_rectangle_instance_rejected_before_the_graph(graph_builds):
    with pytest.raises(ValueError, match="^exchange graphs are defined on frame instances$"):
        build_exchange_graph(gen_anchored_rects(1, 2000), [0], [1])
    assert graph_builds == []


@pytest.mark.parametrize("b, bad", [([999, 0], "999"), ([0, -1], "-1"), ([1.5], "1.5"), ([True], "True")])
def test_members_that_are_not_vertices_rejected(graph_builds, b, bad):
    inst = gen_anchored_one_sided(1, 12)
    with pytest.raises(ValueError, match=f"^member {bad} is not a vertex of the instance$"):
        build_exchange_graph(inst, b, [1])
    with pytest.raises(ValueError, match=f"^member {bad} is not a vertex of the instance$"):
        build_exchange_graph(inst, [2], b)
    assert graph_builds == []
    build_exchange_graph(inst, [0], [1])
    assert len(graph_builds) == 1


def test_shared_corner_x_rejected():
    shared = inst_of(
        LFrame("b", Point(5, 15), 2, 1),
        LFrame("r", Point(5, 15), 1, 2),
    )
    h = build_exchange_graph(shared, [0], [1])
    assert len(h.arcs) == 1
    with pytest.raises(DegeneratePosition):
        draw_arcs(h, shared)


def test_generated_instances_planar_and_exchangeable():
    seen_arcs = 0
    for seed in range(40):
        inst = gen_anchored_one_sided(seed, 4 + seed % 12)
        g = build_intersection_graph(inst)
        b = local_search_mds(g, LocalSearchConfig(k=2)).members
        r = exact_mds(g).members
        b_only = sorted(set(b) - set(r))
        r_only = sorted(set(r) - set(b))
        h = build_exchange_graph(inst, b_only, r_only)
        for arc in h.arcs:
            assert arc.b in h.B and arc.r in h.R
            assert arc.witness in arc.witnesses
        assert check_local_exchange(h, g)
        drawing = draw_arcs(h, inst)
        assert count_crossings(drawing) == 0
        total = len(b_only) + len(r_only)
        if total >= 3:
            assert len(h.arcs) <= 2 * total - 4
        seen_arcs += len(h.arcs)
    assert seen_arcs > 0


def test_swaps_preserve_domination_on_generated_instances():
    import random

    for seed in (3, 7, 11, 19):
        inst = gen_anchored_one_sided(seed, 12)
        g = build_intersection_graph(inst)
        b = local_search_mds(g, LocalSearchConfig(k=2)).members
        r = exact_mds(g).members
        b_only = sorted(set(b) - set(r))
        r_only = sorted(set(r) - set(b))
        h = build_exchange_graph(inst, b_only, r_only)
        rng = random.Random(seed)
        pool = sorted(h.B)
        for _ in range(20):
            sub = [v for v in pool if rng.random() < 0.5]
            assert swap_is_dominating(g, h, b, sub)


def test_hub6_fixture_is_consistent():
    # the hub instance really has the adjacency the other tests rely on
    g = build_intersection_graph(GeomInstance(frames=HUB6_FRAMES, diagonal=20))
    assert edge_set(g) == {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (4, 5)}
    assert is_dominating(g, [0])


@settings(max_examples=300)
@given(
    st.integers(0, 10**6),
    st.lists(st.integers(0, 2), min_size=1, max_size=30),
    st.integers(0, 2**40 - 1),
)
def test_arcs_and_verdicts_match_bitmask_reference(seed, sides, drop):
    # sides[v]: 1 puts v in B, 2 in R; bit i of drop removes arc i
    inst = gen_anchored_one_sided(seed, len(sides))
    g = build_intersection_graph(inst)
    edges = edge_set(g)
    b = [v for v, s in enumerate(sides) if s == 1]
    r = [v for v, s in enumerate(sides) if s == 2]
    h = build_exchange_graph(inst, b, r, g)
    assert h == build_exchange_graph(inst, b, r)
    assert {(a.b, a.r): list(a.witnesses) for a in h.arcs} == reference_exchange_pairs(inst, edges, b, r)
    for arcs in (h.arcs, tuple(a for i, a in enumerate(h.arcs) if not (drop >> i) & 1)):
        want = reference_local_exchange(g.n, edges, b, r, [(a.b, a.r) for a in arcs])
        assert check_local_exchange(h._replace(arcs=arcs), g) == want
