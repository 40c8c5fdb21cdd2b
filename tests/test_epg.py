"""Grid-path adjacency: shared unit edges, not shared points."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GridPath
from lframes.epg import epg_intersect
from lframes.geometry import LFrame, Point, lframe_intersect


def frame(fid, x, y, h, v):
    return LFrame(fid, Point(x, y), h, v)


def random_frame(rng, fid):
    return frame(
        fid,
        rng.randint(-6, 6),
        rng.randint(-6, 6),
        rng.choice([-1, 1]) * rng.randint(1, 5),
        rng.choice([-1, 1]) * rng.randint(1, 5),
    )


def test_single_point_crossing_is_not_adjacent():
    a = frame("a", 0, 0, 3, 3)
    b = frame("b", 1, -1, 2, 3)
    assert lframe_intersect(a, b)
    assert not epg_intersect(a, b)


def test_shared_edges_are_adjacent():
    a = frame("a", 0, 0, 3, 1)
    b = frame("b", 0, 0, 2, -1)
    assert epg_intersect(a, b)


def test_reflexive():
    f = frame("f", 2, 2, -2, 4)
    assert epg_intersect(f, f)


def test_adjacency_implies_point_intersection():
    rng = random.Random(41)
    hits = 0
    for _ in range(500):
        a = random_frame(rng, "a")
        b = random_frame(rng, "b")
        if epg_intersect(a, b):
            hits += 1
            assert lframe_intersect(a, b)
    assert hits > 0


def test_converse_fails():
    # point intersection without any shared unit edge
    a = frame("a", 0, 0, 3, 3)
    b = frame("b", 1, -1, 2, 3)
    assert lframe_intersect(a, b) and not epg_intersect(a, b)


small = st.integers(-6, 6)
span = st.integers(1, 5).flatmap(lambda s: st.sampled_from((s, -s)))
frames = st.builds(frame, st.just("f"), small, small, span, span)


@settings(max_examples=400)
@given(a=frames, b=frames)
def test_predicate_matches_edge_set_reference(a, b):
    want = bool(GridPath(a).edges() & GridPath(b).edges())
    assert epg_intersect(a, b) == want
    assert epg_intersect(b, a) == want


def test_edge_count():
    # arm lengths 3 and 4 give 3 + 4 unit edges
    f = frame("f", 0, 0, 3, 4)
    assert len(GridPath(f).edges()) == 7
