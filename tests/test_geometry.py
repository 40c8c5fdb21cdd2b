"""Geometry predicates and the rectangle-to-frame conversion."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lframes.errors import NotAnchored
from lframes.generators import gen_anchored_rects
from lframes.geometry import (
    FrameColumns,
    GeomInstance,
    LFrame,
    Point,
    Rect,
    lframe_intersect,
    rect_intersect,
    rect_to_lframe,
    rotate_cw,
)
from lframes.instance_io import emit_instance, parse_instance


def frame(fid, x, y, h, v):
    return LFrame(fid, Point(x, y), h, v)


def frame_points(f):
    """Closed point set of a frame as lattice points.

    Axis-parallel segments with integer endpoints can only meet at integer
    coordinates, so set intersection of the rasterizations is an exact
    reference for the predicate.
    """
    hy, hx0, hx1 = f.hseg()
    vx, vy0, vy1 = f.vseg()
    pts = {(x, hy) for x in range(hx0, hx1 + 1)}
    pts |= {(vx, y) for y in range(vy0, vy1 + 1)}
    return pts


def rect_points(r):
    """Closed point set of a rectangle as lattice points (exact for the
    same reason as frame_points)."""
    return {(x, y) for x in range(r.lo.x, r.hi.x + 1) for y in range(r.lo.y, r.hi.y + 1)}


small = st.integers(-8, 8)
span = st.integers(1, 6).flatmap(lambda s: st.sampled_from((s, -s)))
frames = st.builds(frame, st.just("f"), small, small, span, span)
rects = st.builds(
    lambda x, y, w, h: Rect("r", Point(x, y), Point(x + w, y + h)),
    small, small, st.integers(1, 6), st.integers(1, 6),
)


def random_frame(rng, fid):
    return frame(
        fid,
        rng.randint(-8, 8),
        rng.randint(-8, 8),
        rng.choice([-1, 1]) * rng.randint(1, 6),
        rng.choice([-1, 1]) * rng.randint(1, 6),
    )


def test_intersect_example():
    a = frame("a", 0, 0, 3, 3)
    b = frame("b", 1, -1, 2, 3)
    assert lframe_intersect(a, b)


def test_intersect_reflexive():
    f = frame("f", 5, -2, -4, 7)
    assert lframe_intersect(f, f)


def test_intersect_far_apart():
    a = frame("a", 0, 0, 3, 3)
    b = frame("b", 100, 100, 2, 2)
    assert not lframe_intersect(a, b)


def test_intersect_single_point_touch():
    # b's vertical hand lands exactly on a's horizontal arm
    a = frame("a", 0, 0, 4, 1)
    b = frame("b", 2, -3, 1, 3)
    assert lframe_intersect(a, b)


@settings(max_examples=300)
@given(a=frames, b=frames)
def test_intersect_matches_pointset_reference(a, b):
    want = bool(frame_points(a) & frame_points(b))
    assert lframe_intersect(a, b) == want
    assert lframe_intersect(b, a) == want


@settings(max_examples=300)
@given(a=rects, b=rects)
def test_rect_intersect_matches_pointset_reference(a, b):
    want = bool(rect_points(a) & rect_points(b))
    assert rect_intersect(a, b) == want
    assert rect_intersect(b, a) == want


def test_rect_above_keeps_sides_at_anchored_corner():
    r = Rect("r1", Point(1, 1), Point(3, 4))
    assert rect_to_lframe(r, 2) == frame("r1", 1, 1, 2, 3)


def test_rect_below_keeps_sides_at_anchored_corner():
    r = Rect("r2", Point(2, -5), Point(4, -2))
    assert rect_to_lframe(r, 2) == frame("r2", 4, -2, -2, -3)


def test_rect_not_touching_raises():
    r = Rect("r3", Point(1, 1), Point(3, 4))
    with pytest.raises(NotAnchored):
        rect_to_lframe(r, 100)


def test_rect_cut_by_line_raises():
    # the line passes between lo and hi, through the box interior
    r = Rect("r4", Point(0, 0), Point(2, 2))
    with pytest.raises(NotAnchored):
        rect_to_lframe(r, 2)


def test_conversion_preserves_pairwise_intersection():
    for seed in range(20):
        inst = gen_anchored_rects(seed, 6)
        frames = [rect_to_lframe(r, inst.diagonal) for r in inst.rects]
        for i in range(len(frames)):
            for j in range(i + 1, len(frames)):
                assert rect_intersect(inst.rects[i], inst.rects[j]) == lframe_intersect(
                    frames[i], frames[j]
                )


def test_rotate_cw_four_times_is_identity():
    f = frame("f", 3, -2, 5, -7)
    g = f
    for _ in range(4):
        g = rotate_cw(g)
    assert g == f


def test_rotate_cw_preserves_intersection():
    rng = random.Random(7)
    for _ in range(100):
        a = random_frame(rng, "a")
        b = random_frame(rng, "b")
        assert lframe_intersect(a, b) == lframe_intersect(rotate_cw(a), rotate_cw(b))


def test_zero_span_rejected():
    with pytest.raises(ValueError):
        frame("f", 0, 0, 0, 3)
    with pytest.raises(ValueError):
        frame("f", 0, 0, 3, 0)


def test_degenerate_rect_rejected():
    with pytest.raises(ValueError):
        Rect("r", Point(0, 0), Point(0, 3))
    with pytest.raises(ValueError):
        Rect("r", Point(0, 4), Point(2, 4))


def test_instance_validation():
    f = frame("f", 0, 0, 3, 3)
    r = Rect("r", Point(0, 0), Point(1, 1))
    with pytest.raises(ValueError):
        GeomInstance(frames=(f,), rects=(r,))
    with pytest.raises(ValueError):
        GeomInstance(frames=(f,), model="loose")
    with pytest.raises(ValueError):
        GeomInstance(rects=(r,), model="edge")
    with pytest.raises(ValueError):
        GeomInstance(frames=(f, frame("f", 1, 1, 2, 2)))


@pytest.mark.parametrize("line", ["diagonal", "vline", "hline"])
def test_reference_line_must_be_an_integer(line):
    for value in (5.0, "5"):
        with pytest.raises(ValueError, match=rf"^{line} must be an integer, got {value!r}$"):
            GeomInstance(frames=(frame("f", 0, 0, 3, 3),), **{line: value})
    assert getattr(GeomInstance(**{line: 2**70}), line) == 2**70


def test_int_diagonal_reads_back_and_drives_the_anchored_paths():
    from lframes.exchange import build_exchange_graph, draw_arcs
    from lframes.local_search import split_two_sided

    frames = (frame("w", 2, 3, 4, 3), frame("b", 1, 4, 3, 1), frame("r", 4, 1, 1, 4))
    inst = GeomInstance(frames=frames, diagonal=5, vline=-7, hline=9)
    assert (inst.diagonal, inst.vline, inst.hline) == (5, -7, 9)
    assert emit_instance(inst).splitlines()[3:6] == ["diagonal 5", "vline -7", "hline 9"]
    assert parse_instance(emit_instance(inst)) == inst
    above, below = split_two_sided(inst)
    assert above.frames == frames and above.diagonal == 5 and not below.frames
    pieces = draw_arcs(build_exchange_graph(inst, [1], [2]), inst)
    assert [(p.p0, p.p1, p.side) for p in pieces] == [(Point(1, 4), Point(4, 1), "above")]


def test_coordinates_must_be_integers():
    # a kept non-integer would be emitted as text that parse_instance refuses
    with pytest.raises(ValueError, match=r"^coordinate must be an integer, got 0\.5$"):
        GeomInstance(frames=(LFrame("a", Point(0.5, 0), 2, 3),))
    with pytest.raises(ValueError, match=r"^coordinate must be an integer, got '3'$"):
        FrameColumns(["a"], ["3"], [1], [1], [1])
    with pytest.raises(ValueError, match=r"^coordinate must be an integer, got 2\.5$"):
        FrameColumns(["a", "b"], [0, 2**70], [0, 0], [1, 2.5], [1, 1])
    with pytest.raises(ValueError, match=r"^coordinate must be an integer, got 3\.0$"):
        Rect("r", Point(0, 0), Point(3.0, 4))
    assert Rect("r", (0, 0), [True, 2**70]).hi == Point(1, 2**70)


def test_frame_columns_read_as_frames():
    objs = (frame("a", 0, 0, 3, 3), frame("b", 2**70, -1, -2, 5))
    cols = FrameColumns(["a", "b"], [0, 2**70], [0, -1], [3, -2], [3, 5])
    assert cols.x == (0, 2**70) and cols.ids == ("a", "b")
    assert cols == FrameColumns.of(objs) and cols == objs
    assert hash(cols) == hash(objs)
    assert tuple(cols) == objs and cols[1] == objs[1] and len(cols) == 2
    assert cols[0] is cols[0]  # built once
    with pytest.raises(ValueError, match=r"^frame 'b': spans must be nonzero$"):
        FrameColumns(["a", "b"], [0, 0], [0, 0], [1, 0], [1, 1])
    with pytest.raises(ValueError):
        FrameColumns(["a"], [0, 1], [0], [1], [1])


WORD_MIN, WORD_MAX = -(2**63), 2**63 - 1


def test_frame_columns_take_machine_words_when_every_value_fits():
    cols = FrameColumns(["a", "b"], [WORD_MIN, WORD_MAX], [0, -1], [WORD_MAX, -2], [WORD_MIN, 5])
    for col in (cols.x, cols.y, cols.hspan, cols.vspan):
        assert type(col) is array and col.typecode == "q"
    assert cols.x.tolist() == [WORD_MIN, WORD_MAX] and cols.ids == ("a", "b")
    for wide in (WORD_MIN - 1, WORD_MAX + 1, 2**200):
        cols = FrameColumns(["a", "b"], [0, 1], [wide, 2], [3, 4], [5, 6])
        # one value outside the word keeps its column, only that one, as Python ints
        assert cols.y == (wide, 2) and type(cols.x) is array
        assert cols[0] == frame("a", 0, wide, 3, 5)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64),
                          st.integers(-(2**64), 2**64).filter(bool),
                          st.integers(-(2**64), 2**64).filter(bool)), max_size=6))
def test_equal_frames_compare_and_hash_equal_however_built(rows):
    objs = tuple(frame(f"f{i}", *row) for i, row in enumerate(rows))
    cols = FrameColumns([f.id for f in objs], *([list(c) for c in zip(*rows)] or [[]] * 4))
    parsed = parse_instance(emit_instance(GeomInstance(frames=objs))).frames
    for built in (cols, FrameColumns.of(objs), parsed):
        assert built == objs and built == cols and built == FrameColumns.of(objs)
        assert hash(built) == hash(objs) == hash(cols)
        assert GeomInstance(frames=built) == GeomInstance(frames=objs)


def test_instance_holds_frame_columns():
    objs = (frame("a", 0, 0, 3, 3), frame("b", 4, 4, 1, 1))
    inst = GeomInstance(frames=objs)
    assert isinstance(inst.frames, FrameColumns)
    assert inst.frames == objs and inst.ids == ("a", "b") and inst.n == 2
    cols = GeomInstance(frames=FrameColumns(["a", "b"], [0, 4], [0, 4], [3, 1], [3, 1]))
    assert cols == inst and hash(cols) == hash(inst)
    edge = cols._replace(model="edge")
    assert edge.frames is cols.frames and edge != cols
    moved = inst._replace(frames=objs[:1])
    assert moved.frames == objs[:1] and moved.diagonal is None
    assert GeomInstance(rects=(Rect("r", Point(0, 0), Point(1, 1)),)).ids == ("r",)
