"""Every solver's output dominates, on generated instances.

Domination is checked against the pairwise predicates and subset
enumeration from conftest, not against the library's graph; the exact
solver's size is checked against brute force as well. Solvers run through
the CLI's dispatch, so the members are the ones ``lframes solve`` reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_is_dominating, brute_mds_size, pairwise_edges
from lframes.cli import _Run
from lframes.geometry import GeomInstance, LFrame, Point, Rect

PROPERTY = settings(max_examples=150)

GRAPH_ALGOS = ("exact", "greedy", "local-search")
D = 24  # the diagonal x + y = D of the anchored instances

coord = st.integers(-4, 4)
span = st.integers(1, 4).flatmap(lambda s: st.sampled_from((s, -s)))
arm = st.integers(1, 5)
k = st.integers(1, 3)


@st.composite
def free_instances(draw):
    """Frames in any orientation under either model, or rectangles."""
    if draw(st.booleans()):
        specs = draw(st.lists(st.tuples(coord, coord, span, span), min_size=1, max_size=10))
        frames = [LFrame(f"f{i}", Point(x, y), h, v) for i, (x, y, h, v) in enumerate(specs)]
        return GeomInstance(frames=frames, model=draw(st.sampled_from(("standard", "edge"))))
    specs = draw(st.lists(st.tuples(coord, coord, arm, arm), min_size=1, max_size=10))
    return GeomInstance(rects=[
        Rect(f"r{i}", Point(x, y), Point(x + w, y + h)) for i, (x, y, w, h) in enumerate(specs)
    ])


@st.composite
def anchored_instances(draw):
    """Frames or rectangles with a corner on the diagonal, on either side."""
    specs = draw(st.lists(st.tuples(st.booleans(), st.integers(0, D), arm, arm),
                          min_size=1, max_size=10))
    if draw(st.booleans()):
        frames = [
            LFrame(f"f{i}", Point(x, D - x), w if up else -w, h if up else -h)
            for i, (up, x, w, h) in enumerate(specs)
        ]
        return GeomInstance(frames=frames, diagonal=D)
    rects = [
        Rect(f"r{i}", Point(x, D - x), Point(x + w, D - x + h)) if up
        else Rect(f"r{i}", Point(x - w, D - x - h), Point(x, D - x))
        for i, (up, x, w, h) in enumerate(specs)
    ]
    return GeomInstance(rects=rects, diagonal=D)


@st.composite
def two_line_instances(draw):
    """Frames crossing x = 0 rightward and y = 0 downward, with distinct
    crossing coordinates on both lines."""
    n = draw(st.integers(1, 10))
    xs = draw(st.permutations(range(1, n + 1)))
    ys = draw(st.permutations(range(1, n + 1)))
    extra = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=n, max_size=n))
    frames = [
        LFrame(f"f{i}", Point(-x, y), x + ex, -y - ey)
        for i, (x, y, (ex, ey)) in enumerate(zip(xs, ys, extra))
    ]
    return GeomInstance(frames=frames, vline=0, hline=0)


def check(inst, algos, k):
    edges = pairwise_edges(inst)
    for algo in algos:
        members = _Run(inst, k, 32).solve(algo)
        assert brute_is_dominating(inst.n, edges, members), algo
        if algo == "exact":
            assert len(members) == brute_mds_size(inst.n, edges)


@PROPERTY
@given(inst=free_instances(), k=k)
def test_graph_solvers_dominate(inst, k):
    check(inst, GRAPH_ALGOS, k)


@PROPERTY
@given(inst=anchored_instances(), k=k)
def test_two_sided_dominates_anchored_frames_and_rects(inst, k):
    check(inst, ("two-sided", *GRAPH_ALGOS), k)


@PROPERTY
@given(inst=two_line_instances())
def test_permutation_dominates_two_line_instances(inst):
    check(inst, ("permutation", *GRAPH_ALGOS), 2)
