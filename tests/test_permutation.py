"""Permutation reading of two-line instances and the frontier-scan solver."""

import bisect
import itertools
import random
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_mds_size, edge_set, permutation_graph, traced_peak
from lframes import permutation as pm
from lframes.errors import DegenerateOrder, NotTwoLineCrossing
from lframes.generators import gen_two_line, generate
from lframes.geometry import FrameColumns, GeomInstance, LFrame, Point, _column
from lframes.graph_core import build_intersection_graph, is_dominating
from lframes.instance_io import emit_instance, parse_instance
from lframes.permutation import (
    Permutation,
    lframes_to_permutation,
    mds_permutation,
    two_line_vertex_order,
)


def two_line_frame(fid, x, y):
    return LFrame(fid, Point(x, y), 10, -10)


def two_line_instance(*frames):
    return GeomInstance(frames=frames, vline=0, hline=0)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    assert Permutation((2, 1)).n == 2
    # a duplicate value, a 0 and an n + 1
    for pi in ((2, 3, 2), (2, 0, 1), (1, 4, 2)):
        with pytest.raises(ValueError, match=r"^pi is not a bijection on 1\.\.n$"):
            Permutation(pi)
    p = Permutation(tuple(np.array([3, 1, 2], dtype=np.int64)))
    assert p.pi == (3, 1, 2)
    assert all(type(v) is int for v in p.pi)
    # values must be integers: floats and strings are not truncated or parsed
    for pi in ((1.7, 2.2), (1.0, 2.0), ("2", "1")):
        with pytest.raises(TypeError):
            Permutation(pi)


def test_swap_pair_is_adjacent():
    g = permutation_graph(Permutation((2, 1)))
    assert edge_set(g) == {(0, 1)}


def test_identity_has_no_edges():
    g = permutation_graph(Permutation((1, 2, 3)))
    assert edge_set(g) == set()


def test_reversal_is_complete():
    g = permutation_graph(Permutation((4, 3, 2, 1)))
    assert len(edge_set(g)) == 6


def test_nested_frames_give_identity():
    inst = two_line_instance(
        LFrame("a", Point(-5, 3), 6, -4), LFrame("b", Point(-3, 2), 4, -3)
    )
    assert lframes_to_permutation(inst).pi == (1, 2)
    assert edge_set(build_intersection_graph(inst)) == set()


def test_crossing_pair_gives_swap():
    inst = two_line_instance(
        LFrame("a", Point(-5, 3), 6, -4), LFrame("b", Point(-6, 2), 7, -3)
    )
    assert lframes_to_permutation(inst).pi == (2, 1)
    assert edge_set(build_intersection_graph(inst)) == {(0, 1)}


def test_pairwise_crossing_gives_reversal():
    inst = two_line_instance(
        two_line_frame("a", -4, 6),
        two_line_frame("b", -5, 5),
        two_line_frame("c", -6, 4),
    )
    assert lframes_to_permutation(inst).pi == (3, 2, 1)
    assert len(edge_set(build_intersection_graph(inst))) == 3


def test_mds_identity_needs_all():
    assert mds_permutation(Permutation((1, 2, 3, 4))).size == 4


def test_mds_reversal_needs_one():
    assert mds_permutation(Permutation((5, 4, 3, 2, 1))).size == 1


def test_mds_two_blocks():
    assert mds_permutation(Permutation((2, 1, 4, 3))).size == 2


def test_mds_empty():
    assert mds_permutation(Permutation(())).members == ()


def test_mds_matches_brute_force():
    rng = random.Random(2718)
    for _ in range(120):
        n = rng.randint(1, 9)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        p = Permutation(tuple(pi))
        g = permutation_graph(p)
        ds = mds_permutation(p)
        assert is_dominating(g, ds.members)
        assert ds.size == brute_mds_size(n, edge_set(g))


def test_pure_python_scan_agrees():
    # a direct call of the scan returns a dominating set of optimum size
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 8)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        takes = pm._scan(tuple(pi))
        assert pm._scan(pi) == takes  # a list reads as the tuple does
        g = permutation_graph(Permutation(tuple(pi)))
        assert is_dominating(g, takes)
        assert len(takes) == brute_mds_size(n, edge_set(g))


def assert_optimal(pi):
    p = Permutation(tuple(pi))
    g = permutation_graph(p)
    ds = mds_permutation(p)
    assert is_dominating(g, ds.members), pi
    assert ds.size == brute_mds_size(p.n, edge_set(g)), pi


def test_mds_matches_brute_force_on_all_small_permutations():
    for n in range(1, 8):
        for pi in itertools.permutations(range(1, n + 1)):
            assert_optimal(pi)


UNSORTED_COLLAPSE = (4, 6, 1, 7, 3, 2, 5)  # the sentinel collapse reorders states


def test_mds_unsorted_collapse_regression():
    assert_optimal(UNSORTED_COLLAPSE)


def grid_transpose(a, b):
    return [c * a + r + 1 for r in range(a) for c in range(b)]


def block_reversal(sizes):
    pi, top = [], sum(sizes)
    for s in sizes:
        pi.extend(range(top - s + 1, top + 1))
        top -= s
    return pi


def noisy_identity(n, rng, chunk):
    pi, i = list(range(1, n + 1)), 0
    while i < n:
        s = min(n - i, rng.randint(1, chunk))
        if rng.random() < 0.5:
            part = pi[i:i + s]
            rng.shuffle(part)
            pi[i:i + s] = part
        i += s
    return pi


def test_mds_matches_brute_force_on_structured_permutations():
    rng = random.Random(31)
    for a in range(1, 5):
        for b in range(1, 5):
            assert_optimal(grid_transpose(a, b))
    for _ in range(30):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        assert_optimal(block_reversal(sizes))
    for _ in range(30):
        assert_optimal(noisy_identity(rng.randint(1, 12), rng, rng.randint(2, 6)))


def test_scan_on_long_forced_and_quiet_runs(monkeypatch):
    # every position of the identity is a suffix minimum and every one of
    # its reversal a suffix maximum, so each is stepped: the identity (no
    # edges) needs every vertex, the reversal (complete) one. In
    # (n, 2, 3, ..., n - 1, 1) the values 3..n-2 are neither suffix extrema
    # nor hot, so that run is crossed without a step
    stepped = []  # the values the scan steps over
    step = pm._step
    monkeypatch.setattr(
        pm, "_step", lambda front, v, *rest: stepped.append(v) or step(front, v, *rest)
    )
    n = 10**5
    assert pm._scan(tuple(range(1, n + 1))) == list(range(n))
    assert stepped == list(range(1, n + 1))
    stepped.clear()
    assert pm._scan(tuple(range(n, 0, -1))) == [n - 1]
    assert stepped == list(range(n, 0, -1))
    for quiet in ((n, *range(2, n), 1), [n, *range(2, n), 1]):  # a tuple and a list
        stepped.clear()
        assert pm._scan(quiet) == [n - 1]
        assert stepped == [n, 2, n - 1, 1]


def ranks(values):
    """The 1-based rank of each value among ``values``, in their order."""
    out = [0] * len(values)
    for r, i in enumerate(sorted(range(len(values)), key=values.__getitem__), 1):
        out[i] = r
    return tuple(out)


@settings(max_examples=300)
@given(st.one_of(st.lists(st.integers(-40, 40), unique=True, max_size=25),
                 st.lists(st.integers(-2**70, 2**70), unique=True, max_size=25)))
@example([2**63 - 3, 1, 3, 2])  # fits a machine word; its sentinels do not
@example([-(2**63), 2**63 - 1, 0, -1])  # raw values fit, shifted ones do not
def test_scan_reads_any_distinct_positive_values_as_their_ranks(raw):
    # the scan only compares values: raw coordinates shifted to start at 1,
    # in a machine-word column or, past 64 bits, a tuple, give the
    # positions their ranks give
    shifted = _column([v - min(raw) + 1 for v in raw] if raw else [])
    assert type(shifted) is (array if max(shifted, default=0) < 2**63 else tuple)
    assert pm._scan(shifted) == pm._scan(ranks(shifted))


def test_line_two_is_the_shifted_x_values_in_line_one_order():
    inst = gen_two_line(5, 60)
    fr = inst.frames
    order1, line2 = pm._line_orders(inst)
    assert type(order1) is array and order1.typecode in "iq"
    assert type(line2) is array and line2.typecode == "q"
    assert list(line2) == [fr.x[i] - min(fr.x) + 1 for i in order1]
    order, p = two_line_vertex_order(inst), lframes_to_permutation(inst)
    assert order == tuple(order1)
    assert p.pi == ranks(line2)
    # moving the leftmost frame 2**64 further left keeps both orders, but
    # its line-two value no longer fits a machine word
    left = min(range(len(fr)), key=fr.x.__getitem__)
    xs, hs = list(fr.x), list(fr.hspan)
    xs[left] -= 2**64
    hs[left] += 2**64
    wide = inst._replace(frames=FrameColumns(fr.ids, xs, fr.y, hs, fr.vspan))
    order1_wide, line2_wide = pm._line_orders(wide)
    assert order1_wide == order1
    assert type(line2_wide) is tuple and max(line2_wide) > 2**64
    assert (two_line_vertex_order(wide), lframes_to_permutation(wide)) == (order, p)
    assert pm._scan(line2_wide) == pm._scan(line2) == list(mds_permutation(p).members)


def frontier_corpus():
    """All permutations with n <= 7, UNSORTED_COLLAPSE, grids, and random,
    noisy-identity and block-reversal permutations with n <= 200."""
    rng = random.Random(47)
    cases = [pi for n in range(1, 8) for pi in itertools.permutations(range(1, n + 1))]
    cases.append(UNSORTED_COLLAPSE)
    cases += [grid_transpose(a, b) for a in (3, 7, 12) for b in (2, 5, 11)]
    for _ in range(20):
        n = rng.randint(10, 200)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        cases += [pi, noisy_identity(n, rng, 8), block_reversal([rng.randint(1, 9) for _ in range(n // 5)])]
    return cases


def test_hot_values_are_exactly_the_frontier_changes():
    # step every position: the frontier stays sorted and Pareto-pruned, and
    # away from suffix minima and maxima it changes exactly at the values
    # the scan treats as hot
    for pi in frontier_corpus():
        n = len(pi)
        inff = n + 2
        sufmin, sufmax = [n + 3] * (n + 1), [0] * (n + 1)
        for p in range(n - 1, -1, -1):
            sufmin[p] = min(pi[p], sufmin[p + 1])
            sufmax[p] = max(pi[p], sufmax[p + 1])
        front = [(0, 0, inff)]
        for p, v in enumerate(pi):
            hot = bisect.bisect_right(pm._hot_edges(front, inff), v) & 1
            nxt, _ = pm._step(front, v, sufmin[p + 1], sufmax[p + 1], n + 1, inff)
            assert nxt == sorted(nxt, key=lambda st: (st[0], -st[1], -st[2])), (pi, p)
            for a, b in itertools.permutations(nxt, 2):
                assert not (a[0] <= b[0] and a[1] >= b[1] and a[2] >= b[2]), (pi, p)
            if sufmin[p] < v < sufmax[p]:
                assert bool(hot) == (set(nxt) != set(front)), (pi, p)
            front = nxt


def reference_step(front, v, smin, smax, big, inff):
    """The scan's step written plainly: skip and take for every state under
    the drop and sentinel-collapse rules, a pairwise Pareto filter under
    (count <=, M >=, F >=) that keeps the least code of equal states, and a
    sort by (count asc, M desc, F desc)."""
    cands = []
    for s, (c, m, f) in enumerate(front):
        skip = (c, m, v if m < v < f else f)
        take = (c + 1, max(m, v), inff if v < f else f)
        for code, (c2, m2, f2) in enumerate((skip, take), 2 * s):
            if f2 != inff and f2 < smin:
                continue
            if f2 != inff and f2 > smax:
                f2 = smax + 1
            m2 = 0 if m2 < smin else big if m2 > smax else m2
            cands.append(((c2, m2, f2), code))

    def beats(a, code_a, b, code_b):
        return a[0] <= b[0] and a[1] >= b[1] and a[2] >= b[2] and (a != b or code_a < code_b)

    kept = [(st, code) for st, code in cands
            if not any(beats(other, oc, st, code) for other, oc in cands)]
    kept.sort(key=lambda sc: (sc[0][0], -sc[0][1], -sc[0][2]))
    return [st for st, _ in kept], [code for _, code in kept]


def test_step_matches_a_plain_reference_step(monkeypatch):
    # every step the scan makes on the corpus starts from a frontier that
    # holds a state with nothing pending (F = inf) and gives the reference's
    # next frontier and parent codes, one-state frontiers included, and
    # those reach each of their three outcomes: skip, take, and both
    one_state = set()
    step = pm._step

    def checked(front, *args):
        inff = args[-1]
        assert any(f == inff for _, _, f in front), (front, args)
        new, codes = step(front, *args)
        assert (new, list(codes)) == reference_step(front, *args), (front, args)
        if len(front) == 1:
            one_state.add(tuple(codes))
        return new, codes

    monkeypatch.setattr(pm, "_step", checked)
    for pi in frontier_corpus():
        pm._scan(pi)
    assert one_state == {(0,), (1,), (0, 1)}


def test_every_one_state_frontier_steps_and_heats_as_the_reference():
    # the scan reaches one-state frontiers only with F = inf (a take from an
    # F = inf state keeps F = inf and is never dropped), so every such state
    # (c, M, inf) steps as the reference does over every value and every
    # pair of bounds, and a value strictly between the bounds is hot iff it
    # changes a state whose M is already collapsed to those bounds
    for n in range(2, 8):
        big, inff = n + 1, n + 2
        for smin, smax in itertools.combinations_with_replacement(range(1, n + 1), 2):
            for v, m in itertools.product(range(1, n + 1), range(big + 1)):
                if v == m:
                    continue
                front = [(2, m, inff)]
                new, codes = pm._step(front, v, smin, smax, big, inff)
                assert (new, list(codes)) == reference_step(front, v, smin, smax, big, inff)
                if smin < v < smax and m in (0, big, *range(smin, smax + 1)):
                    hot = bisect.bisect_right(pm._hot_edges(front, inff), v) & 1
                    assert bool(hot) == (new != front), (n, smin, smax, v, m)


def test_generated_instances_match_permutation_graph():
    for seed in range(20):
        inst = gen_two_line(seed, 2 + seed % 9)
        g = build_intersection_graph(inst)
        order1 = two_line_vertex_order(inst)
        pg = permutation_graph(lframes_to_permutation(inst))
        mapped = {
            tuple(sorted((order1[i], order1[j]))) for i, j in edge_set(pg)
        }
        assert mapped == edge_set(g)


def test_solution_transfers_to_frames():
    inst = gen_two_line(4, 9)
    g = build_intersection_graph(inst)
    order1 = two_line_vertex_order(inst)
    ds = mds_permutation(lframes_to_permutation(inst))
    assert is_dominating(g, [order1[t] for t in ds.members])


def test_missing_lines_rejected():
    f = two_line_frame("a", -4, 6)
    with pytest.raises(NotTwoLineCrossing):
        two_line_vertex_order(GeomInstance(frames=(f,), hline=0))
    with pytest.raises(NotTwoLineCrossing):
        two_line_vertex_order(GeomInstance(frames=(f,), vline=0))


def test_frame_missing_a_line_rejected():
    short = LFrame("a", Point(-4, 6), 2, -10)  # stops left of the vertical line
    inst = GeomInstance(frames=(short,), vline=0, hline=0)
    with pytest.raises(NotTwoLineCrossing):
        two_line_vertex_order(inst)


def test_wrong_orientation_rejected():
    up = LFrame("a", Point(-4, 6), 10, 10)
    inst = GeomInstance(frames=(up,), vline=0, hline=0)
    with pytest.raises(NotTwoLineCrossing):
        two_line_vertex_order(inst)


def test_tied_crossings_rejected():
    inst = two_line_instance(
        two_line_frame("a", -4, 6), two_line_frame("b", -5, 6)
    )
    with pytest.raises(DegenerateOrder):
        two_line_vertex_order(inst)
    inst2 = two_line_instance(
        two_line_frame("a", -4, 6), two_line_frame("b", -4, 5)
    )
    with pytest.raises(DegenerateOrder):
        two_line_vertex_order(inst2)


def test_tie_messages_name_the_smallest_tie():
    # several tied crossings on each line: the smallest tied y is named
    # first, and once y has no ties the smallest tied x, whichever way the
    # line is read and however many frames share the value
    def frame(k, x, y):
        return LFrame(f"f{k}", Point(x, y), 100, -100)

    ys = [40, 20, 30, 20, 30, 30, 40, 50]
    xs = [-50, -60, -10, -50, -60, -60, -20, -30]
    inst = GeomInstance(frames=[frame(k, x, y) for k, (x, y) in enumerate(zip(xs, ys))],
                        vline=0, hline=0)
    with pytest.raises(DegenerateOrder, match=r"^tied vertical-line crossings at y=20$"):
        two_line_vertex_order(inst)
    inst = GeomInstance(frames=[frame(k, x, 10 + k) for k, x in enumerate(xs)], vline=0, hline=0)
    with pytest.raises(DegenerateOrder, match=r"^tied horizontal-line crossings at x=-60$"):
        lframes_to_permutation(inst)

    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(2, 12)
        xs = [rng.randint(-9, -1) for _ in range(n)]
        ys = [rng.randint(1, 9) for _ in range(n)] if rng.random() < 0.5 else rng.sample(range(1, 99), n)
        inst = GeomInstance(frames=[frame(k, x, y) for k, (x, y) in enumerate(zip(xs, ys))],
                            vline=0, hline=0)
        tied_y = [v for v, c in Counter(ys).items() if c > 1]
        tied_x = [v for v, c in Counter(xs).items() if c > 1]
        if tied_y:
            message = f"tied vertical-line crossings at y={min(tied_y)}"
        elif tied_x:
            message = f"tied horizontal-line crossings at x={min(tied_x)}"
        else:
            assert len(two_line_vertex_order(inst)) == n
            continue
        for read in (two_line_vertex_order, lframes_to_permutation):
            with pytest.raises(DegenerateOrder) as err:
                read(inst)
            assert str(err.value) == message, (xs, ys)


def test_edge_model_rejected():
    # in the edge model frames that only cross share no grid edge, so the
    # graph is not the permutation graph and the reading must refuse it
    inst = gen_two_line(3, 30)._replace(model="edge")
    assert edge_set(build_intersection_graph(inst)) == set()
    for read in (two_line_vertex_order, lframes_to_permutation):
        with pytest.raises(NotTwoLineCrossing, match=r"^two-line conversion requires the standard model$"):
            read(inst)


def test_read_off_allocates_little_beyond_what_it_keeps():
    # the permutation keeps about 40 bytes a frame. One sort by y leaves
    # only a machine-word array of the line-one order, and the ranks of
    # line two come from one sort of plain ints with no key list, which
    # adds about as much again at the peak (88 bytes a frame traced)
    n = 50_000
    inst = parse_instance(emit_instance(generate("two-line", 1, n)))
    p, peak = traced_peak(lframes_to_permutation, inst)
    assert peak / n < 95
    assert p.n == n


def test_scan_history_is_held_in_machine_words():
    # the identity steps and marks every position; its marks and history
    # take a few machine words each, and the answer a list of n positions
    n = 10**5
    takes, peak = traced_peak(pm._scan, tuple(range(1, n + 1)))
    assert takes == list(range(n))
    assert peak / n < 100
