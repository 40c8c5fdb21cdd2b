"""Acceptance checks, one test per criterion.

Every expected value here is either recomputed by an independent in-test
oracle (subset enumeration, direct interleaving/inversion logic) or frozen
as a golden constant computed once for the committed seed schedule. Size
comparisons are exact integer or Fraction arithmetic; the only tolerances
are the two wall-clock limits, pinned next to their asserts.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from conftest import (
    brute_edge_dominating_size,
    brute_mds_size,
    brute_vertex_cover_size,
    edge_set,
    swap_is_dominating,
)
from lframes.exchange import (
    build_exchange_graph,
    check_local_exchange,
    count_crossings,
    draw_arcs,
)
from lframes.generators import (
    gen_anchored_one_sided,
    gen_anchored_rects,
    gen_anchored_two_sided,
    gen_bipartite,
    gen_chord_diagram,
    gen_graph,
    gen_two_line,
)
from lframes.geometry import GeomInstance, rect_to_lframe
from lframes.graph_core import (
    build_intersection_graph,
    exact_mds,
    exact_mds_size,
    is_dominating,
)
from lframes.local_search import (
    LocalSearchConfig,
    approx_two_sided,
    local_search_mds,
    split_two_sided,
)
from lframes.permutation import (
    Permutation,
    lframes_to_permutation,
    mds_permutation,
    two_line_vertex_order,
)
from lframes.reductions import (
    circle_to_diagonal,
    circle_to_vertical,
    eds_to_epg,
    monotone3sat_to_lframes,
    sat_corpus,
    vc_to_epg,
)

# Golden ratios for criterion 4, computed once over the committed seed
# schedule (seeds 0..199, n = 2 + seed % 13, k = 2) and frozen. The side
# solutions always hit the side optimum; the union peaks at twice the
# overall optimum.
GOLDEN_SIDE_RATIO = Fraction(1)
GOLDEN_UNION_RATIO = Fraction(2)


def test_criterion_01_rectangle_frame_equivalence():
    for seed in range(1000):
        n = 1 + seed % 10
        rinst = gen_anchored_rects(seed, n)
        g_rect = build_intersection_graph(rinst)
        frames = tuple(rect_to_lframe(r, rinst.diagonal) for r in rinst.rects)
        finst = GeomInstance(frames=frames, diagonal=rinst.diagonal)
        assert g_rect == build_intersection_graph(finst), seed
    print("criterion 1: PASS")


def _one_sided_case(seed):
    inst = gen_anchored_one_sided(seed, 4 + seed % 12)
    g = build_intersection_graph(inst)
    b_full = local_search_mds(g, LocalSearchConfig(k=2)).members
    r_full = exact_mds(g).members
    b_only = sorted(set(b_full) - set(r_full))
    r_only = sorted(set(r_full) - set(b_full))
    return inst, g, b_full, b_only, r_only


def test_criterion_02_exchange_drawing_is_planar():
    t0 = time.perf_counter()
    for seed in range(200):
        inst, _, _, b_only, r_only = _one_sided_case(seed)
        h = build_exchange_graph(inst, b_only, r_only)
        assert count_crossings(draw_arcs(h, inst)) == 0, seed
        total = len(b_only) + len(r_only)
        if total >= 3:
            assert len(h.arcs) <= 2 * total - 4, seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0  # pinned by the criterion
    print(f"criterion 2: PASS ({elapsed:.1f}s)")


def test_criterion_03_local_exchange_swaps_dominate():
    for seed in range(200):
        inst, g, b_full, b_only, r_only = _one_sided_case(seed)
        h = build_exchange_graph(inst, b_only, r_only)
        assert check_local_exchange(h, g), seed
        rng = random.Random(seed * 977 + 13)
        pool = sorted(h.B)
        for _ in range(50):
            subset = [v for v in pool if rng.random() < 0.5]
            assert swap_is_dominating(g, h, b_full, subset), (seed, subset)
    print("criterion 3: PASS")


def test_criterion_04_two_sided_union_bound():
    worst_side = Fraction(0)
    worst_union = Fraction(0)
    for seed in range(200):
        n = 2 + seed % 13
        inst = gen_anchored_two_sided(seed, n)
        g = build_intersection_graph(inst)
        union = approx_two_sided(inst, 2)
        assert is_dominating(g, union.members), seed
        above, below = split_two_sided(inst)
        side_total = 0
        for part in (above, below):
            if part.frames:
                side_total += approx_two_sided(part, 2).size
        assert union.size <= side_total, seed
        if above.frames:
            side_size = approx_two_sided(above, 2).size
            side_opt = exact_mds(build_intersection_graph(above)).size
            ratio = Fraction(side_size, side_opt)
            assert ratio <= GOLDEN_SIDE_RATIO, seed
            worst_side = max(worst_side, ratio)
        opt = exact_mds(g).size
        ratio = Fraction(union.size, opt)
        assert ratio <= GOLDEN_UNION_RATIO, seed
        worst_union = max(worst_union, ratio)
    assert worst_side == GOLDEN_SIDE_RATIO
    assert worst_union == GOLDEN_UNION_RATIO
    print(
        f"criterion 4: PASS (side {float(worst_side):.6f},"
        f" union {float(worst_union):.6f})"
    )


def _positions(order, c):
    first = order.index(c) + 1
    second = order.index(c, first) + 1
    return first, second


def _interleave(order, a, b):
    j, k = _positions(order, a)
    l, m = _positions(order, b)
    return j < l < k < m or l < j < m < k


def test_criterion_05_circle_reductions_are_exact():
    for seed in range(100):
        n = 1 + seed % 8
        cd = gen_chord_diagram(seed, n)
        edges = {
            (a - 1, b - 1)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if _interleave(cd.order, a, b)
        }
        opt = brute_mds_size(n, edges)
        for build in (circle_to_diagonal, circle_to_vertical):
            g = build_intersection_graph(build(cd))
            assert edge_set(g) == edges, (seed, build.__name__)
            assert exact_mds_size(g) == opt, (seed, build.__name__)
    print("criterion 5: PASS")


def _satisfiable_by_enumeration(d):
    for bits in itertools.product((False, True), repeat=d.n_vars):
        if all(
            any(bits[v - 1] for v in c.literals)
            if c.positive
            else not all(bits[v - 1] for v in c.literals)
            for c in d.clauses
        ):
            return True
    return False


def test_criterion_06_sat_reduction_on_committed_corpus():
    corpus = sat_corpus()
    assert len(corpus) >= 10
    n_unsat = 0
    for d in corpus:
        inst, _ = monotone3sat_to_lframes(d)
        g = build_intersection_graph(inst)
        mds = exact_mds_size(g, cap=64)
        sat = _satisfiable_by_enumeration(d)
        n_unsat += 0 if sat else 1
        assert mds >= d.n_vars
        assert (mds == d.n_vars) == sat

        idx = {f.id: v for v, f in enumerate(inst.frames)}
        es = edge_set(g)

        def touch(u, v):
            i, j = idx[u], idx[v]
            return (min(i, j), max(i, j)) in es

        for i in range(1, d.n_vars + 1):
            assert touch(f"x{i}t", f"x{i}f")
            assert set(g.adjacency[idx[f"a{i}"]]) == {idx[f"x{i}t"], idx[f"x{i}f"]}
            for j, c in enumerate(d.clauses, start=1):
                member = i in c.literals
                assert touch(f"x{i}t", f"c{j}") == (c.positive and member)
                assert touch(f"x{i}f", f"c{j}") == (not c.positive and member)
    assert n_unsat >= 1
    print(f"criterion 6: PASS ({len(corpus)} drawings, {n_unsat} unsatisfiable)")


def test_criterion_07_vertex_cover_reduction():
    for seed in range(100):
        nv, edges = gen_graph(seed, 1 + seed % 7)
        inst, _ = vc_to_epg(nv, edges)
        g = build_intersection_graph(inst)
        assert exact_mds_size(g, cap=64) == brute_vertex_cover_size(nv, edges) + nv, seed

        idx = {f.id: v for v, f in enumerate(inst.frames)}
        want = {}
        for i in range(1, nv + 1):
            want[f"v{i}"] = {f"p{i}"} | {f"e{a}_{b}" for a, b in edges if i in (a, b)}
            want[f"p{i}"] = {f"v{i}", f"q{i}"}
            want[f"q{i}"] = {f"p{i}"}
        for a, b in edges:
            want[f"e{a}_{b}"] = {f"v{a}", f"v{b}"} | {
                f"e{t}_{u}" for t, u in edges if u == b and t != a
            }
        for fid, names in want.items():
            got = {inst.frames[u].id for u in g.adjacency[idx[fid]]}
            assert got == names, (seed, fid)
    print("criterion 7: PASS")


def test_criterion_08_eds_reduction():
    for seed in range(100):
        n_a = 1 + seed % 4
        n_b = 1 + (seed // 4) % 4
        edges = gen_bipartite(seed, n_a, n_b)
        inst, _ = eds_to_epg(n_a, n_b, edges)
        g = build_intersection_graph(inst)
        assert exact_mds_size(g) == brute_edge_dominating_size(edges), seed
    print("criterion 8: PASS")


def test_criterion_09_permutation_solver():
    # two-line instances read as permutations with identical adjacency
    for seed in range(200):
        n = 2 + seed % 49
        inst = gen_two_line(seed, n)
        g = build_intersection_graph(inst)
        order1 = two_line_vertex_order(inst)
        p = lframes_to_permutation(inst)
        mapped = set()
        for i in range(n):
            for j in range(i + 1, n):
                if p.pi[i] > p.pi[j]:
                    a, b = order1[i], order1[j]
                    mapped.add((min(a, b), max(a, b)))
        assert mapped == edge_set(g), seed

    # solver optimality against the subset oracle
    for seed in range(500):
        n = 1 + seed % 12
        rng = random.Random(seed)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j]
        ]
        ds = mds_permutation(Permutation(tuple(pi)))
        covered = set(ds.members)
        for i, j in edges:
            if i in ds.members:
                covered.add(j)
            if j in ds.members:
                covered.add(i)
        assert covered == set(range(n)), seed
        assert ds.size == brute_mds_size(n, edges), seed

    # scaling: a million-element permutation in under a second (after a
    # small warm-up call, so that first-call costs stay outside the timing)
    warm = np.random.default_rng(1).permutation(np.arange(1, 1001))
    mds_permutation(Permutation(tuple(int(x) for x in warm)))
    big = np.random.default_rng(0).permutation(np.arange(1, 10**6 + 1))
    p = Permutation(tuple(int(x) for x in big))
    t0 = time.perf_counter()
    ds = mds_permutation(p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0  # pinned by the criterion

    # O(n) domination check: a vertex is covered iff some chosen position
    # before it holds a larger value or some one after it holds a smaller
    vals = big.astype(np.int64)
    n = vals.shape[0]
    chosen = np.zeros(n, dtype=bool)
    chosen[np.array(ds.members, dtype=np.int64)] = True
    pre = np.maximum.accumulate(np.where(chosen, vals, 0))
    suf = np.minimum.accumulate(np.where(chosen, vals, n + 2)[::-1])[::-1]
    assert bool((chosen | (pre > vals) | (suf < vals)).all())
    print(f"criterion 9: PASS (10^6 scan {elapsed:.2f}s, size {ds.size})")


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "lframes.cli", *args], capture_output=True
    )


def test_criterion_10_cli_byte_stability(tmp_path):
    inst_path = tmp_path / "inst.txt"
    setup = _run_cli(
        ["generate", "--family", "anchored-one-sided", "--seed", "17", "--n", "10",
         "--out", str(inst_path)]
    )
    assert setup.returncode == 0

    matrix = [
        ["generate", "--family", "anchored-two-sided", "--seed", "17", "--n", "9"],
        ["generate", "--family", "vc-epg", "--seed", "3", "--n", "5"],
        ["solve", "--in", str(inst_path), "--algo", "exact", "--oracle"],
        ["solve", "--in", str(inst_path), "--algo", "local-search", "--k", "2"],
        ["verify", "--kind", "sat", "--seed", "2"],
        ["verify", "--kind", "exchange", "--seed", "8", "--n", "10"],
        ["render", "--in", str(inst_path), "--algo", "exact"],
        ["render", "--in", str(inst_path), "--exchange"],
    ]
    for args in matrix:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first.returncode == 0, (args, first.stderr)
        assert second.returncode == 0, args
        assert first.stdout == second.stdout, args
    print("criterion 10: PASS")
