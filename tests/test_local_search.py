"""Local-search solver and the anchored two-sided driver."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_is_dominating,
    brute_mds_size,
    closed_masks,
    edge_set,
    is_k_locally_optimal,
    reference_find_improvement,
    reference_greedy,
    reference_local_search,
)
from lframes.errors import NotAnchored
from lframes.generators import gen_anchored_one_sided, gen_anchored_two_sided
from lframes.geometry import GeomInstance, LFrame, Point, is_anchored
from lframes.graph_core import (
    IntersectionGraph,
    build_intersection_graph,
    exact_mds,
    greedy_mds,
    is_dominating,
)
from lframes.local_search import (
    LocalSearchConfig,
    approx_two_sided,
    local_search_mds,
    split_two_sided,
)


def anchored_above(fid, x, d, h, v):
    return LFrame(fid, Point(x, d - x), h, v)


def anchored_below(fid, x, d, h, v):
    return LFrame(fid, Point(x, d - x), -h, -v)


STAR = IntersectionGraph(4, [(0, 1), (0, 2), (0, 3)])


def test_already_optimal_is_unchanged(stair5):
    g = build_intersection_graph(stair5)
    start = greedy_mds(g).members
    ds = local_search_mds(g, LocalSearchConfig(k=2))
    assert ds.members == start == (0, 2)


def test_stair5_result_is_locally_optimal(stair5):
    g = build_intersection_graph(stair5)
    ds = local_search_mds(g, LocalSearchConfig(k=2))
    assert ds.size == 2
    assert is_k_locally_optimal(g, ds.members, 2)


def test_full_star_set_is_not_locally_optimal():
    assert not is_k_locally_optimal(STAR, range(4), 1)


def test_config_validation():
    with pytest.raises(ValueError):
        LocalSearchConfig(k=0)


def test_config_refuses_a_non_integer_k():
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        LocalSearchConfig(2.0)


def test_large_k_warns():
    with pytest.warns(UserWarning):
        local_search_mds(STAR, LocalSearchConfig(k=4))


def test_never_worse_than_greedy_and_always_dominating():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = IntersectionGraph(n, edges)
        ds = local_search_mds(g, LocalSearchConfig(k=2))
        assert is_dominating(g, ds.members)
        assert ds.size <= greedy_mds(g).size
        assert local_search_mds(g, LocalSearchConfig(k=1)).size >= ds.size


PROPERTY = settings(max_examples=300)

graphs = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
        if n else st.just([]),
    )
)


@PROPERTY
@given(graphs, st.integers(1, 3))
def test_members_match_bitmask_search_on_graphs(case, k):
    n, pairs = case
    edges = [(u, v) for u, v in pairs if u != v]
    g = IntersectionGraph(n, edges)
    assert local_search_mds(g, LocalSearchConfig(k=k)).members == reference_local_search(n, edges, k)


@PROPERTY
@given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 3))
def test_members_match_bitmask_search_on_one_sided(seed, n, k):
    g = build_intersection_graph(gen_anchored_one_sided(seed, n))
    edges = edge_set(g)
    assert local_search_mds(g, LocalSearchConfig(k=k)).members == reference_local_search(n, edges, k)


@PROPERTY
@given(graphs, st.integers(0, 2**12 - 1), st.integers(1, 3))
def test_local_optimality_matches_bitmask_step(case, subset, k):
    # any member set joined to a dominating one
    n, pairs = case
    edges = [(u, v) for u, v in pairs if u != v]
    members = {v for v in range(n) if (subset >> v) & 1} | set(reference_greedy(n, edges))
    want = reference_find_improvement(closed_masks(n, edges), members, k) is None
    assert is_k_locally_optimal(IntersectionGraph(n, edges), members, k) == want


# Disjoint unions of small graphs with the vertex ids shuffled across the
# parts: removals that span two parts with no link between them, which the
# search skips, are most common here.
def _shuffled_union(parts, perm):
    edges, offset = [], 0
    for n, pairs in parts:
        edges += [(perm[offset + u], perm[offset + v]) for u, v in pairs if u != v]
        offset += n
    return offset, edges


small_graphs = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
    )
)
unions = st.lists(small_graphs, min_size=1, max_size=4).flatmap(
    lambda parts: st.tuples(
        st.just(parts), st.permutations(range(sum(n for n, _ in parts)))
    )
)


@PROPERTY
@given(unions, st.integers(1, 3))
def test_members_match_bitmask_search_on_disjoint_unions(case, k):
    n, edges = _shuffled_union(*case)
    g = IntersectionGraph(n, edges)
    assert local_search_mds(g, LocalSearchConfig(k=k)).members == reference_local_search(n, edges, k)


@PROPERTY
@given(unions, st.integers(0, 2**28 - 1), st.integers(1, 3))
def test_local_optimality_matches_bitmask_step_on_disjoint_unions(case, subset, k):
    # a random member set joined to a dominating one, and a minimal
    # dominating set inside that, where only k >= 2 swaps can help
    n, edges = _shuffled_union(*case)
    g = IntersectionGraph(n, edges)
    masks = closed_masks(n, edges)
    members = {v for v in range(n) if (subset >> v) & 1}
    dominating = members | set(reference_greedy(n, edges))
    minimal = set(dominating)
    for v in sorted(dominating):
        if brute_is_dominating(n, edges, minimal - {v}):
            minimal.discard(v)
    for s in (dominating, minimal):
        want = reference_find_improvement(masks, s, k) is None
        assert is_k_locally_optimal(g, s, k) == want


def test_members_match_bitmask_search_at_n_500():
    g = build_intersection_graph(gen_anchored_one_sided(1, 500))
    want = reference_local_search(g.n, edge_set(g), 2)
    assert local_search_mds(g, LocalSearchConfig(k=2)).members == want


# The bitmask reference cannot run at n = 2000, so the members are pinned by
# the SHA-256 prefix of their space-separated ids: a change that keeps the
# sizes but moves the members fails here.
MEMBER_DIGESTS = {
    ("gen_anchored_one_sided", 2): "6552b29e56ce6352",
    ("gen_anchored_one_sided", 3): "88af5675847e6ebd",
    ("gen_anchored_two_sided", 2): "b37fe22fad2bf107",
}


@pytest.mark.parametrize("gen, k, size", [
    (gen_anchored_one_sided, 2, 438),
    (gen_anchored_one_sided, 3, 432),
    (gen_anchored_two_sided, 2, 724),
])
def test_sizes_at_n_2000(gen, k, size):
    g = build_intersection_graph(gen(1, 2000))
    ds = local_search_mds(g, LocalSearchConfig(k=k))
    assert ds.size == size
    assert is_dominating(g, ds.members)
    digest = hashlib.sha256(" ".join(map(str, ds.members)).encode()).hexdigest()
    assert digest[:16] == MEMBER_DIGESTS[gen.__name__, k]


def test_ptas_disjoint_frames():
    frames = tuple(anchored_above(f"f{i}", 5 * i, 20, 4, 4) for i in range(4))
    inst = GeomInstance(frames=frames, diagonal=20)
    assert approx_two_sided(inst, 2).size == 4


def test_ptas_all_intersecting():
    frames = tuple(anchored_above(f"f{i}", i, 10, 10, 10) for i in range(4))
    inst = GeomInstance(frames=frames, diagonal=10)
    assert approx_two_sided(inst, 2).size == 1


def test_ptas_generated_instance_golden():
    inst = gen_anchored_one_sided(12, 12)
    ds = approx_two_sided(inst, 2)
    g = build_intersection_graph(inst)
    assert is_dominating(g, ds.members)
    assert ds.size == 3
    assert exact_mds(g).size == 3


def test_split_two_sided():
    inst = GeomInstance(
        frames=(
            anchored_above("a", 2, 10, 3, 3),
            anchored_below("b", 4, 10, 3, 3),
            anchored_above("c", 6, 10, 2, 2),
        ),
        diagonal=10,
    )
    above, below = split_two_sided(inst)
    assert [f.id for f in above.frames] == ["a", "c"]
    assert [f.id for f in below.frames] == ["b"]


def test_split_rejects_unanchored():
    inst = GeomInstance(
        frames=(LFrame("a", Point(0, 0), 3, 3),), diagonal=10
    )
    with pytest.raises(NotAnchored):
        split_two_sided(inst)
    with pytest.raises(NotAnchored):
        split_two_sided(GeomInstance(frames=(LFrame("a", Point(0, 0), 3, 3),)))


def test_two_sided_above_only_equals_one_sided():
    inst = gen_anchored_one_sided(3, 8)
    g = build_intersection_graph(inst)
    assert approx_two_sided(inst, 2).members == local_search_mds(g, LocalSearchConfig(k=2)).members


def test_two_sided_disjoint_pair():
    inst = GeomInstance(
        frames=(anchored_above("a", 0, 10, 3, 3), anchored_below("b", 5, 10, 3, 3)),
        diagonal=10,
    )
    assert approx_two_sided(inst, 2).members == (0, 1)


def test_two_sided_generated_instance_golden():
    inst = gen_anchored_two_sided(14, 14)
    ds = approx_two_sided(inst, 2)
    g = build_intersection_graph(inst)
    assert is_dominating(g, ds.members)
    assert ds.size == 6
    assert exact_mds(g).size == 6


def test_two_sided_size_bound():
    # the union is never larger than the two one-sided solutions together
    for seed in range(20):
        inst = gen_anchored_two_sided(seed, 10)
        above, below = split_two_sided(inst)
        total = 0
        for part in (above, below):
            if part.frames:
                total += approx_two_sided(part, 2).size
        assert approx_two_sided(inst, 2).size <= total


def test_cross_side_adjacency_needs_shared_anchor():
    for seed in range(30):
        inst = gen_anchored_two_sided(seed, 10)
        g = build_intersection_graph(inst)
        side = [is_anchored(f, inst.diagonal, "above") for f in inst.frames]
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                if side[i] == side[j]:
                    continue
                touching = (i, j) in edge_set(g)
                shared = inst.frames[i].corner == inst.frames[j].corner
                assert touching == shared


def test_local_beats_or_matches_brute_on_one_sided():
    # k=2 local search is close to optimal on small anchored instances
    for seed in range(25):
        inst = gen_anchored_one_sided(seed, 7)
        g = build_intersection_graph(inst)
        ds = approx_two_sided(inst, 2)
        opt = brute_mds_size(g.n, edge_set(g))
        assert opt <= ds.size <= 2 * opt
