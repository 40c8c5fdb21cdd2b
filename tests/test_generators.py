"""Seeded instance families: determinism and structural invariants."""

import random

import pytest

from lframes.generators import (
    FAMILIES,
    gen_anchored_one_sided,
    gen_anchored_rects,
    gen_anchored_two_sided,
    gen_bipartite,
    gen_chord_diagram,
    gen_graph,
    gen_two_line,
    generate,
)
from lframes.local_search import split_two_sided
from lframes.permutation import two_line_vertex_order
from lframes.reductions import build_certificate, reduction_source


@pytest.mark.parametrize("gen", [
    gen_anchored_one_sided, gen_anchored_two_sided, gen_anchored_rects,
    gen_chord_diagram, gen_graph, gen_two_line,
])
def test_generators_refuse_an_empty_family(gen):
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        gen(1, 0)


def test_known_families():
    assert sorted(FAMILIES) == [
        "anchored-one-sided",
        "anchored-two-sided",
        "circle-diagonal",
        "circle-vertical",
        "eds-epg",
        "sat",
        "two-line",
        "vc-epg",
    ]
    with pytest.raises(ValueError):
        generate("triangles", 0, 5)


def test_determinism():
    for family in sorted(FAMILIES):
        assert generate(family, 11, 6) == generate(family, 11, 6)


def test_seeds_differ():
    a = gen_anchored_one_sided(0, 8)
    b = gen_anchored_one_sided(1, 8)
    assert a != b


def test_large_seed():
    inst = gen_anchored_one_sided(2**63 - 1, 6)
    assert inst.n == 6


def test_one_sided_all_above():
    for seed in range(10):
        inst = gen_anchored_one_sided(seed, 9)
        assert inst.n == 9
        above, below = split_two_sided(inst)  # refuses a frame anchored on neither side
        assert above.n == 9 and below.n == 0


def test_two_sided_every_frame_anchored():
    for seed in range(10):
        inst = gen_anchored_two_sided(seed, 10)
        above, below = split_two_sided(inst)  # refuses a frame anchored on neither side
        assert above.n + below.n == inst.n


def test_rect_family_is_anchored():
    for seed in range(10):
        inst = gen_anchored_rects(seed, 8)
        d = inst.diagonal
        for r in inst.rects:
            corners_on_line = (r.lo.x + r.lo.y == d) + (r.hi.x + r.hi.y == d)
            assert corners_on_line == 1


def test_chord_diagram_is_valid():
    for seed in range(10):
        cd = gen_chord_diagram(seed, 7)
        assert cd.n == 7
        assert len(cd.order) == 14


def test_two_line_family_reads_as_permutation():
    for seed in range(10):
        inst = gen_two_line(seed, 12)
        assert inst.vline == 0 and inst.hline == 0
        order = two_line_vertex_order(inst)
        assert sorted(order) == list(range(12))


def test_graph_generator_edges_in_range():
    n, edges = gen_graph(5, 6)
    assert n == 6
    for i, j in edges:
        assert 1 <= i < j <= 6


def test_bipartite_generator_bounds():
    for seed in range(10):
        edges = gen_bipartite(seed, 3, 4)
        assert 1 <= len(edges) <= 8
        assert len(set(edges)) == len(edges)
        for i, j in edges:
            assert 1 <= i <= 3 and 1 <= j <= 4


def test_bipartite_generator_matches_pair_list():
    # the draw over pair indices picks what a draw over the listed pairs picks
    for seed in range(40):
        for n_a, n_b in ((1, 1), (1, 5), (3, 4), (6, 2), (7, 9)):
            rng = random.Random(seed)
            pairs = [(i, j) for i in range(1, n_a + 1) for j in range(1, n_b + 1)]
            k = rng.randint(1, min(8, len(pairs)))
            assert gen_bipartite(seed, n_a, n_b) == tuple(sorted(rng.sample(pairs, k)))


def test_bipartite_generator_lists_no_pairs():
    edges = gen_bipartite(1, 10**6, 10**6)
    assert 1 <= len(edges) <= 8
    assert all(1 <= i <= 10**6 and 1 <= j <= 10**6 for i, j in edges)


def test_reduction_families_emit_certificate_instances():
    for family, kind in (("circle-diagonal", "circle-diagonal"),
                         ("circle-vertical", "circle-vertical"),
                         ("sat", "sat"), ("vc-epg", "vc"), ("eds-epg", "eds")):
        cert = build_certificate(kind, reduction_source(kind, 3, 5))
        assert generate(family, 3, 5) == cert.instance
    with pytest.raises(ValueError):
        build_certificate("exchange", reduction_source("exchange", 3, 5))


def test_sat_family_cycles_through_corpus():
    a = generate("sat", 0, 1)
    b = generate("sat", 12, 1)
    assert a == b
