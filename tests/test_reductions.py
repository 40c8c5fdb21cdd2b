"""Gadget constructions: chord diagrams, monotone 3SAT, vertex cover, EDS."""

import itertools
import random
import re
import subprocess
import sys

import pytest

from conftest import (
    brute_edge_dominating_size,
    brute_mds_size,
    brute_vertex_cover_size,
    edge_set,
)
from lframes.errors import InvalidDrawing, SourceTooLarge
from lframes.geometry import GeomInstance, LFrame, Point, lframe_intersect
from lframes import reductions
from lframes.graph_core import build_intersection_graph, exact_mds_size
from lframes.reductions import (
    ChordDiagram,
    ClauseSpec,
    Monotone3SATDrawing,
    _check_eds_neighborhoods,
    _check_sat_embedding,
    _check_vc_neighborhoods,
    build_certificate,
    check_reach,
    chords_interleave,
    circle_certificate,
    circle_graph,
    circle_to_diagonal,
    circle_to_vertical,
    eds_to_epg,
    monotone3sat_to_lframes,
    sat_corpus,
    satisfiable,
    vc_to_epg,
    verify_equivalence,
)


def random_diagram(rng, n):
    order = [c for c in range(1, n + 1) for _ in range(2)]
    rng.shuffle(order)
    return ChordDiagram(n, tuple(order))


def test_diagram_validation():
    with pytest.raises(ValueError):
        ChordDiagram(0, ())
    with pytest.raises(ValueError):
        ChordDiagram(2, (1, 2, 1))
    with pytest.raises(ValueError):
        ChordDiagram(2, (1, 1, 1, 2))


@pytest.mark.parametrize("n, order, message", [
    (2, (1, 2.7, 1, 2), "chord must be an integer, got 2.7"),
    (2, ("1", "2", "1", "2"), "chord must be an integer, got '1'"),
    (2.0, (1, 2, 1, 2), "chord count must be an integer, got 2.0"),
])
def test_diagram_refuses_non_integers(n, order, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChordDiagram(n, order)


def test_positions_match_list_reference():
    rng = random.Random(11)
    for n in (1, 2, 3, 8, 50, 400):
        for _ in range(10):
            cd = random_diagram(rng, n)
            for c in range(1, n + 1):
                first = cd.order.index(c) + 1
                assert cd.positions(c) == (first, cd.order.index(c, first) + 1)


def test_diagram_validation_names_the_first_bad_chord():
    # the list-based rule: the smallest chord id not appearing exactly twice
    rng = random.Random(12)
    for _ in range(500):
        n = rng.randint(1, 6)
        order = tuple(rng.randint(0, n + 1) for _ in range(2 * n))
        bad = [c for c in range(1, n + 1) if order.count(c) != 2]
        if not bad:
            assert ChordDiagram(n, order).order == order
            continue
        with pytest.raises(ValueError, match=f"^chord {bad[0]} must appear exactly twice$"):
            ChordDiagram(n, order)


def test_interleave_examples():
    cd = ChordDiagram(2, (1, 2, 1, 2))
    assert chords_interleave(cd, 1, 2)
    assert chords_interleave(cd, 2, 1)
    nested = ChordDiagram(2, (1, 2, 2, 1))
    assert not chords_interleave(nested, 1, 2)
    side = ChordDiagram(2, (1, 1, 2, 2))
    assert not chords_interleave(side, 1, 2)


def test_interleaved_pair_to_diagonal():
    cd = ChordDiagram(2, (1, 2, 1, 2))
    inst = circle_to_diagonal(cd)
    assert inst.diagonal == 5
    c1, c2 = inst.frames
    assert c1 == LFrame("c1", Point(2, 1), 2, 2)
    assert c2 == LFrame("c2", Point(1, 2), 2, 2)
    # arm tips land on the four endpoint anchors (4,1),(3,2),(2,3),(1,4)
    assert c1.hand() == Point(4, 1) and c1.vhand() == Point(2, 3)
    assert c2.hand() == Point(3, 2) and c2.vhand() == Point(1, 4)
    assert lframe_intersect(c1, c2)


def test_side_by_side_pair_is_disjoint():
    inst = circle_to_diagonal(ChordDiagram(2, (1, 1, 2, 2)))
    c1, c2 = inst.frames
    assert not lframe_intersect(c1, c2)


def test_single_chord_dominates_itself():
    inst = circle_to_diagonal(ChordDiagram(1, (1, 1)))
    assert exact_mds_size(build_intersection_graph(inst)) == 1


def test_vertical_variant_crosses_the_line():
    cd = ChordDiagram(2, (1, 2, 1, 2))
    inst = circle_to_vertical(cd)
    assert inst.vline == 6
    for f in inst.frames:
        y, x0, x1 = f.hseg()
        assert x0 < 6 <= x1


def test_both_variants_match_circle_graph():
    import random

    rng = random.Random(77)
    for _ in range(25):
        cd = random_diagram(rng, rng.randint(1, 6))
        want = edge_set(circle_graph(cd))
        for build in (circle_to_diagonal, circle_to_vertical):
            g = build_intersection_graph(build(cd))
            assert edge_set(g) == want


def test_circle_certificates_verify():
    cd = ChordDiagram(3, (1, 2, 3, 1, 2, 3))
    for variant in ("diagonal", "vertical"):
        rep = verify_equivalence(circle_certificate(cd, variant))
        assert rep.ok
        assert rep.offset == 0
        assert rep.source_value == rep.reduced_value == 1
    with pytest.raises(ValueError):
        circle_certificate(cd, "sideways")


def test_clause_sorts_literals_with_legs():
    c = ClauseSpec((3, 1), True, (7, 1))
    assert c.literals == (1, 3)
    assert c.legs == (1, 7)


def test_clause_validation():
    with pytest.raises(InvalidDrawing):
        ClauseSpec((1, 2, 3, 4), True, (1, 2, 3, 4))
    with pytest.raises(InvalidDrawing):
        ClauseSpec((1, 1), True, (1, 2))
    with pytest.raises(InvalidDrawing):
        ClauseSpec((1, 2), True, (1,))
    with pytest.raises(InvalidDrawing):
        ClauseSpec((1,), True, (0,))


@pytest.mark.parametrize("positive", ["no", 0, 1, None])
def test_clause_refuses_a_non_bool_positive(positive):
    # a truthy string would reduce as a positive clause, 0 as a negative one
    with pytest.raises(ValueError, match=rf"^positive must be a bool, got {re.escape(repr(positive))}$"):
        ClauseSpec((1,), positive, (1,))
    assert ClauseSpec((1,), False, (1,)).positive is False


@pytest.mark.parametrize("make, message", [
    (lambda: ClauseSpec((1.9,), True, (3,)), "literal must be an integer, got 1.9"),
    (lambda: ClauseSpec((1,), True, (3.5,)), "leg position must be an integer, got 3.5"),
    (lambda: Monotone3SATDrawing(1.0, (ClauseSpec((1,), True, (1,)),)),
     "variable count must be an integer, got 1.0"),
])
def test_drawing_refuses_non_integers(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_drawing_validation():
    c1 = ClauseSpec((1,), True, (1,))
    with pytest.raises(InvalidDrawing):
        Monotone3SATDrawing(1, ())
    with pytest.raises(InvalidDrawing):
        Monotone3SATDrawing(1, (c1, ClauseSpec((1,), False, (1,))))
    with pytest.raises(InvalidDrawing):
        Monotone3SATDrawing(2, (c1,))  # variable 2 never appears
    with pytest.raises(InvalidDrawing):
        Monotone3SATDrawing(1, (ClauseSpec((2,), True, (1,)),))


def test_drawing_rejects_leg_through_horizontal():
    # second clause's leg at 3 sits strictly inside the first clause's span
    # on the same side without nesting
    bad = (
        ClauseSpec((1, 3), True, (2, 4)),
        ClauseSpec((2,), True, (3,)),
        ClauseSpec((1, 2, 3), False, (1, 3, 5)),
    )
    with pytest.raises(InvalidDrawing):
        Monotone3SATDrawing(3, bad)


def test_drawing_accepts_nesting_and_computes_depth():
    clauses = (
        ClauseSpec((1, 2), True, (1, 4)),
        ClauseSpec((1, 2), True, (2, 3)),  # nested inside the first
    )
    assert Monotone3SATDrawing(2, clauses).clauses == clauses


def test_corpus_satisfiability_pattern():
    corpus = sat_corpus()
    assert len(corpus) == 12
    unsat = {i for i, d in enumerate(corpus) if not satisfiable(d)}
    assert unsat == {1, 3, 7}


def test_single_variable_formula():
    inst, cert = monotone3sat_to_lframes(sat_corpus()[0])
    assert inst.n == 4
    assert exact_mds_size(build_intersection_graph(inst)) == 1
    assert cert.offset == 1


def test_three_variable_satisfiable_formula():
    inst, _ = monotone3sat_to_lframes(sat_corpus()[2])
    assert exact_mds_size(build_intersection_graph(inst)) == 3


def test_unsatisfiable_formula_costs_more():
    d = sat_corpus()[1]
    inst, _ = monotone3sat_to_lframes(d)
    assert exact_mds_size(build_intersection_graph(inst)) > d.n_vars


def test_sat_frames_share_a_vertical_line():
    inst, _ = monotone3sat_to_lframes(sat_corpus()[4])
    assert inst.vline == 0
    for f in inst.frames:
        y, x0, x1 = f.hseg()
        assert x0 <= 0 <= x1


def test_sat_contact_pattern():
    # variable frames touch exactly the clauses naming them, on the right side
    for d in (sat_corpus()[2], sat_corpus()[7], sat_corpus()[9]):
        inst, _ = monotone3sat_to_lframes(d)
        g = build_intersection_graph(inst)
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


def test_sat_embedding_check_rejects_wrong_contacts():
    # one variable in one positive clause, laid out and ordered as the
    # construction does: variable frames, anchor, then the clause
    d = Monotone3SATDrawing(1, (ClauseSpec((1,), True, (1,)),))
    x1t = LFrame("x1t", Point(5, 3), 3, -3)
    x1f = LFrame("x1f", Point(5, -3), 3, 3)
    c1 = LFrame("c1", Point(4, 2), 2, -2)
    a1 = LFrame("a1", Point(5, 0), 1, 1)
    _check_sat_embedding(d, (x1t, x1f, a1, c1))
    cases = (
        ((x1t, x1f, a1, LFrame("c1", Point(30, 2), 2, -2)), "true side"),
        ((x1t, x1f, LFrame("a1", Point(20, 0), 1, 1), c1), r"extra frames \[\]"),
        ((x1t, x1f, LFrame("a1", Point(4, 0), 1, 1), c1), r"extra frames \['c1'\]"),
    )
    for frames, message in cases:
        with pytest.raises(InvalidDrawing, match=message):
            _check_sat_embedding(d, frames)


def test_gadget_checks_reject_wrong_contacts():
    inst, cert = vc_to_epg(2, [(1, 2)])
    frames = tuple(
        LFrame("q1", Point(-40, 40), 1, 1) if f.id == "q1" else f for f in inst.frames
    )
    with pytest.raises(AssertionError, match="p1"):
        _check_vc_neighborhoods(2, cert.source[1], inst._replace(frames=frames))
    edges = ((1, 1), (2, 2))
    frames = (LFrame("e1_1", Point(-1, -1), 1, 1), LFrame("e2_2", Point(-1, -2), 1, 2))
    _check_eds_neighborhoods(edges, eds_to_epg(2, 2, edges)[0])
    with pytest.raises(AssertionError, match=r"edge \(1,1\)"):
        _check_eds_neighborhoods(edges, GeomInstance(frames=frames, model="edge"))


def test_gadget_checks_hold_under_optimize():
    # the checks raise AssertionError themselves, so ``python -O`` keeps them
    script = (
        "from lframes.geometry import LFrame, Point\n"
        "from lframes.reductions import _check_vc_neighborhoods, vc_to_epg\n"
        "inst, cert = vc_to_epg(2, [(1, 2)])\n"
        "frames = tuple(LFrame('q1', Point(-40, 40), 1, 1) if f.id == 'q1' else f\n"
        "               for f in inst.frames)\n"
        "try:\n"
        "    _check_vc_neighborhoods(2, cert.source[1], inst._replace(frames=frames))\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "p1: expected ['q1', 'v1'], got ['v1']\n"


def test_vc_check_names_the_first_wrong_frame():
    # frames are checked v_i, p_i, q_i for each i, then the edge paths; a
    # gadget frame moved out of contact is reported through the first frame
    # in that order that misses it
    n, edges = 4, ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    inst, _ = vc_to_epg(n, edges)
    cases = (
        ("e2_3", "v2: expected ['e1_2', 'e2_3', 'e2_4', 'p2'], got ['e1_2', 'e2_4', 'p2']"),
        ("q3", "p3: expected ['q3', 'v3'], got ['v3']"),
        ("e3_4", "v3: expected ['e1_3', 'e2_3', 'e3_4', 'p3'], got ['e1_3', 'e2_3', 'p3']"),
    )
    for moved, message in cases:
        frames = tuple(
            LFrame(f.id, Point(-90, 90), 1, 1) if f.id == moved else f for f in inst.frames
        )
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            _check_vc_neighborhoods(n, edges, inst._replace(frames=frames))


def test_vc_path():
    inst, cert = vc_to_epg(3, [(1, 2), (2, 3)])
    assert exact_mds_size(build_intersection_graph(inst)) == 4
    assert cert.offset == 3


def test_vc_edgeless():
    inst, _ = vc_to_epg(2, [])
    assert exact_mds_size(build_intersection_graph(inst)) == 2


def test_vc_single_edge():
    inst, _ = vc_to_epg(2, [(1, 2)])
    assert exact_mds_size(build_intersection_graph(inst)) == 3


def test_vc_neighborhoods_recomputed():
    n, edges = 3, ((1, 2), (2, 3))
    inst, _ = vc_to_epg(n, edges)
    g = build_intersection_graph(inst)
    idx = {f.id: v for v, f in enumerate(inst.frames)}
    want = {
        "v1": {"p1", "e1_2"},
        "v2": {"p2", "e1_2", "e2_3"},
        "v3": {"p3", "e2_3"},
        "p1": {"v1", "q1"},
        "p2": {"v2", "q2"},
        "p3": {"v3", "q3"},
        "q1": {"p1"},
        "q2": {"p2"},
        "q3": {"p3"},
        "e1_2": {"v1", "v2"},
        "e2_3": {"v2", "v3"},
    }
    for fid, names in want.items():
        got = {inst.frames[u].id for u in g.adjacency[idx[fid]]}
        assert got == names


def test_vc_edge_validation():
    with pytest.raises(ValueError):
        vc_to_epg(2, [(1, 1)])
    with pytest.raises(ValueError):
        vc_to_epg(2, [(0, 1)])
    with pytest.raises(ValueError):
        vc_to_epg(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        vc_to_epg(0, [])


@pytest.mark.parametrize("n, edges, message", [
    (3, [(1, 2.9)], "edge endpoint must be an integer, got 2.9"),
    (3.0, [(1, 2)], "vertex count must be an integer, got 3.0"),
])
def test_vc_refuses_non_integers(n, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        vc_to_epg(n, edges)


def test_vc_certificate_verifies():
    for n, edges in ((3, [(1, 2), (2, 3)]), (4, [(1, 2), (1, 3), (1, 4)]), (2, [])):
        _, cert = vc_to_epg(n, edges)
        rep = verify_equivalence(cert)
        assert rep.ok
        assert rep.source_value == brute_vertex_cover_size(n, tuple(cert.source[1]))


def test_eds_single_edge():
    inst, cert = eds_to_epg(1, 1, [(1, 1)])
    (f,) = inst.frames
    assert f == LFrame("e1_1", Point(-1, -1), 1, 1)
    assert exact_mds_size(build_intersection_graph(inst)) == 1
    assert cert.offset == 0


def test_eds_star():
    inst, _ = eds_to_epg(1, 3, [(1, 1), (1, 2), (1, 3)])
    assert exact_mds_size(build_intersection_graph(inst)) == 1


def test_eds_three_edge_path():
    edges = ((1, 1), (2, 1), (2, 2))
    inst, _ = eds_to_epg(2, 2, edges)
    size = exact_mds_size(build_intersection_graph(inst))
    assert size == brute_edge_dominating_size(edges) == 1


def test_eds_adjacency_is_shared_endpoint():
    edges = ((1, 1), (1, 3), (2, 2), (2, 3), (3, 1))
    inst, _ = eds_to_epg(3, 3, edges)
    g = build_intersection_graph(inst)
    for u in range(len(edges)):
        for v in range(u + 1, len(edges)):
            share = edges[u][0] == edges[v][0] or edges[u][1] == edges[v][1]
            assert ((u, v) in edge_set(g)) == share


def test_eds_validation():
    with pytest.raises(ValueError):
        eds_to_epg(0, 1, [(1, 1)])
    with pytest.raises(ValueError):
        eds_to_epg(1, 1, [(1, 2)])
    with pytest.raises(ValueError):
        eds_to_epg(1, 1, [(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        eds_to_epg(1, 1, [])


@pytest.mark.parametrize("n_a, n_b, edges, message", [
    (2, 2, [(1, 2.5)], "edge endpoint must be an integer, got 2.5"),
    (2.0, 2.0, [(1, 2)], "vertex count must be an integer, got 2.0"),
    (2, 2.0, [(1, 2)], "vertex count must be an integer, got 2.0"),
])
def test_eds_refuses_non_integers(n_a, n_b, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eds_to_epg(n_a, n_b, edges)


def test_eds_certificate_verifies():
    _, cert = eds_to_epg(2, 2, [(1, 1), (2, 1), (2, 2)])
    rep = verify_equivalence(cert)
    assert rep.ok
    assert rep.source_value == rep.reduced_value == 1


def test_sat_certificates_verify():
    for d in sat_corpus():
        inst, cert = monotone3sat_to_lframes(d)
        rep = verify_equivalence(cert)
        assert rep.ok
        assert rep.source_value == (1 if satisfiable(d) else 0)


def test_reduced_mds_matches_brute_on_small_instances():
    inst, _ = vc_to_epg(3, [(1, 2), (2, 3)])
    g = build_intersection_graph(inst)
    assert exact_mds_size(build_intersection_graph(inst)) == brute_mds_size(
        g.n, edge_set(g)
    )


def test_source_too_large():
    big = ChordDiagram(13, tuple(range(1, 14)) + tuple(range(1, 14)))
    with pytest.raises(SourceTooLarge):
        verify_equivalence(circle_certificate(big))
    inst, cert = vc_to_epg(17, [])
    with pytest.raises(SourceTooLarge):
        verify_equivalence(cert)


def test_source_too_large_builds_no_graph(monkeypatch):
    # the limits read the certificate, so a rejected source costs no graph
    big = ChordDiagram(13, tuple(range(1, 14)) + tuple(range(1, 14)))
    inst, cert = vc_to_epg(10, list(itertools.combinations(range(1, 11), 2)))
    cases = [
        (circle_certificate(big), "13 chords is beyond exhaustive reach"),
        (vc_to_epg(17, [])[1], "17 vertices / 51 frames is beyond exhaustive reach"),
        (cert, f"10 vertices / {inst.n} frames is beyond exhaustive reach"),
    ]
    built = []
    monkeypatch.setattr(reductions, "build_intersection_graph", built.append)
    for cert, message in cases:
        with pytest.raises(SourceTooLarge, match=f"^{message}$"):
            verify_equivalence(cert)
    assert built == []


def test_reach_check_counts_the_frames_the_reduction_builds():
    # check_reach reads 3 frames per variable plus 1 per clause, and 3 per
    # vertex plus 1 per edge, off the source before anything is built
    for d in sat_corpus():
        check_reach("sat", d)
        assert build_certificate("sat", d).instance.n == 3 * d.n_vars + len(d.clauses)
    edges = list(itertools.combinations(range(1, 17), 2))
    for m in (16, 17):
        source = (16, tuple(edges[:m]))
        frames = build_certificate("vc", source).instance.n
        assert frames == 48 + m
        if frames <= 64:
            check_reach("vc", source)
        else:
            with pytest.raises(SourceTooLarge, match=f"^16 vertices / {frames} frames is"):
                check_reach("vc", source)


def _drawing(*clauses):
    """Positive clauses over variables 1..max, legs numbered in clause order."""
    legs = itertools.count(1)
    return Monotone3SATDrawing(
        max(map(max, clauses)),
        tuple(ClauseSpec(c, True, tuple(next(legs) for _ in c)) for c in clauses),
    )


_CHORDS_12 = ChordDiagram(12, tuple(range(1, 13)) * 2)
_CHORDS_13 = ChordDiagram(13, tuple(range(1, 14)) * 2)
_SAT_16 = _drawing(*((v,) for v in range(1, 17)))  # 16 variables, 64 frames
_EDGES = tuple(itertools.combinations(range(1, 17), 2))
_BIPARTITE = tuple((i, j) for i in range(1, 5) for j in range(1, 6))


@pytest.mark.parametrize("kind, at_limit, past, message", [
    ("circle-diagonal", _CHORDS_12, _CHORDS_13, "13 chords"),
    ("circle-vertical", _CHORDS_12, _CHORDS_13, "13 chords"),
    ("sat", _SAT_16, _drawing(*(tuple(range(v, min(v + 3, 18))) for v in range(1, 18, 3))),
     "17 variables / 57 frames"),
    ("sat", _SAT_16, _drawing((1,), *((v,) for v in range(1, 17))), "16 variables / 65 frames"),
    ("vc", (16, _EDGES[:16]), (17, ()), "17 vertices / 51 frames"),
    ("vc", (16, _EDGES[:16]), (16, _EDGES[:17]), "16 vertices / 65 frames"),
    ("eds", (4, 5, _BIPARTITE[:16]), (4, 5, _BIPARTITE[:17]), "17 edges"),
], ids=["circle-diagonal", "circle-vertical", "sat-variables", "sat-frames",
        "vc-vertices", "vc-frames", "eds"])
def test_reach_limit_of_every_kind(kind, at_limit, past, message):
    # each kind passes at its limit and refuses one past it
    check_reach(kind, at_limit)
    with pytest.raises(SourceTooLarge, match=f"^{message} is beyond exhaustive reach$"):
        check_reach(kind, past)


def test_unknown_certificate_kind():
    _, cert = eds_to_epg(1, 1, [(1, 1)])
    with pytest.raises(ValueError, match="^unknown reduction kind 'swap'$"):
        verify_equivalence(cert._replace(kind="swap"))
