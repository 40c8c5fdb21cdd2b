"""SVG rendering: element counts, determinism, well-formedness."""

import math
from xml.dom import minidom

from conftest import HUB6_FRAMES
from lframes import cli
from lframes.exchange import ArcPiece, build_exchange_graph, draw_arcs
from lframes.generators import gen_anchored_one_sided
from lframes.geometry import GeomInstance, LFrame, Point, Rect
from lframes.instance_io import emit_instance
from lframes.svg import render_svg


HUB6 = GeomInstance(frames=HUB6_FRAMES, diagonal=20)


def test_empty_instance_draws_axes_only():
    s = render_svg(GeomInstance())
    assert s.count("<line") == 2
    assert "<polyline" not in s
    assert "<rect" not in s
    assert "<path" not in s


def test_empty_instance_draws_a_line_on_an_axis_once():
    # vline 0 and hline 0 lie on the axes: each line is drawn once
    for inst in (GeomInstance(vline=0), GeomInstance(hline=0), GeomInstance(vline=0, hline=0)):
        assert render_svg(inst).count("<line") == 2, inst
    assert render_svg(GeomInstance(vline=1, hline=-2)).count("<line") == 4


def test_one_polyline_per_frame():
    s = render_svg(HUB6)
    assert s.count("<polyline") == 6
    assert "<path" not in s


def test_one_rect_per_rectangle():
    inst = GeomInstance(
        rects=(Rect("r1", Point(0, 0), Point(2, 2)), Rect("r2", Point(3, 3), Point(5, 6)))
    )
    s = render_svg(inst)
    assert s.count("<rect") == 2


def test_solution_highlight_adds_markers():
    s = render_svg(HUB6, solution=[0, 4])
    assert s.count("<circle") == 2


def test_exchange_arc_is_the_only_path():
    h = build_exchange_graph(HUB6, [1], [2])
    drawing = draw_arcs(h, HUB6)
    s = render_svg(HUB6, solution=[1], arcs=drawing)
    assert s.count("<path") == 1


def test_mixed_arc_renders_two_paths():
    inst = GeomInstance(
        frames=(
            LFrame("w", Point(5, 15), 4, 3),
            LFrame("b", Point(3, 17), 3, 1),
            LFrame("r", Point(8, 12), 1, 4),
        ),
        diagonal=20,
    )
    h = build_exchange_graph(inst, [1], [2])
    drawing = draw_arcs(h, inst)
    assert len(drawing) == 2
    s = render_svg(inst, arcs=drawing)
    assert s.count("<path") == 2


def test_reference_lines_drawn():
    s = render_svg(HUB6)
    assert s.count("<line") >= 1


def test_two_line_instance_draws_both_reference_lines():
    inst = GeomInstance(
        frames=(LFrame("a", Point(-5, 3), 6, -4), LFrame("b", Point(-3, 2), 4, -3)),
        vline=0,
        hline=0,
    )
    lines = minidom.parseString(render_svg(inst)).getElementsByTagName("line")
    ends = [tuple(ln.getAttribute(k) for k in ("x1", "y1", "x2", "y2")) for ln in lines]
    assert all(ln.getAttribute("stroke-dasharray") for ln in lines)
    # x = 0 and y = 0 on a canvas whose upper-left corner is (-5, 3)
    assert [e[0] for e in ends if e[0] == e[2]] == ["130.00"]
    assert [e[1] for e in ends if e[1] == e[3]] == ["90.00"]
    assert len(ends) == 2


def test_byte_identical_repeat():
    a = render_svg(HUB6, solution=[0])
    b = render_svg(HUB6, solution=[0])
    assert a == b


def test_output_is_well_formed_xml():
    h = build_exchange_graph(HUB6, [1], [2])
    s = render_svg(HUB6, solution=[1, 2], arcs=draw_arcs(h, HUB6))
    doc = minidom.parseString(s)
    root = doc.documentElement
    assert root.tagName == "svg"
    assert root.getAttribute("version") == "1.1"
    assert root.getAttribute("xmlns") == "http://www.w3.org/2000/svg"
    assert root.getAttribute("viewBox")


def _arc_extremes(d: str) -> list[tuple[float, float]]:
    """The endpoints of a half-circle path ``M x0 y0 A r r 0 0 sweep x1 y1``
    and each point of it where the circle is leftmost, rightmost, highest
    or lowest."""
    _, x0, y0, _, r, _, _, _, sweep, x1, y1 = d.split()
    x0, y0, r, x1, y1 = map(float, (x0, y0, r, x1, y1))
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    start = math.atan2(y0 - cy, x0 - cx)
    # sweep flag 1 runs the angle up from the start, 0 runs it down
    sign = 1 if sweep == "1" else -1
    points = [(x0, y0), (x1, y1)]
    for k in range(4):
        a = k * math.pi / 2
        if sign * (a - start) % (2 * math.pi) <= math.pi:
            points.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return points


def _arcs_inside_canvas(svg: str) -> int:
    """How many arc paths the SVG holds; asserts each lies in the viewBox."""
    doc = minidom.parseString(svg)
    _, _, width, height = map(float, doc.documentElement.getAttribute("viewBox").split())
    paths = doc.getElementsByTagName("path")
    for p in paths:
        for x, y in _arc_extremes(p.getAttribute("d")):
            # the path's coordinates are printed to 0.01
            assert -0.01 <= x <= width + 0.01 and -0.01 <= y <= height + 0.01, (p.getAttribute("d"), x, y)
    return len(paths)


def test_arcs_stay_inside_the_canvas(tmp_path):
    # the half circle bulges by its radius, not only to its chord's ends
    inst = GeomInstance(
        frames=(LFrame("a", Point(0, 10), -1, -1), LFrame("b", Point(10, 0), -1, -1)),
        diagonal=10,
    )
    piece = ArcPiece(Point(0, 10), Point(10, 0), "above")
    assert _arcs_inside_canvas(render_svg(inst, arcs=(piece,))) == 1
    assert _arcs_inside_canvas(render_svg(inst, arcs=(piece._replace(side="below"),))) == 1
    path = tmp_path / "s77.txt"
    path.write_text(emit_instance(gen_anchored_one_sided(77, 24)))
    out = tmp_path / "s77.svg"
    assert cli.main(["render", "--in", str(path), "--exchange", "--out", str(out)]) == 0
    assert _arcs_inside_canvas(out.read_text()) > 0
