"""Dominating sets on intersection graphs of rectangles and L-shaped frames.

Importing the package loads none of its modules. Each public name resolves
on first use (PEP 562): ``lframes.X`` and ``from lframes import X`` import
only the module that defines ``X``.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "errors": (
        "DegenerateOrder", "DegeneratePosition", "InvalidDrawing", "LFramesError",
        "NotAnchored", "NotDisjoint", "NotTwoLineCrossing",
        "ParseError", "SourceTooLarge", "TooLarge", "ValidationError",
    ),
    "geometry": (
        "DominatingSet", "FrameColumns", "GeomInstance", "LFrame", "Point", "Rect",
        "lframe_intersect", "rect_intersect", "rect_to_lframe", "rotate_cw",
    ),
    "epg": ("epg_intersect",),
    "graph_core": (
        "IntersectionGraph", "build_intersection_graph", "exact_mds", "exact_mds_size",
        "greedy_mds", "is_dominating",
    ),
    "local_search": (
        "LocalSearchConfig", "approx_two_sided", "local_search_mds", "split_two_sided",
    ),
    "exchange": (
        "Arc", "ArcPiece", "ExchangeGraph", "build_exchange_graph",
        "check_local_exchange", "count_crossings", "draw_arcs",
    ),
    "permutation": (
        "Permutation", "lframes_to_permutation", "mds_permutation", "two_line_vertex_order",
    ),
    "reductions": (
        "ChordDiagram", "ClauseSpec", "EquivalenceReport", "Monotone3SATDrawing",
        "ReductionCertificate", "chords_interleave", "circle_certificate", "circle_graph",
        "circle_to_diagonal", "circle_to_vertical", "eds_to_epg", "monotone3sat_to_lframes",
        "sat_corpus", "satisfiable", "vc_to_epg", "verify_equivalence",
    ),
    "generators": ("FAMILIES", "generate"),
    "instance_io": ("emit_instance", "instance_summary", "parse_instance", "read_instance"),
    "svg": ("render_svg",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _MODULE_OF.keys())
