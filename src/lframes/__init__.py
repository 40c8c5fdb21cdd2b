"""Dominating sets on intersection graphs of rectangles and L-shaped frames."""

from .errors import (
    DegenerateOrder,
    DegeneratePosition,
    InvalidDrawing,
    LFramesError,
    NotAnchored,
    NotDisjoint,
    NotOneSided,
    NotTwoLineCrossing,
    ParseError,
    SourceTooLarge,
    TooLarge,
    ValidationError,
)
from .geometry import (
    Diagonal,
    FrameColumns,
    GeomInstance,
    LFrame,
    Point,
    Rect,
    is_anchored,
    lframe_intersect,
    rect_intersect,
    rect_to_lframe,
    rotate_cw,
)
from .epg import epg_intersect
from .graph_core import (
    DominatingSet,
    IntersectionGraph,
    build_intersection_graph,
    exact_mds,
    exact_mds_size,
    greedy_mds,
    is_dominating,
)
from .local_search import (
    LocalSearchConfig,
    approx_two_sided,
    is_k_locally_optimal,
    local_search_mds,
    ptas_one_sided,
    split_two_sided,
)
from .exchange import (
    Arc,
    ArcDrawing,
    ArcPiece,
    ExchangeGraph,
    build_exchange_graph,
    check_local_exchange,
    count_crossings,
    draw_arcs,
)
from .permutation import (
    Permutation,
    lframes_to_permutation,
    mds_permutation,
    two_line_permutation,
    two_line_vertex_order,
)
from .reductions import (
    ChordDiagram,
    ClauseSpec,
    EquivalenceReport,
    Monotone3SATDrawing,
    ReductionCertificate,
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
from .generators import FAMILIES, generate
from .instance_io import emit_instance, instance_summary, parse_instance
from .svg import render_svg

__version__ = "0.1.0"
