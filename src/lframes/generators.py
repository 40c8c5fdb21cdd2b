"""Seeded instance families.

Every generator takes an explicit integer seed (64-bit values welcome) and
drives a private ``random.Random`` instance, so outputs are reproducible
across platforms and interpreter versions. The families of n objects all
start in ``_rng(seed, n)``, which refuses n < 1 and seeds that instance;
``gen_bipartite`` checks its two sizes itself. Nothing here reads global RNG
state. The five reduction families push the seeded source of their kind
(``reductions.reduction_source``) through ``reductions.build_certificate``
and emit the certificate's instance. Only they and ``gen_chord_diagram``
import ``reductions``, inside the function, so the geometric families never
load it and ``reductions`` can import this module.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations
from typing import TYPE_CHECKING, Callable

from .geometry import FrameColumns, GeomInstance, Point, Rect

if TYPE_CHECKING:  # the reduction families import reductions when they run
    from .reductions import ChordDiagram

_ARM_MAX = 12


def _rng(seed: int, n: int) -> random.Random:
    """The seeded private generator of a family of n >= 1 objects."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return random.Random(seed)


def _frame_ids(n: int) -> list[str]:
    return [f"f{i}" for i in range(1, n + 1)]


def _anchor_xs(rng: random.Random, count: int, d: int) -> list[int]:
    return rng.sample(range(d + 1), count)


def gen_anchored_one_sided(seed: int, n: int) -> GeomInstance:
    """Frames with corners on the diagonal x + y = d, all arms above it."""
    rng = _rng(seed, n)
    d = max(2 * n, 12)
    xs = _anchor_xs(rng, n, d)
    hs, vs = [], []
    for _ in xs:
        hs.append(rng.randint(1, _ARM_MAX))
        vs.append(rng.randint(1, _ARM_MAX))
    frames = FrameColumns(_frame_ids(n), xs, [d - x for x in xs], hs, vs)
    return GeomInstance(frames=frames, diagonal=d)


def _two_sided_anchors(rng: random.Random, n: int, d: int) -> list[tuple[bool, int]]:
    """Side (True for above) and anchor abscissa of each of n objects,
    drawn as gen_anchored_two_sided describes."""
    sides = [rng.random() < 0.5 for _ in range(n)]
    xs_above = _anchor_xs(rng, sum(sides), d)
    xs_below = _anchor_xs(rng, n - sum(sides), d)
    if xs_above and xs_below and rng.random() < 0.4:
        x = rng.choice(xs_above)
        if x not in xs_below:
            xs_below[rng.randrange(len(xs_below))] = x
    above, below = iter(xs_above), iter(xs_below)
    return [(up, next(above) if up else next(below)) for up in sides]


def gen_anchored_two_sided(seed: int, n: int) -> GeomInstance:
    """Diagonal-anchored frames on both sides.

    Anchor abscissas are distinct within each side; occasionally one below
    frame reuses an above anchor so touching cross-side pairs occur.
    """
    rng = _rng(seed, n)
    d = max(2 * n, 12)
    anchors = _two_sided_anchors(rng, n, d)
    xs = [x for _, x in anchors]
    hs, vs = [], []
    for up, _ in anchors:
        sgn = 1 if up else -1
        hs.append(sgn * rng.randint(1, _ARM_MAX))
        vs.append(sgn * rng.randint(1, _ARM_MAX))
    frames = FrameColumns(_frame_ids(n), xs, [d - x for x in xs], hs, vs)
    return GeomInstance(frames=frames, diagonal=d)


def gen_anchored_rects(seed: int, n: int) -> GeomInstance:
    """Axis-parallel rectangles anchored at the diagonal, both sides.

    An above rectangle meets the diagonal in its lower-left corner, a below
    one in its upper-right corner. Same sharing rule as the two-sided frame
    family.
    """
    rng = _rng(seed, n)
    d = max(2 * n, 12)
    rects = []
    for i, (up, x) in enumerate(_two_sided_anchors(rng, n, d)):
        w = rng.randint(1, _ARM_MAX)
        h = rng.randint(1, _ARM_MAX)
        if up:
            lo, hi = Point(x, d - x), Point(x + w, d - x + h)
        else:
            lo, hi = Point(x - w, d - x - h), Point(x, d - x)
        rects.append(Rect(f"r{i + 1}", lo, hi))
    return GeomInstance(rects=tuple(rects), diagonal=d)


def gen_chord_diagram(seed: int, n: int) -> ChordDiagram:
    """Uniformly shuffled order of 2n chord endpoints."""
    rng = _rng(seed, n)
    from .reductions import ChordDiagram

    order = list(range(1, n + 1)) * 2
    rng.shuffle(order)
    return ChordDiagram(n, tuple(order))


def gen_graph(seed: int, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Random simple graph on vertices 1..n, each edge kept with probability 1/2."""
    rng = _rng(seed, n)
    edges = tuple(e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5)
    return n, edges


def gen_bipartite(seed: int, n_a: int, n_b: int) -> tuple[tuple[int, int], ...]:
    """Random bipartite edge set over {1..n_a} x {1..n_b}, of 1 to 8 edges."""
    if n_a < 1 or n_b < 1:
        raise ValueError("both sides must be nonempty")
    rng = random.Random(seed)
    # pair index p stands for (p // n_b + 1, p % n_b + 1), in row-major order
    k = rng.randint(1, min(8, n_a * n_b))
    picks = rng.sample(range(n_a * n_b), k)
    return tuple(sorted((p // n_b + 1, p % n_b + 1) for p in picks))


def gen_two_line(seed: int, n: int) -> GeomInstance:
    """Frames crossing the vertical line x = 0 and the horizontal line y = 0.

    Corners sit strictly inside the upper-left quadrant with distinct x and
    distinct y so both crossing orders are total.
    """
    rng = _rng(seed, n)
    span = n + 5
    cxs = rng.sample(range(-span, 0), n)
    cys = rng.sample(range(1, span + 1), n)
    hs, vs = [], []
    for cx, cy in zip(cxs, cys):
        hs.append(-cx + rng.randint(0, 6))
        vs.append(-cy - rng.randint(0, 6))
    return GeomInstance(frames=FrameColumns(_frame_ids(n), cxs, cys, hs, vs), vline=0, hline=0)


def _reduced(kind: str, seed: int, n: int) -> GeomInstance:
    """The instance of ``kind``'s seeded source pushed through its reduction."""
    from .reductions import build_certificate, reduction_source

    return build_certificate(kind, reduction_source(kind, seed, n)).instance


# family name -> generator with the uniform (seed, n) signature
FAMILIES: dict[str, Callable[[int, int], GeomInstance]] = {
    "anchored-one-sided": gen_anchored_one_sided,
    "anchored-two-sided": gen_anchored_two_sided,
    "circle-diagonal": partial(_reduced, "circle-diagonal"),
    "circle-vertical": partial(_reduced, "circle-vertical"),
    "sat": partial(_reduced, "sat"),
    "vc-epg": partial(_reduced, "vc"),
    "eds-epg": partial(_reduced, "eds"),
    "two-line": gen_two_line,
}


def generate(family: str, seed: int, n: int) -> GeomInstance:
    """Dispatch by family name; raises ValueError on an unknown family."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return fn(seed, n)
