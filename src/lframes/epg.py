"""Grid-path (edge intersection) model for L-frames.

Frames are read as paths on the integer grid; two frames are adjacent iff
they share at least one unit grid edge. Crossing at a single point does not
count. The predicate works on interval overlaps of the four segment pairs
and never materializes edge sets.
"""

from __future__ import annotations

from .geometry import LFrame


def _collinear_edge_overlap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    # shared length >= 1 means at least one common unit edge
    return min(a_hi, b_hi) - max(a_lo, b_lo) >= 1


def epg_intersect(a: LFrame, b: LFrame) -> bool:
    """True iff the two frames share at least one unit grid edge."""
    ah, av = a.hseg(), a.vseg()
    bh, bv = b.hseg(), b.vseg()
    if ah[0] == bh[0] and _collinear_edge_overlap(ah[1], ah[2], bh[1], bh[2]):
        return True
    return av[0] == bv[0] and _collinear_edge_overlap(av[1], av[2], bv[1], bv[2])
