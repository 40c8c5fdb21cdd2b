"""Walk one anchored-rectangle instance from generation to a solved set.

Generates rectangles anchored on a diagonal, converts each to its frame
boundary, checks that the intersection graph is unchanged, then compares
the exact optimum with the local-search and two-sided approximations.
"""

import argparse

from lframes.generators import gen_anchored_rects, gen_anchored_two_sided
from lframes.geometry import GeomInstance, rect_to_lframe
from lframes.graph_core import build_intersection_graph, exact_mds
from lframes.local_search import (
    LocalSearchConfig,
    approx_two_sided,
    local_search_mds,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=10)
    args = ap.parse_args()

    rinst = gen_anchored_rects(args.seed, args.n)
    print(f"generated {len(rinst.rects)} rectangles on diagonal "
          f"x + y = {rinst.diagonal}")

    frames = tuple(rect_to_lframe(r, rinst.diagonal) for r in rinst.rects)
    finst = GeomInstance(frames=frames, diagonal=rinst.diagonal)
    g_rect = build_intersection_graph(rinst)
    g_frame = build_intersection_graph(finst)
    same = "identical" if g_rect == g_frame else "DIFFERENT"
    print(f"rectangle graph vs frame graph: {same} "
          f"({g_rect.n} vertices, {sum(map(len, g_rect.adjacency)) // 2} edges)")

    opt = exact_mds(g_frame)
    local = local_search_mds(g_frame, LocalSearchConfig(k=2))
    names = " ".join(finst.frames[v].id for v in opt.members)
    print(f"exact minimum dominating set: size {opt.size} ({names})")
    print(f"2-local search solution:      size {local.size}")

    tinst = gen_anchored_two_sided(args.seed, args.n)
    tg = build_intersection_graph(tinst)
    approx = approx_two_sided(tinst, 2)
    topt = exact_mds(tg)
    print(f"two-sided instance: approx size {approx.size}, "
          f"optimum {topt.size} (bound is twice the optimum)")


if __name__ == "__main__":
    main()
