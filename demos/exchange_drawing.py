"""Draw the exchange graph between two dominating sets.

Solves a one-sided anchored instance twice, once by 2-local search and
once exactly, then builds the exchange graph over the symmetric
difference, draws its arcs along the diagonal, and reports the crossing
count. Optionally writes the picture to an SVG file.
"""

import argparse

from lframes.exchange import (
    build_exchange_graph,
    check_local_exchange,
    count_crossings,
    draw_arcs,
)
from lframes.generators import gen_anchored_one_sided
from lframes.graph_core import build_intersection_graph, exact_mds
from lframes.local_search import LocalSearchConfig, local_search_mds
from lframes.svg import render_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=104)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--out", help="write an SVG of the instance and arcs")
    args = ap.parse_args()

    inst = gen_anchored_one_sided(args.seed, args.n)
    g = build_intersection_graph(inst)
    blue = local_search_mds(g, LocalSearchConfig(k=2)).members
    red = exact_mds(g).members
    b_only = sorted(set(blue) - set(red))
    r_only = sorted(set(red) - set(blue))
    print(f"local solution {len(blue)} vertices, optimum {len(red)},"
          f" symmetric difference {len(b_only)} + {len(r_only)}")

    h = build_exchange_graph(inst, b_only, r_only, g)
    drawing = draw_arcs(h, inst)
    print(f"exchange graph: {len(h.arcs)} arcs,"
          f" {count_crossings(drawing)} crossings in the drawing")
    for arc in h.arcs:
        b_id = inst.frames[arc.b].id
        r_id = inst.frames[arc.r].id
        print(f"  {b_id} -- {r_id}  [{arc.cls}]")
    ok = check_local_exchange(h, g)
    print(f"local exchange property holds: {ok}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_svg(inst, arcs=drawing))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
