"""Show both ends of the complexity picture on small inputs.

Hard direction: a monotone 3-SAT drawing becomes a frame instance whose
minimum dominating set size reveals satisfiability. Easy direction: a
chord diagram and a two-line instance both reduce to structured graphs
where domination is solved exactly, fast.
"""

import random

from lframes.generators import gen_chord_diagram, gen_two_line
from lframes.graph_core import build_intersection_graph, exact_mds_size
from lframes.permutation import (
    Permutation,
    lframes_to_permutation,
    mds_permutation,
)
from lframes.reductions import (
    circle_to_diagonal,
    monotone3sat_to_lframes,
    sat_corpus,
    satisfiable,
)


def main():
    print("-- satisfiability via domination --")
    corpus = sat_corpus()
    for index in (0, 1):
        drawing = corpus[index]
        inst, _ = monotone3sat_to_lframes(drawing)
        g = build_intersection_graph(inst)
        size = exact_mds_size(g, cap=64)
        n_vars = drawing.n_vars
        verdict = "satisfiable" if size == n_vars else "unsatisfiable"
        agree = "agrees" if (size == n_vars) == satisfiable(drawing) else "DISAGREES"
        print(f"drawing {index}: {n_vars} variables,"
              f" {len(drawing.clauses)} clauses, mds {size} -> {verdict}"
              f" ({agree} with direct enumeration)")

    print("-- circle graphs --")
    cd = gen_chord_diagram(3, 6)
    inst = circle_to_diagonal(cd)
    g = build_intersection_graph(inst)
    print(f"{cd.n} chords -> {g.n} anchored frames,"
          f" {sum(map(len, g.adjacency)) // 2} interleavings, mds {exact_mds_size(g)}")

    print("-- two-line instances and permutations --")
    inst = gen_two_line(5, 40)
    p = lframes_to_permutation(inst)
    ds = mds_permutation(p)
    print(f"40 frames crossing both lines read as a permutation;"
          f" frontier scan finds mds {ds.size}")

    rng = random.Random(0)
    pi = list(range(1, 200001))
    rng.shuffle(pi)
    ds = mds_permutation(Permutation(tuple(pi)))
    print(f"200000-element permutation solved, mds {ds.size}")


if __name__ == "__main__":
    main()
