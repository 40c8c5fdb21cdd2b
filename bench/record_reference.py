"""Record the reference optima that exact-solver calls are checked against.

    python3 bench/record_reference.py

Solves the random two-line instance and every exact-corpus instance with the library at the current commit and writes
``bench/reference.json``. Run it only when the pool or the corpus changes:
the file pins the optima that later solvers must reproduce.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from lframes.generators import generate  # noqa: E402
from lframes.graph_core import build_intersection_graph, exact_mds  # noqa: E402
from lframes.permutation import lframes_to_permutation, mds_permutation  # noqa: E402

from workloads import EXACT_CORPUS, RANDOM_TWO_LINE  # noqa: E402


def main() -> int:
    ref = {}
    for fam, n, seed in EXACT_CORPUS:
        g = build_intersection_graph(generate(fam, seed, n))
        ref[f"{fam}/{n}/{seed}"] = exact_mds(g, cap=n).size
    fam, seed, n = RANDOM_TWO_LINE
    p = lframes_to_permutation(generate(fam, seed, n))
    ref[f"{fam}/{n}/{seed}"] = mds_permutation(p).size
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
