"""Command line front end.

Subcommands: generate, solve, verify, render. Reports go to stdout one key
per line and are byte-stable for a fixed seed; measured wall time and any
warning, as one ``warning: <message>`` line, go to stderr. Exit codes: 0
success, 1 usage error, 2 parse or validation error or an input/output file
that cannot be read or written, 3 verification failure.

Each subcommand imports only the modules it runs: this module loads the
argument parser, the errors, the generators (for the family choices) and
the text format, and each command or solver branch imports its solver
modules inside the function. The package itself resolves its exports on
first use, so ``python -m lframes.cli`` loads nothing else up front. The
record classes are plain slotted classes (see ``geometry``), so no command
loads the standard library's class generator or the ``inspect`` module it
needs: a call such as ``generate`` or ``verify --kind sat`` takes about
0.05 s in all with the bytecode cache written and 0.07-0.08 s without it
(Python 3.11, 2 vCPU). The process ends through ``run``, which freezes the
heap, so the interpreter's collections at exit skip the objects that die
with it; exit handlers still run.

``solve``, ``render`` and ``verify --kind exchange`` each hold one ``_Run``,
so a call builds the intersection graph and runs each solver at most once.
``solve`` and ``render`` read their input file, or stdin, a block at a time
(``instance_io.read_instance``), so no call holds the file's whole text.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import warnings
from functools import cached_property
from pathlib import Path

from .errors import LFramesError
from .generators import FAMILIES, gen_anchored_one_sided, generate
from .geometry import _MODELS, GeomInstance
from .instance_io import emit_instance, format_fields, instance_summary, read_instance

_ALGOS = ("exact", "greedy", "local-search", "two-sided", "permutation")
_VERIFY_KINDS = ("circle-diagonal", "circle-vertical", "sat", "vc", "eds", "exchange")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", type=_positive, default=32,
                   help="vertex limit for the exact solver, counting every "
                        "vertex (it solves each connected component on its own)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lframes",
        description="dominating sets on rectangle and frame intersection graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a seeded instance")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=_positive, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--algo", choices=_ALGOS, default="exact")
    p.add_argument("--k", type=_positive, default=2)
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--seed", type=int)
    _add_cap(p)
    p.add_argument("--oracle", action="store_true",
                   help="attach the optimal size ratio when n is at most --cap")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "verify", help="check a reduction or an exchange drawing",
        description="Reduce a seeded source and recompute both optima by brute "
                    "force, or check the exchange drawing between local search "
                    "and exact on a seeded one-sided anchored instance. Sources "
                    "beyond exhaustive reach exit 2 before the reduction is "
                    "built: circle kinds take at most 12 chords, sat at most 16 "
                    "variables and 64 frames, vc at most 16 vertices and 64 "
                    "frames, eds at most 16 edges.",
    )
    p.add_argument("--kind", required=True, choices=_VERIFY_KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=_positive, default=5)
    p.add_argument("--k", type=_positive, default=2)
    p.add_argument("--cap", type=_positive, default=32,
                   help="vertex limit for the exact solver of --kind exchange; "
                        "the reduction kinds ignore it")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw an instance as SVG")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--algo", choices=_ALGOS,
                   help="solve and highlight the solution")
    p.add_argument("--k", type=_positive, default=2)
    p.add_argument("--exchange", action="store_true",
                   help="overlay exchange arcs between local search and exact")
    _add_cap(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_render)

    return parser


def _read_instance(path: str) -> GeomInstance:
    """The instance in the file at ``path``, or on stdin for ``-``, read a
    block at a time."""
    if path == "-":
        return read_instance(sys.stdin)
    try:
        with open(path) as file:
            return read_instance(file)
    except OSError as e:
        raise LFramesError(f"cannot read {path}: {e.strerror or e}") from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise LFramesError(f"cannot write {path}: {e.strerror or e}") from None


class _Run:
    """One call's instance; its graph, exact and local-search members are made once."""

    def __init__(self, inst: GeomInstance, k: int, cap: int):
        self.inst, self.k, self.cap = inst, k, cap

    @cached_property
    def graph(self):
        from .graph_core import build_intersection_graph

        return build_intersection_graph(self.inst)

    @cached_property
    def exact(self) -> tuple[int, ...]:
        from .graph_core import check_cap, exact_mds

        check_cap(self.inst.n, self.cap)  # before the graph, which may hold n^2 contacts
        return exact_mds(self.graph, cap=self.cap).members

    @cached_property
    def local(self) -> tuple[int, ...]:
        from .local_search import LocalSearchConfig, local_search_mds

        return local_search_mds(self.graph, LocalSearchConfig(k=self.k)).members

    def solve(self, algo: str) -> tuple[int, ...]:
        """Instance-index members of one solver's dominating set."""
        if algo == "exact":
            return self.exact
        if algo == "local-search":
            return self.local
        if algo == "greedy":
            from .graph_core import greedy_mds

            return greedy_mds(self.graph).members
        if algo == "two-sided":
            from .local_search import approx_two_sided

            return approx_two_sided(self.inst, self.k).members
        if algo == "permutation":
            from .permutation import _line_orders, _scan

            order1, line2 = _line_orders(self.inst)
            return tuple(sorted(map(order1.__getitem__, _scan(line2))))
        raise ValueError(f"unknown algorithm {algo!r}")

    def exchange(self):
        """Exchange graph of local search against exact, and its drawing."""
        from .exchange import build_exchange_graph, draw_arcs

        r_all, b_all = set(self.exact), set(self.local)
        h = build_exchange_graph(self.inst, sorted(b_all - r_all), sorted(r_all - b_all), self.graph)
        return h, draw_arcs(h, self.inst)


def _cmd_generate(args) -> int:
    inst = generate(args.family, args.seed, args.n)
    _write_text(args.out, emit_instance(inst))
    return 0


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()  # wall_time_s covers reading and parsing the file too
    inst = _read_instance(args.infile)
    if args.model is not None:
        inst = inst._replace(model=args.model)
    run = _Run(inst, args.k, args.cap)
    members = run.solve(args.algo)
    wall = time.perf_counter() - t0

    ratio = None
    if args.oracle:
        if inst.n <= args.cap:
            if args.algo == "exact":  # the members are an optimum already
                opt = len(members)
            else:
                from .graph_core import exact_mds_size

                opt = exact_mds_size(run.graph, cap=args.cap)
            ratio = 1.0 if opt == 0 else len(members) / opt
        else:
            print(f"oracle skipped: n={inst.n} exceeds cap {args.cap}",
                  file=sys.stderr)

    fields = {
        "algorithm": args.algo,
        "instance": instance_summary(inst),
        "n": str(inst.n),
        "size": str(len(members)),
        "members": " ".join(map(inst.ids.__getitem__, members)) or "-",
    }
    if args.algo in ("local-search", "two-sided"):
        fields["k"] = str(args.k)
    if args.seed is not None:
        fields["seed"] = str(args.seed)
    if ratio is not None:
        fields["oracle_ratio"] = f"{ratio:.6f}"
    sys.stdout.write(format_fields(fields))
    print(f"wall_time_s {wall:.3f}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.kind == "exchange":
        from .exchange import check_local_exchange, count_crossings
        from .graph_core import check_cap

        check_cap(args.n, args.cap)  # the instance has args.n frames
        run = _Run(gen_anchored_one_sided(args.seed, args.n), args.k, args.cap)
        h, drawing = run.exchange()
        crossings = count_crossings(drawing)
        m, total = len(h.arcs), len(h.B) + len(h.R)
        planar_ok = total < 3 or m <= 2 * total - 4
        exchange_ok = check_local_exchange(h, run.graph)
        ok = crossings == 0 and planar_ok and exchange_ok
        fields = {
            "kind": args.kind,
            "seed": str(args.seed),
            "n": str(args.n),
            "arcs": str(m),
            "crossings": str(crossings),
            "ok": "true" if ok else "false",
        }
    else:
        from .reductions import build_certificate, check_reach, reduction_source, verify_equivalence

        source = reduction_source(args.kind, args.seed, args.n)
        check_reach(args.kind, source)
        rep = verify_equivalence(build_certificate(args.kind, source))
        ok = rep.ok
        fields = {
            "kind": args.kind,
            "seed": str(args.seed),
            "source_value": str(rep.source_value),
            "reduced_value": str(rep.reduced_value),
            "offset": str(rep.offset),
            "ok": "true" if ok else "false",
        }
    sys.stdout.write(format_fields(fields))
    print(f"wall_time_s {time.perf_counter() - t0:.3f}", file=sys.stderr)
    return 0 if ok else 3


def _cmd_render(args) -> int:
    from .svg import render_svg

    run = _Run(_read_instance(args.infile), args.k, args.cap)
    if args.exchange:  # refuse before any graph or solver runs
        from .graph_core import check_cap

        check_cap(run.inst.n, args.cap)
        if run.inst.rects:
            raise ValueError("exchange graphs are defined on frame instances")
        if run.inst.diagonal is None:
            raise ValueError("instance has no diagonal")
    solution = run.solve(args.algo) if args.algo else None
    arcs = run.exchange()[1] if args.exchange else None
    if solution is None and args.exchange:
        solution = run.local
    _write_text(args.out, render_svg(run.inst, solution, arcs))
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        return 0 if code == 0 else 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except (LFramesError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> int:
    """``main`` on ``sys.argv``, for a process that ends after it: the
    ``lframes`` script and ``python -m lframes.cli``.

    Every object still alive then dies with the process, so ``gc.freeze()``
    moves them out of the collector's reach and the collections at exit
    find nothing to traverse. The interpreter still flushes the streams and
    runs the ``atexit`` handlers. In-process callers use ``main``, which
    leaves the collector as it is.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
