"""The traced run: the workload's calls made in-process, with spans.

Each CLI call of a pass is mirrored here by the same public library calls
the CLI makes, in the same order, each wrapped in a span named
``<module>.<step>``. Spans live in memory (name, start, end, parent, call
id) and are written out when the benchmark ends. Counts of work done
(elements scanned, pairs tested, arcs drawn, bytes) are recorded at the
same boundaries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

LAYERS = ("instance_io", "generators", "permutation", "graph_core",
          "local_search", "exchange", "reductions", "svg")


class Tracer:
    """Records nested spans and named counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.call_id = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter_ns(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "call": self.call_id, "failed": False}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> list:
        """Seconds per span, minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return [t / 1e9 for t in own]


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced in-process baseline."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


def _option(args: list, flag: str, default):
    return type(default)(args[args.index(flag) + 1]) if flag in args else default


def _exchange_arcs(inst, g, k: int, tr: Tracer):
    """The local-search versus exact exchange drawing that verify and render build."""
    from lframes.exchange import build_exchange_graph, draw_arcs
    from lframes.graph_core import exact_mds
    from lframes.local_search import LocalSearchConfig, local_search_mds

    with tr.span("local_search.search"):
        b_all = local_search_mds(g, LocalSearchConfig(k=k)).members
    with tr.span("graph_core.exact"):
        r_all = exact_mds(g).members
    b_only = sorted(set(b_all) - set(r_all))
    r_only = sorted(set(r_all) - set(b_all))
    with tr.span("exchange.build"):
        h = build_exchange_graph(inst, b_only, r_only)
    with tr.span("exchange.draw"):
        drawing = draw_arcs(h, inst)
    tr.count("exchange.arcs", len(h.arcs))
    return b_all, b_only, r_only, h, drawing


def _build(inst, tr: Tracer):
    from lframes.graph_core import build_intersection_graph

    with tr.span("graph_core.build"):
        g = build_intersection_graph(inst)
    tr.count("graph_core.pairs", g.n * (g.n - 1) // 2)
    tr.count("graph_core.edges", sum(map(len, g.adjacency)) // 2)
    return g


def _parse(text: str, tr: Tracer):
    from lframes.instance_io import parse_instance

    with tr.span("instance_io.parse"):
        inst = parse_instance(text)
    tr.count("instance_io.bytes", len(text))
    return inst


def solve(call, text: str, tr: Tracer) -> dict:
    """Mirror of ``lframes solve``; returns the chosen ids."""
    from lframes.graph_core import exact_mds, greedy_mds
    from lframes.local_search import LocalSearchConfig, approx_two_sided, local_search_mds
    from lframes.permutation import (lframes_to_permutation, mds_permutation,
                                     two_line_vertex_order)

    inst = _parse(text, tr)
    k = _option(call.args, "--k", 2)
    if call.algo == "permutation":
        with tr.span("permutation.order"):
            order1 = two_line_vertex_order(inst)
        with tr.span("permutation.to_perm"):
            p = lframes_to_permutation(inst)
        with tr.span("permutation.scan"):
            ds = mds_permutation(p)
        tr.count("permutation.elements", p.n)
        members = sorted(order1[t] for t in ds.members)
        return {"members": [inst.objects[i].id for i in members]}
    g = _build(inst, tr)
    graph = None
    if call.algo == "greedy":
        with tr.span("graph_core.greedy"):
            members = greedy_mds(g).members
    elif call.algo == "exact":
        with tr.span("graph_core.exact"):
            members = exact_mds(g, cap=_option(call.args, "--cap", 32)).members
    elif call.algo == "local-search":
        with tr.span("local_search.search"):
            members = local_search_mds(g, LocalSearchConfig(k=k)).members
        graph = g
    elif call.algo == "two-sided":
        with tr.span("local_search.two_sided"):
            members = approx_two_sided(inst, k).members
    else:
        raise ValueError(f"unknown algorithm {call.algo!r}")
    return {"members": [inst.objects[i].id for i in members], "graph": graph}


def _certificate(kind: str, seed: int, n: int, tr: Tracer):
    from lframes.generators import gen_bipartite, gen_chord_diagram, gen_graph
    from lframes.reductions import (circle_certificate, eds_to_epg,
                                    monotone3sat_to_lframes, sat_corpus, vc_to_epg)

    if kind in ("circle-diagonal", "circle-vertical"):
        with tr.span("generators.generate"):
            cd = gen_chord_diagram(seed, n)
        return circle_certificate(cd, kind.split("-")[1])
    if kind == "sat":
        corpus = sat_corpus()
        return monotone3sat_to_lframes(corpus[seed % len(corpus)])[1]
    if kind == "vc":
        with tr.span("generators.generate"):
            nv, edges = gen_graph(seed, n)
        return vc_to_epg(nv, edges)[1]
    n_a = max(1, n // 2)
    with tr.span("generators.generate"):
        edges = gen_bipartite(seed, n_a, max(1, n - n_a))
    return eds_to_epg(n_a, max(1, n - n_a), edges)[1]


def verify(call, tr: Tracer) -> dict:
    """Mirror of ``lframes verify``; returns its report fields."""
    from lframes.exchange import check_local_exchange, count_crossings
    from lframes.generators import gen_anchored_one_sided
    from lframes.reductions import verify_equivalence

    kind = call.algo
    seed = _option(call.args, "--seed", 0)
    n = _option(call.args, "--n", 5)
    if kind != "exchange":
        with tr.span("reductions.verify"):
            rep = verify_equivalence(_certificate(kind, seed, n, tr))
        return {"kind": kind, "ok": "true" if rep.ok else "false"}
    with tr.span("generators.generate"):
        inst = gen_anchored_one_sided(seed, n)
    g = _build(inst, tr)
    _, b_only, r_only, h, drawing = _exchange_arcs(inst, g, _option(call.args, "--k", 2), tr)
    with tr.span("exchange.crossings"):
        crossings = count_crossings(drawing)
    with tr.span("exchange.check"):
        exchange_ok = check_local_exchange(h, g)
    total = len(b_only) + len(r_only)
    ok = crossings == 0 and (total < 3 or len(h.arcs) <= 2 * total - 4) and exchange_ok
    return {"kind": kind, "ok": "true" if ok else "false", "crossings": str(crossings)}


def render(call, text: str, tr: Tracer) -> dict:
    """Mirror of ``lframes render --exchange``; returns the SVG text."""
    from lframes.svg import render_svg

    inst = _parse(text, tr)
    g = _build(inst, tr)
    b_all, _, _, _, drawing = _exchange_arcs(inst, g, _option(call.args, "--k", 2), tr)
    with tr.span("svg.render"):
        svg = render_svg(inst, b_all, drawing)
    tr.count("svg.bytes", len(svg))
    return {"svg": svg}


def layer_metrics(tr: Tracer, cli_wall_s: float) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    ``<name>_s`` is the self time of the spans called ``<name>``;
    ``<layer>.self_s`` sums a layer. ``cli.overhead_share`` compares the
    layer time inside the traced pass (spans with a call id, not set-up)
    with the untraced CLI pass.
    """
    own = tr.self_times()
    out = {}
    in_pass = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.failed"] = 0
    for s, t in zip(tr.spans, own):
        layer = s["name"].split(".")[0]
        out[f"{s['name']}_s"] = out.get(f"{s['name']}_s", 0.0) + t
        out[f"{layer}.self_s"] += t
        out[f"{layer}.calls"] += 1
        out[f"{layer}.failed"] += s["failed"]
        if s["call"] is not None:
            in_pass += t
    out.update(tr.counts)
    out["cli.overhead_share"] = 1.0 - in_pass / cli_wall_s
    scan, elements = out.get("permutation.scan_s", 0.0), tr.counts.get("permutation.elements", 0)
    out["permutation.scan_ns_per_element"] = scan / elements * 1e9 if elements else 0.0
    build, pairs = out.get("graph_core.build_s", 0.0), tr.counts.get("graph_core.pairs", 0)
    out["graph_core.build_ns_per_pair"] = build / pairs * 1e9 if pairs else 0.0
    return out
