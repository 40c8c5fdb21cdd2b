"""Output checker, independent of the solver code.

It reads instance files with its own parser. Two-line instances are checked
with an O(n) prefix-max / suffix-min pass over the crossing orders (after
one sort of the coordinates). Every other instance is checked chosen × all
with the library's intersection predicates (``geometry``, ``epg``) as
referee; they are not part of any solver.

Exact algorithms must also report a reference optimum. Its ``rule`` is one
of:

- ``recorded:<family>/<n>/<seed>``: the size in ``reference.json``, recorded
  by ``record_reference.py``;
- ``grid-transpose``: 4. On an a × b grid (a, b >= 3) with cells adjacent
  iff (r1 - r2)(c1 - c2) < 0, cells (0, 0) and (a-1, b-1) are isolated,
  (0, b-1) and (a-1, 0) dominate the rest, and no single cell dominates the
  rest because the other cells of its row are not its neighbours;
- ``complete-multipartite``: block-reversal permutations, whose graph is
  complete multipartite: 1 if some block is a single vertex, else 2;
- ``componentwise``: the sum over connected components of a brute-force
  optimum; used where every component is small.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).parent / "reference.json"
BRUTE_FORCE_LIMIT = 12


class CheckError(Exception):
    """An output the checker rejects."""


def parse_instance_text(text: str) -> dict:
    """Header fields and records of an instance file."""
    header = {"model": "standard", "kind": "frames"}
    records = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] in ("version", "model", "kind", "diagonal", "vline", "hline") and not records:
            header[tokens[0]] = tokens[1]
            continue
        records.append((tokens[0], *(int(t) for t in tokens[1:5])))
    return {"header": header, "records": records}


def parse_fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key:
            out[key] = value
    return out


# -- two-line instances ------------------------------------------------------


def two_line_permutation(inst: dict):
    """(order, pi) for a valid two-line instance, else None.

    ``order[i]`` is the record index at position i on the vertical line (top
    to bottom) and ``pi[i]`` its 1-based position on the horizontal line
    (left to right). Two frames intersect iff their orders disagree.
    """
    h = inst["header"]
    if h["kind"] != "frames" or h["model"] != "standard" or "vline" not in h or "hline" not in h:
        return None
    V, H = int(h["vline"]), int(h["hline"])
    rec = np.array([r[1:] for r in inst["records"]], dtype=np.int64).reshape(-1, 4)
    cx, cy, hs, vs = rec.T
    valid = (hs > 0) & (vs < 0) & (cx < V) & (V <= cx + hs) & (cy + vs <= H) & (H < cy)
    if not valid.all() or len(np.unique(cx)) != len(cx) or len(np.unique(cy)) != len(cy):
        return None
    order = np.argsort(-cy, kind="stable")
    rank = np.empty(len(cx), np.int64)
    rank[np.argsort(cx, kind="stable")] = np.arange(1, len(cx) + 1)
    return order, rank[order]


def two_line_dominated(pi: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Per position: chosen, or inverted with a chosen position before or after."""
    n = len(pi)
    before = np.zeros(n, np.int64)
    if n > 1:
        before[1:] = np.maximum.accumulate(np.where(chosen, pi, 0))[:-1]
    after = np.full(n, n + 1, np.int64)
    if n > 1:
        after[:-1] = np.minimum.accumulate(np.where(chosen, pi, n + 1)[::-1])[::-1][1:]
    return chosen | (before > pi) | (after < pi)


# -- everything else -----------------------------------------------------------


def _objects(inst: dict):
    from lframes.geometry import LFrame, Point, Rect

    if inst["header"]["kind"] == "rects":
        return [Rect(i, Point(a, b), Point(c, d)) for i, a, b, c, d in inst["records"]]
    return [LFrame(i, Point(a, b), c, d) for i, a, b, c, d in inst["records"]]


def _predicate(inst: dict):
    from lframes.epg import epg_intersect
    from lframes.geometry import lframe_intersect, rect_intersect

    if inst["header"]["model"] == "edge":
        return epg_intersect
    return rect_intersect if inst["header"]["kind"] == "rects" else lframe_intersect


def undominated(inst: dict, members: list) -> list:
    """Ids of the objects that ``members`` leaves undominated."""
    ids = [r[0] for r in inst["records"]]
    index = {v: i for i, v in enumerate(ids)}
    tl = two_line_permutation(inst)
    if tl is not None:
        order, pi = tl
        chosen_rec = np.zeros(len(ids), bool)
        chosen_rec[[index[m] for m in members]] = True
        ok = two_line_dominated(pi, chosen_rec[order])
        return [ids[order[i]] for i in np.flatnonzero(~ok)]
    objs = _objects(inst)
    pred = _predicate(inst)
    chosen = [objs[index[m]] for m in members]
    chosen_set = set(members)
    return [o.id for o in objs
            if o.id not in chosen_set and not any(pred(c, o) for c in chosen)]


# -- reference optima ------------------------------------------------------------


@lru_cache(maxsize=1)
def _reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@lru_cache(maxsize=None)
def _brute_force_mds(pattern: tuple) -> int:
    """Minimum dominating set size of the inversion graph of a small permutation."""
    n = len(pattern)
    masks = []
    for i in range(n):
        m = 1 << i
        for j in range(n):
            if (i < j and pattern[i] > pattern[j]) or (j < i and pattern[j] > pattern[i]):
                m |= 1 << j
        masks.append(m)
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for sub in combinations(masks, k):
            acc = 0
            for m in sub:
                acc |= m
            if acc == full:
                return k
    return n


def _componentwise(pi) -> int:
    total = 0
    start = 0
    run_max = 0
    for i, v in enumerate(pi):
        run_max = max(run_max, int(v))
        if run_max == i + 1:
            block = pi[start:i + 1]
            if len(block) > BRUTE_FORCE_LIMIT:
                raise CheckError(f"component of {len(block)} vertices is beyond brute force")
            base = start + 1
            total += _brute_force_mds(tuple(int(x) - base for x in block))
            start = i + 1
    return total


def _complete_multipartite(pi) -> int:
    blocks = []
    for v in pi:
        v = int(v)
        if blocks and v == blocks[-1][1] + 1:
            blocks[-1][1] = v
        else:
            if blocks and v >= blocks[-1][0]:
                raise CheckError("input is not a block reversal")
            blocks.append([v, v])
    if len(blocks) == 1:
        return len(pi)
    return 1 if any(lo == hi for lo, hi in blocks) else 2


def optimum(rule: str, inst: dict) -> int:
    if rule.startswith("recorded:"):
        return _reference()[rule.split(":", 1)[1]]
    if rule == "grid-transpose":
        return 4
    tl = two_line_permutation(inst)
    if tl is None:
        raise CheckError(f"rule {rule!r} needs a two-line instance")
    if rule == "complete-multipartite":
        return _complete_multipartite(tl[1])
    if rule == "componentwise":
        return _componentwise(tl[1])
    raise ValueError(f"unknown optimum rule {rule!r}")


# -- per call ----------------------------------------------------------------------


def check_solution(inst: dict, members: list, rule=None) -> None:
    """Raise CheckError unless ``members`` is a dominating set of ``inst``
    (of optimum size when ``rule`` names a reference)."""
    ids = {r[0] for r in inst["records"]}
    if len(set(members)) != len(members):
        raise CheckError("repeated members")
    unknown = [m for m in members if m not in ids]
    if unknown:
        raise CheckError(f"unknown members {unknown[:3]}")
    missed = undominated(inst, members)
    if missed:
        raise CheckError(f"{len(missed)} objects undominated, e.g. {missed[0]}")
    if rule is not None:
        want = optimum(rule, inst)
        if len(members) != want:
            raise CheckError(f"size {len(members)} differs from the optimum {want} ({rule})")


def check_solve_output(inst: dict, stdout: str, algo: str, rule=None) -> int:
    """Check a ``solve`` report; returns the reported size."""
    fields = parse_fields(stdout)
    if fields.get("algorithm") != algo or "size" not in fields:
        raise CheckError("malformed solve report")
    members = [] if fields.get("members", "-") == "-" else fields["members"].split()
    if int(fields["size"]) != len(members):
        raise CheckError("size disagrees with the member list")
    check_solution(inst, members, rule)
    return len(members)


def check_verify_fields(fields: dict, kind: str) -> None:
    if fields.get("kind") != kind or fields.get("ok") != "true":
        raise CheckError(f"verify {kind} did not report ok")
    if kind == "exchange" and fields.get("crossings") != "0":
        raise CheckError("exchange drawing has crossings")


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise CheckError(f"svg does not parse: {e}") from None
    if not root.tag.endswith("svg"):
        raise CheckError(f"root element is {root.tag}, not svg")
