"""Workload definitions and their seeded inputs.

A workload is a fixed list of CLI calls (one *pass*) over input files that
set-up writes into a work directory. Set-up runs ``lframes generate`` for
the library families and emits benchmark-built instances (structured
two-line permutations, anchored rectangles) through the library's own
``emit_instance``. Everything is drawn from one ``random.Random`` seeded by
the workload name and the ``--seed`` argument, so the same seed gives
byte-identical files.

Exact-solver calls need a reference optimum. Structured two-line inputs
carry one by construction (see ``checker``); the random two-line instance
and the exact-solver corpus are fixed, with optima recorded in
``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Scan time over random two-line instances at the same n varies up to 3x
# with the frontier width of the instance. That would swamp every other
# change, so the random instance is the fixed generator seed below; its
# optimum is recorded in reference.json. At n = 5e4 one call takes about
# 4 s, so a run has several passes to take the median of; the per-element
# cost is the same as at 1e5.
RANDOM_TWO_LINE = ("two-line", 1, 50_000)

# Branch-and-bound time at n = 64 ranges over two orders of magnitude from
# one generator seed to the next (0.01 s to 3.4 s), so the exact corpus is
# fixed too; its optima are recorded in reference.json.
EXACT_CORPUS = (
    ("anchored-one-sided", 64, 1),
    ("anchored-one-sided", 64, 2),
    ("anchored-one-sided", 64, 3),
    ("anchored-two-sided", 64, 5),
)


@dataclass
class Call:
    """One CLI call of a pass.

    ``kind`` is the subcommand; ``infile`` names an input of the workload;
    ``algo`` is the solver of ``solve`` or the ``--kind`` of ``verify``;
    ``rule`` says where the optimum an exact algorithm must report comes
    from (None when the solver is not exact; see ``checker.optimum``).
    """

    kind: str
    args: list
    infile: Optional[str] = None
    algo: Optional[str] = None
    rule: Optional[str] = None


@dataclass
class Workload:
    name: str
    generates: list  # (file name, family, seed, n) made with `lframes generate`
    builds: list  # (file name, builder name, params) emitted by the benchmark
    calls: list


# -- structured two-line permutations ----------------------------------------


def grid_transpose(a: int, b: int) -> list:
    """Row-major order on line one, column-major on line two.

    Cells (r1, c1) and (r2, c2) are adjacent iff (r1 - r2)(c1 - c2) < 0.
    """
    return [c * a + r + 1 for r in range(a) for c in range(b)]


def block_reversal(n: int, rng: random.Random, lo: int, hi: int) -> list:
    """Blocks of random size in [lo, hi], block order reversed, ascending inside.

    The graph is complete multipartite with the blocks as parts.
    """
    sizes = []
    left = n
    while left:
        s = min(left, rng.randint(lo, hi))
        sizes.append(s)
        left -= s
    pi = []
    top = n
    for s in sizes:
        pi.extend(range(top - s + 1, top + 1))
        top -= s
    return pi


def noisy_identity(n: int, rng: random.Random, chunk: int, p: float) -> list:
    """The identity with each chunk of at most ``chunk`` positions shuffled
    with probability ``p``. Chunks never interact, so every connected
    component has at most ``chunk`` vertices."""
    pi = list(range(1, n + 1))
    i = 0
    while i < n:
        s = min(n - i, rng.randint(1, chunk))
        if rng.random() < p:
            part = pi[i:i + s]
            rng.shuffle(part)
            pi[i:i + s] = part
        i += s
    return pi


def two_line_instance(pi: list, rng: random.Random):
    """Frames crossing x = 0 and y = 0 whose crossing orders realise ``pi``.

    Line one is the vertical line read top to bottom, line two the
    horizontal one read left to right. Coordinate gaps, arm overshoots and
    the record order are random; the permutation is not.
    """
    from lframes.geometry import GeomInstance, LFrame, Point

    n = len(pi)
    ys = []
    y = 0
    for _ in range(n):
        y += rng.randint(1, 3)
        ys.append(y)
    ys.reverse()  # position 0 is the topmost crossing
    xs = []
    x = 0
    for _ in range(n):
        x -= rng.randint(1, 3)
        xs.append(x)
    xs.reverse()  # rank 1 is the leftmost crossing
    order = list(range(n))
    rng.shuffle(order)
    frames = []
    for k, i in enumerate(order):
        cx, cy = xs[pi[i] - 1], ys[i]
        frames.append(LFrame(f"f{k + 1}", Point(cx, cy),
                             -cx + rng.randint(0, 6), -cy - rng.randint(0, 6)))
    return GeomInstance(frames=tuple(frames), vline=0, hline=0)


def build_instance(builder: str, params: dict, rng: random.Random):
    """Benchmark-built instance by name; returns a GeomInstance."""
    if builder == "grid-transpose":
        pi = grid_transpose(params["a"], params["b"])
    elif builder == "block-reversal":
        pi = block_reversal(params["n"], rng, params["lo"], params["hi"])
    elif builder == "noisy-identity":
        pi = noisy_identity(params["n"], rng, params["chunk"], params["p"])
    elif builder == "anchored-rects":
        from lframes.generators import gen_anchored_rects

        return gen_anchored_rects(rng.randrange(2**31), params["n"])
    else:
        raise ValueError(f"unknown builder {builder!r}")
    return two_line_instance(pi, rng)


# -- the three workloads -----------------------------------------------------


def _solve(infile: str, algo: str, *extra, rule=None) -> Call:
    return Call("solve", ["solve", "--in", infile, "--algo", algo, *extra],
                infile=infile, algo=algo, rule=rule)


def _two_line_scan(rng: random.Random) -> Workload:
    family, gseed, n = RANDOM_TWO_LINE
    generates = [("random.txt", family, gseed, n)]
    # The grid makes the frontier outgrow its initial capacity (24) four
    # times, up to 384; block reversal reaches 192. Noisy identity keeps the
    # frontier narrow and is the control.
    builds = [
        ("grid.txt", "grid-transpose", {"a": 100, "b": 100}),
        ("block-reversal.txt", "block-reversal", {"n": 20_000, "lo": 2, "hi": 64}),
        ("noisy-identity.txt", "noisy-identity", {"n": 40_000, "chunk": 10, "p": 0.5}),
    ]
    calls = [
        _solve("random.txt", "permutation", rule=f"recorded:{family}/{n}/{gseed}"),
        _solve("grid.txt", "permutation", rule="grid-transpose"),
        _solve("block-reversal.txt", "permutation", rule="complete-multipartite"),
        _solve("noisy-identity.txt", "permutation", rule="componentwise"),
    ]
    return Workload("two-line-scan", generates, builds, calls)


def _frames_build_greedy(rng: random.Random) -> Workload:
    sizes = [
        ("anchored-one-sided", 1500),
        ("anchored-two-sided", 1000),
        ("circle-diagonal", 1000),
        ("circle-vertical", 1000),
        ("vc-epg", 60),  # 60 graph vertices become about 1040 edge-model paths
        ("two-line", 1000),  # dense: about 250k edges
    ]
    generates = [(f"{fam}.txt", fam, rng.randrange(2**31), n) for fam, n in sizes]
    builds = [("anchored-rects.txt", "anchored-rects", {"n": 1000})]
    calls = [_solve(name, "greedy") for name, *_ in generates + builds]
    return Workload("frames-build-greedy", generates, builds, calls)


def _anchored_solvers(rng: random.Random) -> Workload:
    generates = []
    calls = []
    for i in range(3):
        name = f"ls-{i}.txt"
        generates.append((name, "anchored-one-sided", rng.randrange(2**31), 300))
        calls.append(_solve(name, "local-search", "--k", "2"))
    for i in range(2):
        name = f"two-sided-{i}.txt"
        generates.append((name, "anchored-two-sided", rng.randrange(2**31), 400))
        calls.append(_solve(name, "two-sided", "--k", "2"))
    for fam, n, seed in EXACT_CORPUS:
        name = f"exact-{fam}-{n}-{seed}.txt"
        generates.append((name, fam, seed, n))
        calls.append(_solve(name, "exact", "--cap", "64",
                            rule=f"recorded:{fam}/{n}/{seed}"))
    # Short calls are twice as many as the long ones, so call_s.p50 is a
    # start-up dominated call and moves with CLI start-up cost. With fewer,
    # it would be the slowest short call, which is the noisiest.
    verify = [("exchange", 12), ("exchange", 14), ("exchange", 16), ("exchange", 18),
              ("exchange", 20), ("circle-diagonal", 10), ("circle-diagonal", 12),
              ("circle-vertical", 10), ("circle-vertical", 12), ("sat", 0), ("sat", 0),
              ("vc", 6), ("vc", 7), ("eds", 8), ("eds", 9)]
    for kind, n in verify:
        args = ["verify", "--kind", kind, "--seed", str(rng.randrange(1000))]
        if n:
            args += ["--n", str(n)]
        calls.append(Call("verify", args, algo=kind))
    for i in range(3):
        name = f"render-{i}.txt"
        generates.append((name, "anchored-one-sided", rng.randrange(2**31), 24))
        calls.append(Call("render", ["render", "--in", name, "--exchange"], infile=name))
    return Workload("anchored-solvers", generates, [], calls)


WORKLOADS = {
    "two-line-scan": _two_line_scan,
    "frames-build-greedy": _frames_build_greedy,
    "anchored-solvers": _anchored_solvers,
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def emit_builds(workload: Workload, seed: int, workdir: Path, tracer=None) -> int:
    """Emit the benchmark-built instances; returns the bytes written."""
    from lframes.instance_io import emit_instance
    from tracing import NullTracer

    tracer = tracer or NullTracer()
    rng = random.Random(f"{workload.name}:{seed}:build")
    written = 0
    for name, builder, params in workload.builds:
        inst = build_instance(builder, params, rng)
        with tracer.span("instance_io.emit"):
            text = emit_instance(inst)
        (workdir / name).write_text(text)
        written += len(text)
    return written


if __name__ == "__main__":
    # python3 bench/workloads.py <workload> <seed> <dir>: emit the
    # benchmark-built instances of the workload into <dir>.
    import sys

    name, seed, where = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    emit_builds(make_workload(name, seed), seed, where)
