"""lframes benchmark: CLI time to solution on three workloads.

    python3 bench/run.py --workload two-line-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/lframes``). The
workload's inputs are made from ``--seed`` (see ``workloads.py``). With
``--trace 0`` the run is a closed loop: one process calls the ``lframes``
CLI in a subprocess, one call at a time, over the workload's call list
(a pass), and repeats passes until ``--seconds`` are used up. Each call's
time is scaled to reference speed by a calibration kernel timed next to it
(``calibrate``). It checks every output (``checker.py``) and prints the
end-to-end metrics. With
``--trace 1`` it makes the same calls in-process with spans around each
library call (``tracing.py``) and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it describe the
environment and the samples. Each run also writes its calls, metrics and
spans to ``bench/work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
SETUP_REPEATS = 3
HELP_REPEATS = 5
CALL_TIMEOUT_S = 60
# What ``calibrate`` takes on the reference machine (2 vCPU x86_64, Python
# 3.11) while the host is quiet. Times are scaled to this speed.
CALIBRATION_S = 0.030


@dataclass
class CliResult:
    wall_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool
    scaled_s: float = 0.0


def run_cli(args: list, cwd: Path, env: dict, program: tuple = ("-m", "lframes.cli")) -> CliResult:
    """One ``lframes`` call, timed from spawn to exit; rusage from wait4.

    A child's max-RSS starts at the peak RSS of this process, so this
    process never imports numpy or lframes before the timed calls.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *args],
                                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(wall, usage.ru_maxrss, proc.returncode,
                     out_path.read_text(), err_path.read_text(),
                     wall >= CALL_TIMEOUT_S)


def calibrate() -> float:
    """Time of a fixed pure-Python kernel, the faster of two runs.

    The host this was built on switches between speed states that differ
    by up to 1.5x and last from seconds to minutes. The kernel runs in the
    benchmark's own process, next to each timed call, so that the call's
    time can be scaled to the speed of the state it ran in.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc, table, items = 0, {}, []
        for i in range(60_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 2047] = i
            items.append(acc)
        items.sort()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, from the calibrations around it."""
    return wall * CALIBRATION_S / ((before + after) / 2)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def set_up(wl, seed: int, workdir: Path, env: dict) -> float:
    """Write the workload's input files; returns the wall time.

    The benchmark-built instances are emitted by ``workloads.py`` in a
    subprocess (see ``run_cli``).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for name, family, gseed, n in wl.generates:
        res = run_cli(["generate", "--family", family, "--seed", str(gseed),
                       "--n", str(n), "--out", name], workdir, env)
        if res.returncode != 0:
            raise RuntimeError(f"generate {family} failed: {res.stderr.strip()}")
    if wl.builds:
        res = run_cli([wl.name, str(seed), str(workdir)], workdir, env,
                      program=(str(BENCH_DIR / "workloads.py"),))
        if res.returncode != 0:
            raise RuntimeError(f"emit failed: {res.stderr.strip()}")
    return time.perf_counter() - t0


def input_files(wl) -> list:
    return [g[0] for g in wl.generates] + [b[0] for b in wl.builds]


def same_inputs(a: Path, b: Path, wl) -> bool:
    return all((a / f).read_bytes() == (b / f).read_bytes() for f in input_files(wl))


def check_call(call, workdir: Path, out: dict, texts: dict):
    """Check one call's output; returns the solution size (or None)."""
    import checker

    if call.kind == "solve":
        inst = texts.setdefault(call.infile, checker.parse_instance_text(
            (workdir / call.infile).read_text()))
        if "members" in out:
            checker.check_solution(inst, out["members"], call.rule)
            return len(out["members"])
        return checker.check_solve_output(inst, out["stdout"], call.algo, call.rule)
    if call.kind == "verify":
        fields = out.get("fields") or checker.parse_fields(out["stdout"])
        checker.check_verify_fields(fields, call.algo)
        return None
    checker.check_svg(out.get("svg") or out["stdout"])
    return None


def cli_failure(res: CliResult):
    if res.timed_out:
        return "timeout"
    if res.returncode != 0:
        return f"exit code {res.returncode}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    return None


def run_pass(wl, workdir: Path, env: dict) -> list:
    """One pass over the calls, with a calibration between each two."""
    results = []
    before = calibrate()
    for call in wl.calls:
        res = run_cli(call.args, workdir, env)
        after = calibrate()
        res.scaled_s = scaled(res.wall_s, before, after)
        results.append(res)
        before = after
    return results


def check_passes(wl, workdir: Path, passes: list) -> tuple:
    """Check the first pass fully and the later ones against it.

    Returns (failures, solution size of one pass). The CLI is deterministic,
    so a later pass is correct iff its stdout equals the checked one.
    """
    import checker

    failures = []
    sizes = []
    texts = {}
    for i, (call, res) in enumerate(zip(wl.calls, passes[0])):
        reason = cli_failure(res)
        if reason is None:
            try:
                size = check_call(call, workdir, {"stdout": res.stdout}, texts)
                if size is not None:
                    sizes.append(size)
            except checker.CheckError as e:
                reason = str(e)
        if reason:
            failures.append((0, i, reason))
    for p, results in enumerate(passes[1:], start=1):
        for i, res in enumerate(results):
            reason = cli_failure(res)
            if reason is None and res.stdout != passes[0][i].stdout:
                reason = "output differs from the first pass"
            if reason:
                failures.append((p, i, reason))
    return failures, sum(sizes)


def tail_percentile(samples: list):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_run(wl, seed: int, seconds: float, work: Path, env: dict) -> dict:
    # Set-up time is not scaled: one calibration pair around several
    # seconds of spawns moved its median more than the host did.
    setups = []
    for r in range(SETUP_REPEATS):
        setups.append(set_up(wl, seed, work / f"inputs-{r}", env))
        if r and not same_inputs(work / "inputs-0", work / f"inputs-{r}", wl):
            raise RuntimeError("set-up is not deterministic")
    workdir = work / "inputs-0"
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(wl, workdir, env))
        elapsed = time.perf_counter() - t0
        # stop unless one more pass ends within half a pass of the budget
        if elapsed * (len(passes) + 0.5) / len(passes) > seconds:
            break
    failures, size = check_passes(wl, workdir, passes)
    walls = [r.scaled_s for results in passes for r in results]
    attempted = len(walls)
    # Each call's time is its median over passes, at reference speed.
    per_call = [statistics.median(p[i].scaled_s for p in passes)
                for i in range(len(wl.calls))]
    metrics = {
        "wall_s": sum(per_call),
        "call_s.p50": statistics.median(per_call),
        "peak_rss_mb": max(r.maxrss_kb for results in passes for r in results) / 1024,
        "solution_size": size,
        "ok_share": (attempted - len(failures)) / attempted,
        "setup_s": statistics.median(setups),
    }
    raw_per_call = [statistics.median(p[i].wall_s for p in passes)
                    for i in range(len(wl.calls))]
    notes = {"passes": len(passes), "call_s.samples": attempted,
             "setup_s.samples": setups,
             "wall_s.raw": sum(raw_per_call), "call_s.p50.raw": statistics.median(raw_per_call)}
    tail = tail_percentile(walls)
    if tail is not None:
        notes[f"call_s.p{tail[0]}"] = tail[1]
    calls = [{"args": c.args, "wall_s": [p[i].wall_s for p in passes],
              "scaled_s": [p[i].scaled_s for p in passes],
              "maxrss_kb": max(p[i].maxrss_kb for p in passes)}
             for i, c in enumerate(wl.calls)]
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "notes": notes, "calls": calls}


def traced_setup(wl, seed: int, workdir: Path, tr) -> None:
    """In-process set-up: generate and emit under spans."""
    from lframes.generators import generate
    from lframes.instance_io import emit_instance
    from workloads import emit_builds

    workdir.mkdir(parents=True, exist_ok=True)
    for name, family, gseed, n in wl.generates:
        with tr.span("generators.generate"):
            inst = generate(family, gseed, n)
        with tr.span("instance_io.emit"):
            text = emit_instance(inst)
        tr.count("instance_io.bytes", len(text))
        (workdir / name).write_text(text)
    tr.count("instance_io.bytes", emit_builds(wl, seed, workdir, tr))


def inprocess_call(call, workdir: Path, tr):
    """One call of the pass made in-process; returns its output."""
    import tracing

    if call.kind == "solve":
        return tracing.solve(call, (workdir / call.infile).read_text(), tr)
    if call.kind == "verify":
        return {"fields": tracing.verify(call, tr)}
    return tracing.render(call, (workdir / call.infile).read_text(), tr)


def inprocess_pass(wl, workdir: Path, tr) -> tuple:
    """The pass made in-process, each call once untraced and once traced.

    Each call first runs once untimed, because a second run of a call in
    one process is faster than the first. The order of the two timed runs
    alternates from call to call, so that drift in machine speed falls on
    both alike. Returns (untraced wall, traced wall, traced outputs,
    failures).
    """
    import tracing

    walls = {"untraced": 0.0, "traced": 0.0}
    outputs, failures = [], []
    for i, call in enumerate(wl.calls):
        try:
            inprocess_call(call, workdir, tracing.NullTracer())
        except Exception:  # the timed runs below record the failure
            pass
        tr.call_id = i
        runs = [("untraced", tracing.NullTracer()), ("traced", tr)]
        for label, tracer in runs[::-1] if i % 2 else runs:
            t0 = time.perf_counter()
            try:
                out = inprocess_call(call, workdir, tracer)
            except Exception as e:  # a failed call is counted, the pass goes on
                out = None
                failures.append((label, i, f"{type(e).__name__}: {e}"))
            walls[label] += time.perf_counter() - t0
            if label == "traced":
                outputs.append(out)
    tr.call_id = None
    return walls["untraced"], walls["traced"], outputs, failures


def traced_run(wl, seed: int, seconds: float, work: Path, env: dict) -> dict:
    import checker
    import tracing
    from lframes.graph_core import greedy_mds

    workdir = work / "inputs-0"
    set_up(wl, seed, workdir, env)
    tr = tracing.Tracer()
    traced_setup(wl, seed, work / "inputs-traced", tr)
    failures = []
    if not same_inputs(workdir, work / "inputs-traced", wl):
        failures.append(("setup", "in-process inputs differ from the CLI's"))

    helps = [run_cli(["solve", "--help"], workdir, env) for _ in range(HELP_REPEATS)]
    cli = run_pass(wl, workdir, env)
    cli_failures, _ = check_passes(wl, workdir, [cli])
    failures += cli_failures
    cli_wall = sum(r.wall_s for r in cli)

    plain_wall, traced_wall, outputs, inprocess_failures = inprocess_pass(wl, workdir, tr)
    failures += inprocess_failures

    texts = {}
    reduction = 0
    for i, (call, out) in enumerate(zip(wl.calls, outputs)):
        if out is None:
            continue
        try:
            check_call(call, workdir, out, texts)
        except checker.CheckError as e:
            failures.append((i, str(e)))
        if out.get("graph") is not None:
            reduction += greedy_mds(out["graph"]).size - len(out["members"])

    metrics = tracing.layer_metrics(tr, cli_wall)
    metrics["cli.start_s"] = statistics.median(r.wall_s for r in helps)
    metrics["cli.calls"] = len(cli) + len(helps)
    metrics["cli.failed"] = sum(cli_failure(r) is not None for r in cli + helps)
    metrics["local_search.size_reduction"] = reduction
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    attempted = len(cli) + len(helps) + 2 * len(wl.calls)
    notes = {"cli_pass_wall_s": cli_wall, "inprocess_untraced_s": plain_wall,
             "inprocess_traced_s": traced_wall}
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "notes": notes, "spans": tr.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lframes" / "cli.py").is_file():
        print(f"error: no lframes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    wl = make_workload(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # fill the bytecode cache before anything is timed
        run_cli(["solve", "--help"], work, env)
        run = (traced_run if args.trace else timed_run)(wl, args.seed, args.seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **run}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for key, value in run["notes"].items():
        print(f"{key} {value}")
    for failure in run["failures"]:
        print("failed " + " ".join(map(str, failure)))
    metrics = {m["name"]: {"value": run["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not run["failures"], "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
