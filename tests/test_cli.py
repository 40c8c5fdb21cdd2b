"""Command line behavior: subcommands, exit codes, byte stability."""

import codecs
import gc
import io
import locale
import subprocess
import sys
import time

import pytest

import lframes.cli as cli
import lframes.exchange as exchange
import lframes.geometry as geometry
import lframes.graph_core as graph_core
import lframes.local_search as local_search
import lframes.permutation as permutation
from conftest import brute_is_dominating, pairwise_edges, parse_report
from lframes.generators import gen_anchored_one_sided, gen_anchored_rects, gen_two_line
from lframes.instance_io import emit_instance


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(args):
    return subprocess.run(
        [sys.executable, "-m", "lframes.cli", *args],
        capture_output=True,
        text=True,
    )


def test_generate_writes_instance(capsys):
    code, out, _ = run_cli(
        ["generate", "--family", "anchored-one-sided", "--seed", "3", "--n", "6"], capsys
    )
    assert code == 0
    assert out.startswith("version 1\n")
    assert out.count("\n") >= 7


def test_generate_is_deterministic(capsys):
    args = ["generate", "--family", "two-line", "--seed", "9", "--n", "10"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_solve_exact_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code, out, _ = run_cli(
        ["generate", "--family", "anchored-one-sided", "--seed", "5", "--n", "8",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "exact"], capsys)
    assert code == 0
    fields = parse_report(out)
    assert fields["algorithm"] == "exact"
    assert fields["n"] == "8"
    assert int(fields["size"]) >= 1
    assert "wall_time_s" not in fields
    assert "wall_time_s" in err


def test_solve_wall_time_covers_the_parse(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "6",
             "--out", str(path)], capsys)
    read = cli.read_instance

    def slow_read(file):
        time.sleep(0.2)
        return read(file)

    monkeypatch.setattr(cli, "read_instance", slow_read)
    code, _, err = run_cli(["solve", "--in", str(path), "--algo", "greedy"], capsys)
    assert code == 0
    (wall,) = [float(line.split()[1]) for line in err.splitlines() if line.startswith("wall_time_s ")]
    assert wall >= 0.2


def test_solve_all_algorithms(tmp_path, capsys):
    anchored = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-two-sided", "--seed", "2", "--n", "7",
             "--out", str(anchored)], capsys)
    for algo in ("exact", "greedy", "local-search", "two-sided"):
        code, out, _ = run_cli(["solve", "--in", str(anchored), "--algo", algo], capsys)
        assert code == 0, algo
        assert parse_report(out)["algorithm"] == algo
    two_line = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "2", "--n", "7",
             "--out", str(two_line)], capsys)
    code, out, _ = run_cli(["solve", "--in", str(two_line), "--algo", "permutation"], capsys)
    assert code == 0
    assert int(parse_report(out)["size"]) >= 1


def test_permutation_solution_names_real_frames(tmp_path, capsys):
    path = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "4", "--n", "9",
             "--out", str(path)], capsys)
    _, out, _ = run_cli(["solve", "--in", str(path), "--algo", "permutation"], capsys)
    members = parse_report(out)["members"].split()
    text = path.read_text()
    for m in members:
        assert f"\n{m} " in text


def test_solve_with_oracle(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "6",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(
        ["solve", "--in", str(path), "--algo", "exact", "--oracle"], capsys
    )
    assert code == 0
    assert parse_report(out)["oracle_ratio"] == "1.000000"


def test_exact_oracle_reuses_the_optimum(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-two-sided", "--seed", "2", "--n", "12",
             "--out", str(path)], capsys)
    args = ["solve", "--in", str(path), "--algo", "exact", "--oracle"]
    _, plain, _ = run_cli(args[:-1], capsys)

    def second_solve(*args, **kwargs):
        raise AssertionError("the exact members are solved again")

    monkeypatch.setattr(graph_core, "exact_mds_size", second_solve)
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    fields = parse_report(out)
    assert fields.pop("oracle_ratio") == "1.000000"
    assert fields == parse_report(plain)


def test_solve_report_bytes(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("version 1\n"))
    code, out, _ = run_cli(
        ["solve", "--algo", "local-search", "--oracle", "--seed", "7"], capsys
    )
    assert code == 0
    assert out == (
        "algorithm local-search\ninstance frames=0 model=standard\nk 2\n"
        "members -\nn 0\noracle_ratio 1.000000\nseed 7\nsize 0\n"
    )


def test_solve_builds_each_graph_once(tmp_path, monkeypatch, capsys):
    anchored = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-two-sided", "--seed", "1", "--n", "6",
             "--out", str(anchored)], capsys)
    two_line = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "1", "--n", "6",
             "--out", str(two_line)], capsys)
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(graph_core, "build_intersection_graph",
                        counting(graph_core.build_intersection_graph))
    monkeypatch.setattr(permutation, "_line_orders", counting(permutation._line_orders))
    for path, algo in ((anchored, "greedy"), (anchored, "two-sided"), (two_line, "permutation")):
        calls.clear()
        code, _, _ = run_cli(["solve", "--in", str(path), "--algo", algo, "--oracle"], capsys)
        assert code == 0, algo
        assert calls.count("build_intersection_graph") == 1, algo
        assert calls.count("_line_orders") == (algo == "permutation"), algo


def test_each_call_builds_the_graph_and_runs_each_solver_once(tmp_path, monkeypatch, capsys):
    anchored = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "12",
             "--out", str(anchored)], capsys)
    two_line = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "1", "--n", "12",
             "--out", str(two_line)], capsys)
    graphs, calls = [], []
    build, exact, search = (graph_core.build_intersection_graph, graph_core.exact_mds,
                            local_search.local_search_mds)

    def counting_build(inst):
        graphs.append(build(inst))
        return graphs[-1]

    def counting_exact(*args, **kwargs):
        calls.append("exact_mds")
        return exact(*args, **kwargs)

    def counting_search(g, *args):
        # two-sided searches the graphs of its sides, which it builds itself
        if any(g is h for h in graphs):
            calls.append("local_search_mds")
        return search(g, *args)

    monkeypatch.setattr(graph_core, "build_intersection_graph", counting_build)
    monkeypatch.setattr(exchange, "build_intersection_graph", counting_build)
    monkeypatch.setattr(graph_core, "exact_mds", counting_exact)
    monkeypatch.setattr(local_search, "local_search_mds", counting_search)
    runs = [["render", "--in", str(two_line), "--algo", "permutation"],
            ["verify", "--kind", "exchange", "--seed", "1", "--n", "12"]]
    for algo in (None, "exact", "greedy", "local-search", "two-sided"):
        base = ["render", "--in", str(anchored)] + (["--algo", algo] if algo else [])
        runs += [base, base + ["--exchange"]]
    for args in runs:
        graphs.clear()
        calls.clear()
        code, _, _ = run_cli(args, capsys)
        assert code == 0, args
        assert len(graphs) <= 1, args
        assert calls.count("exact_mds") <= 1, args
        assert calls.count("local_search_mds") <= 1, args


def test_oracle_over_cap_builds_no_graph(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "1", "--n", "40",
             "--out", str(path)], capsys)
    calls = []
    build = graph_core.build_intersection_graph

    def counting(inst):
        calls.append(inst.n)
        return build(inst)

    monkeypatch.setattr(graph_core, "build_intersection_graph", counting)
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "permutation",
                              "--oracle"], capsys)
    assert code == 0
    assert "oracle_ratio" not in parse_report(out)
    assert err.startswith("oracle skipped: n=40 exceeds cap 32\n")
    assert calls == []


def test_oracle_follows_cap(tmp_path, capsys):
    path = tmp_path / "t.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "50",
             "--out", str(path)], capsys)
    for algo in ("exact", "greedy"):
        code, out, err = run_cli(["solve", "--in", str(path), "--algo", algo, "--oracle",
                                  "--cap", "50"], capsys)
        assert code == 0
        assert "oracle_ratio" in parse_report(out), algo
        assert "oracle skipped" not in err
    assert cli.main(["solve", "--in", str(path), "--oracle-cap", "50"]) == 1


def test_exact_solves_anchored_two_sided_2000_per_component(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-two-sided", "--seed", "1", "--n", "2000",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["solve", "--in", str(path), "--algo", "exact", "--cap", "2000"],
                           capsys)
    assert code == 0
    assert parse_report(out)["size"] == "718"


def test_solve_reads_stdin(monkeypatch, capsys):
    text = "version 1\nf1 0 0 3 3\nf2 1 -1 2 3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(["solve", "--algo", "exact"], capsys)
    assert code == 0
    assert parse_report(out)["size"] == "1"


def test_solve_model_override(monkeypatch, capsys):
    text = "version 1\nf1 0 0 3 3\nf2 1 -1 2 3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(["solve", "--algo", "exact", "--model", "edge"], capsys)
    assert code == 0
    # the crossing pair shares no grid edge, so both frames are needed
    assert parse_report(out)["size"] == "2"


def test_solve_edge_model_on_rectangles_is_exit_2(tmp_path, capsys):
    path = tmp_path / "rects.txt"
    path.write_text(emit_instance(gen_anchored_rects(1, 5)))
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", "greedy", "--model", "edge"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: edge model is defined for frames only\n"


def test_verify_kinds_pass(capsys):
    for kind in ("circle-diagonal", "circle-vertical", "sat", "vc", "eds"):
        code, out, _ = run_cli(["verify", "--kind", kind, "--seed", "4", "--n", "5"], capsys)
        assert code == 0, kind
        assert "ok true" in out
    code, out, _ = run_cli(["verify", "--kind", "exchange", "--seed", "8", "--n", "10"], capsys)
    assert code == 0
    assert "ok true" in out
    assert "crossings 0" in out


def test_verify_kinds_are_the_reduction_table_then_exchange():
    # the CLI keeps its own literal, so start-up never loads reductions;
    # the order shows in --help and in argparse's errors
    import lframes.reductions as reductions

    assert cli._VERIFY_KINDS == (*reductions._KINDS, "exchange")


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(exchange, "check_local_exchange", lambda h, g: False)
    code, out, _ = run_cli(["verify", "--kind", "exchange", "--seed", "8", "--n", "10"], capsys)
    assert code == 3
    assert "ok false" in out


def test_render_instance(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "6", "--n", "6",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["render", "--in", str(path), "--algo", "exact"], capsys)
    assert code == 0
    assert out.startswith("<svg ")
    assert out.count("<polyline") == 6


@pytest.mark.parametrize("xs", [(0, 10**400), (-10**307, 10**307)], ids=["overflow", "inf-canvas"])
def test_render_beyond_float_range_is_exit_2(xs, tmp_path, capsys):
    # a coordinate no float holds, and a canvas wider than the float range
    path = tmp_path / "far.txt"
    path.write_text("version 1\n" + "".join(f"f{i} {x} 0 3 3\n" for i, x in enumerate(xs)))
    code, _, _ = run_cli(["solve", "--in", str(path), "--algo", "greedy"], capsys)
    assert code == 0
    code, out, err = run_cli(["render", "--in", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: cannot draw: coordinates and canvas size must be finite floats\n"


def test_render_exchange_overlay(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "16", "--n", "12",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["render", "--in", str(path), "--exchange"], capsys)
    assert code == 0
    assert out.startswith("<svg ")


def test_usage_error_is_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["solve", "--algo", "quantum"]) == 1
    assert cli.main(["frobnicate"]) == 1


def test_help_is_exit_0(capsys):
    assert cli.main(["--help"]) == 0


def test_parse_error_is_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not an instance\n"))
    assert cli.main(["solve"]) == 2


def test_validation_error_is_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("version 1\nf1 0 0 0 3\n"))
    assert cli.main(["solve"]) == 2


def test_missing_input_file_is_exit_2(tmp_path):
    missing = tmp_path / "missing.txt"
    for args in (["solve", "--in", str(missing)], ["render", "--in", str(missing)]):
        res = run_proc(args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error: cannot read"), res.stderr
        assert "Traceback" not in res.stderr


@pytest.mark.skipif(codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
                    reason="the message names the UTF-8 codec")
def test_undecodable_input_file_is_exit_2(tmp_path, capsys):
    # the file is decoded as it is read: the decoder's message counts its
    # position from the start of the chunk it was decoding, and a bad
    # record before the bad bytes is reported first
    path = tmp_path / "bad.txt"
    path.write_bytes(b"version 1\nf1 0 0 3 3\n\xff\n")
    code, out, err = run_cli(["solve", "--in", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte\n"
    records = "".join(f"f{k} {k} 0 3 3\n" for k in range(2, 20_000))
    path.write_bytes(b"version 1\nf1 0 0 3 x\n" + records.encode() + b"\xff\n")
    code, out, err = run_cli(["solve", "--in", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 2: expected integer, got 'x'\n"


def test_stdin_reads_as_the_file_does(tmp_path):
    # more than one block, through a real stdin
    path = tmp_path / "t.txt"
    path.write_text(emit_instance(gen_two_line(3, 3000)))
    args = [sys.executable, "-m", "lframes.cli", "solve", "--algo", "permutation", "--in"]
    by_path = subprocess.run(args + [str(path)], capture_output=True, text=True)
    with open(path) as file:
        by_stdin = subprocess.run(args + ["-"], stdin=file, capture_output=True, text=True)
    assert by_path.returncode == by_stdin.returncode == 0
    assert by_stdin.stdout == by_path.stdout
    assert parse_report(by_stdin.stdout)["n"] == "3000"


def test_unwritable_output_is_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["generate", "--family", "two-line", "--seed", "1", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: cannot write")


TWO_LINE = "version 1\nvline 0\nhline 0\nf1 -3 2 5 -4\nf2 -2 3 4 -4\n"
# anchored rectangles that also carry the two reference lines; exchange
# drawings on seed 1 have arcs, which read frame corners
RECTS = emit_instance(gen_anchored_rects(1, 30)).replace(
    "diagonal 60\n", "diagonal 60\nvline 0\nhline 0\n"
)


@pytest.mark.parametrize(
    "args, text, message",
    [
        # SourceTooLarge
        (["verify", "--kind", "circle-diagonal", "--seed", "1", "--n", "13"], None,
         "13 chords is beyond exhaustive reach"),
        # NotAnchored
        (["solve", "--algo", "two-sided"], TWO_LINE, "instance has no diagonal"),
        # DegenerateOrder
        (["solve", "--algo", "permutation"],
         "version 1\nvline 0\nhline 0\nf1 -3 2 5 -4\nf2 -2 2 4 -4\n",
         "tied vertical-line crossings at y=2"),
        # DegeneratePosition: f2 and f3 share their anchor on the diagonal
        (["render", "--exchange"],
         "version 1\ndiagonal 12\nf1 7 5 7 1\nf2 4 8 -11 -12\nf3 4 8 6 1\nf4 10 2 1 7\n",
         "frames 'f2' and 'f3' share corner x"),
        # ValueError from the exchange drawing
        (["render", "--exchange"], "version 1\nf1 0 12 3 3\n", "instance has no diagonal"),
        # NotTwoLineCrossing on rectangles
        pytest.param(["solve", "--algo", "permutation"], RECTS,
                     "two-line conversion requires a frame instance", id="rects-permutation"),
        # ValueError from the exchange graph on rectangles
        pytest.param(["render", "--exchange"], RECTS,
                     "exchange graphs are defined on frame instances", id="rects-exchange"),
        # NotAnchored from a rectangle the diagonal cuts
        pytest.param(["solve", "--algo", "two-sided"],
                     "version 1\nkind rects\ndiagonal 3\nr1 0 0 2 2\n",
                     "rect 'r1' is not anchored at x+y=3", id="rects-two-sided-unanchored"),
    ],
)
def test_error_exit_code_contract(args, text, message, monkeypatch, capsys):
    if text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (RECTS, "exchange graphs are defined on frame instances"),
        (emit_instance(gen_two_line(1, 40)), "instance has no diagonal"),
    ],
    ids=["rects", "no-diagonal"],
)
def test_render_exchange_refuses_before_solving(text, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.txt"
    path.write_text(text)

    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(graph_core, "build_intersection_graph", refuse)
    monkeypatch.setattr(graph_core, "exact_mds", refuse)
    for algo in ([], ["--algo", "local-search"], ["--algo", "exact"]):
        code, out, err = run_cli(["render", "--in", str(path), "--exchange", "--cap", "40",
                                  *algo], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), algo


def _two_line_text(*records, lines="vline 0\nhline 0\n"):
    return "version 1\n" + lines + "".join(f"{r}\n" for r in records)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_two_line_text("f1 -3 2 5 -4", "f2 -2 3 4 4", "f3 -1 4 -4 -5"),
                     "frame 'f2' is not oriented toward both lines", id="misoriented-first-named"),
        pytest.param(_two_line_text("f1 -3 2 5 -4", "f2 -2 3 1 -4"),
                     "frame 'f2' misses the vertical line", id="misses-vline"),
        pytest.param(_two_line_text("f1 -3 2 5 -4", "f2 -2 3 4 -2"),
                     "frame 'f2' misses the horizontal line", id="misses-hline"),
        pytest.param(_two_line_text("f1 -3 5 4 -6", "f2 -2 5 3 -6", "f3 -4 2 5 -3", "f4 -1 2 2 -3"),
                     "tied vertical-line crossings at y=2", id="two-y-ties-smallest"),
        pytest.param(_two_line_text("f1 -3 4 4 -5", "f2 -3 6 4 -7", "f3 -2 7 3 -8", "f4 -1 7 2 -8"),
                     "tied vertical-line crossings at y=7", id="y-tie-before-x-tie"),
        pytest.param(_two_line_text("f1 -1 4 2 -5", "f2 -1 6 2 -7", "f3 -5 7 6 -8", "f4 -5 3 6 -4"),
                     "tied horizontal-line crossings at x=-5", id="two-x-ties-smallest"),
        pytest.param(RECTS, "two-line conversion requires a frame instance", id="rects"),
        pytest.param(_two_line_text("f1 -3 2 5 -4", lines="hline 0\n"),
                     "instance has no vertical line", id="no-vline"),
        pytest.param(_two_line_text("f1 -3 2 5 -4", lines="vline 0\n"),
                     "instance has no horizontal line", id="no-hline"),
    ],
)
def test_two_line_validation_order(text, message, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(["solve", "--algo", "permutation"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_permutation_refuses_the_edge_model(tmp_path, capsys):
    # frames that only cross share no grid edge, so on the edge model the
    # permutation reading would answer for the wrong graph: solve, its
    # oracle and render all exit 2, from a --model override or the header
    path = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "3", "--n", "30",
             "--out", str(path)], capsys)
    edge = tmp_path / "edge.txt"
    edge.write_text(path.read_text().replace("model standard\n", "model edge\n"))
    for args in (["solve", "--in", str(path), "--algo", "permutation", "--model", "edge"],
                 ["solve", "--in", str(edge), "--algo", "permutation", "--oracle"],
                 ["render", "--in", str(edge), "--algo", "permutation"]):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert out == ""
        assert err == "error: two-line conversion requires the standard model\n"
    code, out, _ = run_cli(["solve", "--in", str(edge), "--algo", "exact"], capsys)
    assert code == 0
    assert parse_report(out)["size"] == "30"


def test_two_line_members_survive_a_huge_shift(tmp_path, capsys):
    # coordinates beyond 64 bits: shifting every corner and both lines by
    # the same offset leaves the crossing orders, so the members, unchanged
    path = tmp_path / "t.txt"
    run_cli(["generate", "--family", "two-line", "--seed", "5", "--n", "60",
             "--out", str(path)], capsys)
    shift = 2**70
    lines = []
    for line in path.read_text().splitlines():
        key, *fields = line.split()
        if key in ("vline", "hline"):
            line = f"{key} {int(fields[0]) + shift}"
        elif key.startswith("f"):
            x, y, h, v = map(int, fields)
            line = f"{key} {x + shift} {y + shift} {h} {v}"
        lines.append(line)
    shifted = tmp_path / "shifted.txt"
    shifted.write_text("\n".join(lines) + "\n")
    _, plain, _ = run_cli(["solve", "--in", str(path), "--algo", "permutation"], capsys)
    code, moved, _ = run_cli(["solve", "--in", str(shifted), "--algo", "permutation"], capsys)
    assert code == 0
    assert parse_report(moved)["members"] == parse_report(plain)["members"]
    assert parse_report(moved)["instance"] == f"frames=60 model=standard vline={shift} hline={shift}"


def test_two_line_commands_build_no_lframe(tmp_path):
    # generate and solve read and write the frame columns only
    path = tmp_path / "t.txt"
    script = (
        "import lframes.geometry as geometry\n"
        "def refuse(self, *args, **kwargs):\n"
        "    raise AssertionError('an LFrame was built')\n"
        "geometry.LFrame.__init__ = refuse\n"
        "from lframes.cli import main\n"
        f"assert main(['generate', '--family', 'two-line', '--seed', '3', '--n', '200',"
        f" '--out', {str(path)!r}]) == 0\n"
        f"assert main(['solve', '--in', {str(path)!r}, '--algo', 'permutation']) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert parse_report(proc.stdout)["n"] == "200"


def test_verify_exchange_takes_cap(capsys):
    args = ["verify", "--kind", "exchange", "--n", "40", "--seed", "1"]
    code, out, _ = run_cli(args + ["--cap", "40"], capsys)
    assert code == 0
    assert parse_report(out)["ok"] == "true"


def test_verify_exchange_default_cap_is_exit_2(capsys):
    code, out, err = run_cli(["verify", "--kind", "exchange", "--n", "40", "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: 40 vertices exceeds cap 32\n"


def test_render_exchange_takes_cap(tmp_path, capsys):
    path = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "40",
             "--out", str(path)], capsys)
    code, _, err = run_cli(["render", "--in", str(path), "--exchange"], capsys)
    assert code == 2
    assert err == "error: 40 vertices exceeds cap 32\n"
    code, out, _ = run_cli(["render", "--in", str(path), "--exchange", "--cap", "40"], capsys)
    assert code == 0
    assert out.startswith("<svg")


def _refuse(*args, **kwargs):
    raise AssertionError("called past a refusing check")


def test_exchange_checks_cap_before_local_search(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "40",
             "--out", str(path)], capsys)
    monkeypatch.setattr(local_search, "local_search_mds", _refuse)
    for args in (["verify", "--kind", "exchange", "--n", "40", "--seed", "1"],
                 ["render", "--in", str(path), "--exchange"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (2, "", "error: 40 vertices exceeds cap 32\n")


def test_exchange_refuses_past_cap_before_any_work(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "40",
             "--out", str(path)], capsys)
    monkeypatch.setattr(cli, "gen_anchored_one_sided", _refuse)
    monkeypatch.setattr(graph_core, "build_intersection_graph", _refuse)
    for args, n in ((["verify", "--kind", "exchange", "--n", "100000", "--seed", "1"], 100000),
                    (["render", "--in", str(path), "--exchange"], 40),
                    (["render", "--in", str(path), "--exchange", "--algo", "greedy"], 40)):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (2, "", f"error: {n} vertices exceeds cap 32\n"), args


def test_verify_exchange_reads_the_frame_columns(monkeypatch, capsys):
    built = []
    init = geometry.LFrame.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(geometry.LFrame, "__init__", counting_init)
    code, out, _ = run_cli(["verify", "--kind", "exchange", "--seed", "1", "--n", "60",
                            "--cap", "60"], capsys)
    assert (code, parse_report(out)["arcs"], built) == (0, "6", [])


def test_exact_refuses_past_cap_before_building_the_graph(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "20",
             "--out", str(path)], capsys)
    monkeypatch.setattr(graph_core, "build_intersection_graph", _refuse)
    for cmd in ("solve", "render"):
        args = [cmd, "--in", str(path), "--algo", "exact", "--cap", "8"]
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (2, "", "error: 20 vertices exceeds cap 8\n"), args


@pytest.mark.parametrize("kind, n, message", [
    ("circle-diagonal", 13, "13 chords is beyond exhaustive reach"),
    ("vc", 800, "800 vertices / 162073 frames is beyond exhaustive reach"),
])
def test_verify_checks_reach_before_building_the_reduction(kind, n, message, monkeypatch, capsys):
    import lframes.reductions as reductions

    for name in ("circle_to_diagonal", "circle_to_vertical", "monotone3sat_to_lframes",
                 "vc_to_epg", "eds_to_epg"):
        monkeypatch.setattr(reductions, name, _refuse)
    code, out, err = run_cli(["verify", "--kind", kind, "--seed", "1", "--n", str(n)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_help_states_reach_and_cap_scope(capsys):
    assert cli.main(["verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for limit in ("at most 12 chords", "at most 16 variables and 64 frames",
                  "at most 16 vertices and 64 frames", "at most 16 edges",
                  "exact solver of --kind exchange; the reduction kinds ignore it"):
        assert limit in text


def test_error_exit_has_no_traceback(tmp_path):
    path = tmp_path / "two_line.txt"
    path.write_text(TWO_LINE)
    res = run_proc(["solve", "--in", str(path), "--algo", "two-sided"])
    assert res.returncode == 2
    assert res.stderr == "error: instance has no diagonal\n"
    assert "Traceback" not in res.stderr
    rects = tmp_path / "rects.txt"
    rects.write_text(RECTS)
    res = run_proc(["render", "--in", str(rects), "--exchange"])
    assert res.returncode == 2
    assert res.stderr == "error: exchange graphs are defined on frame instances\n"


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_two_sided_dominates_anchored_rects(seed, tmp_path, capsys):
    inst = gen_anchored_rects(seed, 30)
    path = tmp_path / "rects.txt"
    path.write_text(emit_instance(inst))
    code, out, _ = run_cli(["solve", "--in", str(path), "--algo", "two-sided"], capsys)
    assert code == 0
    index = {r.id: i for i, r in enumerate(inst.rects)}
    members = [index[rid] for rid in parse_report(out)["members"].split()]
    assert brute_is_dominating(inst.n, pairwise_edges(inst), members)


def test_exact_over_cap_is_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "0", "--n", "9",
             "--out", str(path)], capsys)
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "exact", "--cap", "8"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: 9 vertices exceeds cap 8")


def test_wrong_family_for_algorithm_is_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "0", "--n", "5",
             "--out", str(path)], capsys)
    assert cli.main(["solve", "--in", str(path), "--algo", "permutation"]) == 2


def test_subprocess_runs_match(tmp_path):
    # end-to-end determinism through a real process boundary
    args = ["generate", "--family", "anchored-two-sided", "--seed", "21", "--n", "9"]
    a = run_proc(args)
    b = run_proc(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    path = tmp_path / "inst.txt"
    path.write_text(a.stdout)
    sa = run_proc(["render", "--in", str(path), "--algo", "two-sided"])
    sb = run_proc(["render", "--in", str(path), "--algo", "two-sided"])
    assert sa.returncode == sb.returncode == 0
    assert sa.stdout == sb.stdout


def test_main_leaves_the_collector_as_it_is(capsys):
    before = gc.get_freeze_count()
    run_cli(["generate", "--family", "anchored-one-sided", "--seed", "1", "--n", "8"], capsys)
    run_cli(["verify", "--kind", "sat", "--seed", "1"], capsys)
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("args, expected", [
    (["generate", "--family", "anchored-one-sided", "--seed", "2", "--n", "8"], 0),
    (["solve", "--in", "no-such-file.txt"], 2),
])
def test_exit_function_freezes_the_heap_and_runs_exit_handlers(args, expected, capsys):
    # the handler reports on stderr after the CLI's own lines, so stdout
    # stays the CLI's; a process ended by os._exit would not print it
    script = (
        "import atexit, gc, sys\n"
        "import lframes.cli as cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.exit(cli.run())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    code, out, _ = run_cli(args, capsys)
    assert proc.returncode == code == expected
    assert proc.stdout == out
    word, count = proc.stderr.splitlines()[-1].split()
    assert word == "frozen" and int(count) > 0


def test_graph_solvers_start_without_numpy():
    # the graph commands import no numpy
    script = (
        "import sys\n"
        "import lframes.cli\n"
        "from lframes.generators import gen_anchored_one_sided, gen_anchored_two_sided,"
        " reduction_certificate\n"
        "from lframes.graph_core import build_intersection_graph, exact_mds, greedy_mds\n"
        "from lframes.local_search import LocalSearchConfig, approx_two_sided, local_search_mds\n"
        "from lframes.reductions import verify_equivalence\n"
        "g = build_intersection_graph(gen_anchored_one_sided(1, 20))\n"
        "greedy_mds(g)\n"
        "exact_mds(g)\n"
        "local_search_mds(g, LocalSearchConfig(k=2))\n"
        "approx_two_sided(gen_anchored_two_sided(1, 20), 2)\n"
        "assert verify_equivalence(reduction_certificate('vc', 1, 6)).ok\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _loaded_modules(args):
    """The lframes modules one CLI call leaves loaded, by short name, run in
    a fresh process, plus ``dataclasses`` and ``inspect`` if it loaded them."""
    script = (
        "import contextlib, io, sys\n"
        "from lframes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m[8:] for m in sys.modules if m.startswith('lframes.')),\n"
        "      *(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0", (args, proc.stderr)
    return set(modules)


def test_each_command_loads_only_what_it_runs(tmp_path):
    # the record classes are plain classes, so no call loads dataclasses or
    # the inspect module that it imports
    std = {"dataclasses", "inspect"}
    path = tmp_path / "a.txt"
    path.write_text(emit_instance(gen_anchored_one_sided(1, 12)))
    loaded = _loaded_modules(["solve", "--in", str(path), "--algo", "greedy"])
    assert "graph_core" in loaded
    assert not loaded & {"reductions", "exchange", "local_search", "permutation", "svg", *std}
    loaded = _loaded_modules(["verify", "--kind", "sat", "--seed", "1"])
    assert "reductions" in loaded
    assert not loaded & {"permutation", "svg", "exchange", "local_search", *std}
    loaded = _loaded_modules(["generate", "--family", "anchored-one-sided", "--seed", "1"])
    assert not loaded & {"reductions", "graph_core", *std}
    two_line = tmp_path / "t.txt"
    two_line.write_text(emit_instance(gen_two_line(1, 40)))
    loaded = _loaded_modules(["solve", "--in", str(two_line), "--algo", "permutation"])
    assert "permutation" in loaded
    assert not loaded & {"graph_core", "reductions", "exchange", "local_search", "svg", *std}
    calls = [["solve", "--in", str(path), "--algo", a] for a in ("exact", "local-search", "two-sided")]
    calls += [["verify", "--kind", kind, "--seed", "1"] for kind in cli._VERIFY_KINDS if kind != "sat"]
    calls.append(["render", "--in", str(path), "--exchange", "--out", str(tmp_path / "x.svg")])
    for args in calls:
        assert not _loaded_modules(args) & std, args


def test_no_command_loads_numpy(tmp_path):
    # with numpy made unimportable, the two-line path and the exchange check
    # still exit 0 and print what an unrestricted run prints
    path = tmp_path / "two-line.txt"
    generate = ["generate", "--family", "two-line", "--seed", "3", "--n", "40"]
    path.write_text(run_proc(generate).stdout)
    blocked = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from lframes.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for args in (
        generate,
        ["solve", "--in", str(path), "--algo", "permutation"],
        ["render", "--in", str(path), "--algo", "permutation"],
        ["verify", "--kind", "exchange", "--n", "30", "--seed", "1"],
    ):
        plain = run_proc(args)
        proc = subprocess.run([sys.executable, "-c", blocked, *args],
                              capture_output=True, text=True)
        assert plain.returncode == 0, plain.stderr
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout == plain.stdout, args


def test_large_k_warning_is_one_plain_line(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(emit_instance(gen_anchored_one_sided(1, 8)))
    res = run_proc(["solve", "--in", str(path), "--algo", "local-search", "--k", "4"])
    assert res.returncode == 0
    assert parse_report(res.stdout)["k"] == "4"
    first, *rest = res.stderr.splitlines()
    assert first == "warning: k=4: swap enumeration is exponential in k"
    assert [line.split()[0] for line in rest] == ["wall_time_s"]
