"""CLI bytes pinned across commits.

A fixed matrix of calls runs through ``cli.main`` in one process. Each call
is recorded in ``cli_golden.txt`` as its exit code, the sha256 of its
stdout (the SVG drawings included) and the sha256 of its stderr without the
``wall_time_s`` line, so a change that moves any reported byte fails here.
After a deliberate change of output, record the file again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import lframes.cli as cli
from lframes.generators import FAMILIES

GOLDEN = Path(__file__).with_name("cli_golden.txt")
SOLVERS = ("exact", "greedy", "local-search", "two-sided", "permutation")
VERIFY_KINDS = ("circle-diagonal", "circle-vertical", "sat", "vc", "eds", "exchange")


def _matrix():
    """(instance file name or None, argv) per call, each instance generated
    before the calls that read it."""
    for family in sorted(FAMILIES):
        n = "4" if family == "vc-epg" else "8"  # exact stays small on vc-epg
        for seed in (1, 2):
            name = f"{family}-{seed}.txt"
            yield name, ["generate", "--family", family, "--seed", str(seed), "--n", n]
            for algo in SOLVERS:
                yield None, ["solve", "--in", name, "--algo", algo, "--oracle", "--cap", "40"]
            yield None, ["render", "--in", name, "--algo", "exact", "--exchange", "--cap", "40"]
    for kind in VERIFY_KINDS:
        for seed in (1, 2, 3):
            yield None, ["verify", "--kind", kind, "--seed", str(seed)]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _record(workdir: Path) -> list:
    """One line per call: exit code, stdout and stderr digests, argv."""
    lines = []
    for out_name, argv in _matrix():
        real = [str(workdir / a) if a.endswith(".txt") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(real)
        if out_name is not None:
            (workdir / out_name).write_text(out.getvalue())
        kept = "".join(
            line for line in err.getvalue().splitlines(keepends=True)
            if not line.startswith("wall_time_s ")
        )
        lines.append(f"{code} {_sha(out.getvalue())} {_sha(kept)} {' '.join(argv)}")
    return lines


def test_cli_bytes_match_the_recorded_matrix(tmp_path):
    expected = GOLDEN.read_text().splitlines()
    got = _record(tmp_path)
    assert len(got) == len(expected) == 130
    changed = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("\n".join(_record(Path(tmp))) + "\n")
