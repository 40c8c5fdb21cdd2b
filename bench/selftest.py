"""Self-test of the benchmark's checker and input generation.

    python3 bench/selftest.py

Checks that the checker rejects a set that does not dominate and an exact
answer of the wrong size, that the reference rules for the structured
two-line inputs agree with brute force at small sizes, and that set-up is a
function of the seed: the same seed gives byte-identical input files and
another seed gives different ones.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lframes.generators import generate  # noqa: E402
from lframes.instance_io import emit_instance  # noqa: E402


def _workdir() -> Path:
    run.WORK.mkdir(parents=True, exist_ok=True)
    return run.WORK


def _instance(inst) -> dict:
    return checker.parse_instance_text(emit_instance(inst))


class CheckerRejects(unittest.TestCase):
    def test_non_dominating_two_line_set(self):
        rng = random.Random(3)
        inst = _instance(workloads.two_line_instance(workloads.grid_transpose(4, 5), rng))
        ids = [r[0] for r in inst["records"]]
        with self.assertRaises(checker.CheckError):
            checker.check_solution(inst, ids[:1])
        checker.check_solution(inst, ids)

    def test_non_dominating_geometric_set(self):
        inst = _instance(generate("anchored-one-sided", 5, 30))
        ids = [r[0] for r in inst["records"]]
        with self.assertRaises(checker.CheckError):
            checker.check_solution(inst, ids[:2])
        checker.check_solution(inst, ids)

    def test_wrong_size_exact_answer(self):
        inst = _instance(workloads.two_line_instance(workloads.grid_transpose(5, 5),
                                                     random.Random(1)))
        ids = [r[0] for r in inst["records"]]
        # the whole vertex set dominates but is not of optimum size
        with self.assertRaises(checker.CheckError):
            checker.check_solution(inst, ids, rule="grid-transpose")

    def test_malformed_report(self):
        inst = _instance(generate("anchored-one-sided", 5, 10))
        with self.assertRaises(checker.CheckError):
            checker.check_solve_output(inst, "algorithm greedy\nsize 3\nmembers f1\n", "greedy")


class ReferenceRules(unittest.TestCase):
    """The optimum rules agree with brute force where brute force reaches."""

    def _brute(self, pi):
        return checker._brute_force_mds(tuple(v - 1 for v in pi))

    def test_grid_transpose(self):
        for a, b in [(3, 3), (3, 4), (4, 3)]:
            self.assertEqual(self._brute(workloads.grid_transpose(a, b)), 4)

    def test_block_reversal(self):
        rng = random.Random(7)
        for _ in range(20):
            pi = workloads.block_reversal(12, rng, 1, 5)
            self.assertEqual(checker._complete_multipartite(pi), self._brute(pi))

    def test_noisy_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            pi = workloads.noisy_identity(12, rng, 6, 0.7)
            self.assertEqual(checker._componentwise(pi), self._brute(pi))


class SeededInputs(unittest.TestCase):
    def _set_up(self, seed: int, where: Path):
        wl = workloads.make_workload("anchored-solvers", seed)
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        run.set_up(wl, seed, where, env)
        return wl

    def test_same_seed_same_files_other_seed_other_files(self):
        with tempfile.TemporaryDirectory(dir=_workdir()) as tmp:
            tmp = Path(tmp)
            wl = self._set_up(11, tmp / "a")
            self._set_up(11, tmp / "b")
            self.assertTrue(run.same_inputs(tmp / "a", tmp / "b", wl))
            other = self._set_up(12, tmp / "c")
            self.assertNotEqual(sorted(p.read_bytes() for p in (tmp / "a").glob("*.txt")),
                                sorted(p.read_bytes() for p in (tmp / "c").glob("*.txt")))
            self.assertEqual(len(run.input_files(other)), len(run.input_files(wl)))

    def test_builds_are_seeded(self):
        wl = workloads.make_workload("two-line-scan", 5)
        with tempfile.TemporaryDirectory(dir=_workdir()) as tmp:
            tmp = Path(tmp)
            for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
                (tmp / sub).mkdir()
                workloads.emit_builds(wl, seed, tmp / sub)
            for name, *_ in wl.builds:
                a, b, c = ((tmp / s / name).read_bytes() for s in "abc")
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
