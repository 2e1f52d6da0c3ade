"""The benchmark's output checks accept real output and reject corrupted output.

Each test runs the CLI on a small input, makes sure the checker accepts the
real output, then feeds it deliberately corrupted copies.  Run from anywhere
in a checkout:

    python3 perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import tempfile
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spidernets import cli  # noqa: E402


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, f"spidernets {' '.join(argv)} exited {code}"
    return out.getvalue()


def replace_row(stdout: str, name: str, new_value: str) -> str:
    lines = stdout.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(name + ": "):
            lines[i] = f"{name}: {new_value}"
    return "\n".join(lines)


def row(stdout: str, name: str) -> str:
    return next(line for line in stdout.split("\n") if line.startswith(name + ": ")).split(": ", 1)[1]


class CheckTest(unittest.TestCase):
    def assert_rejected(self, check, *args):
        with self.assertRaises(checks.CheckError):
            check(*args)


class VerifyTest(CheckTest):
    def test_count_and_mismatch_lines(self):
        points = checks.grid_points(3, 2, 2, 100)
        out = run_cli("verify", "--Mmax", "3", "--Kmax", "2", "--Lmax", "2", "--cap", "100")
        checks.check_verify(out, points)
        self.assert_rejected(checks.check_verify, out.replace(str(len(points)), str(len(points) - 1)), points)
        self.assert_rejected(checks.check_verify, "MISMATCH M=2 K=1 L=1 delta\n" + out, points)


class ReportBothTest(CheckTest):
    shape = (3, 2, 2)

    def setUp(self):
        self.out = run_cli("report", "-M", "3", "-K", "2", "-L", "2", "--source", "both")
        self.oracle = checks.bfs_indicators(*self.shape)

    def test_real_output_passes(self):
        checks.check_report_both(self.out, self.shape, self.oracle)

    def test_mismatch_flag_rejected(self):
        corrupted = self.out.replace("[MATCH]", "[MISMATCH]", 1)
        self.assert_rejected(checks.check_report_both, corrupted, self.shape, self.oracle)

    def test_wrong_value_under_match_rejected(self):
        corrupted = replace_row(self.out, "diameter", "4  [MATCH]")
        self.assert_rejected(checks.check_report_both, corrupted, self.shape, self.oracle)


class ReportClosedTest(CheckTest):
    shape = (2, 3, 4)

    def setUp(self):
        self.out = run_cli("report", "-M", "2", "-K", "3", "-L", "4", "--source", "closed")

    def test_real_output_passes(self):
        checks.check_report_closed(self.out, self.shape)

    def test_corruptions_rejected(self):
        delta = row(self.out, "delta").split()
        gamma = row(self.out, "gamma").split()
        alpha = row(self.out, "alpha").split()
        corruptions = {
            "delta out of order": replace_row(self.out, "delta", " ".join(delta[1:] + delta[:1])),
            "gamma sum": replace_row(self.out, "gamma", " ".join([str(int(gamma[0]) + 1)] + gamma[1:])),
            "alpha length": replace_row(self.out, "alpha", " ".join(alpha[:-1])),
            "alpha moved": replace_row(self.out, "alpha", " ".join([alpha[1], alpha[0]] + alpha[2:])),
            "diameter": replace_row(self.out, "diameter", "8"),
            "mean distance": replace_row(self.out, "mean-distance", "1/1"),
            "density": replace_row(self.out, "density", "1/2"),
            "h-index": replace_row(self.out, "h-index", "3"),
            "header": self.out.replace("nodes: 26", "nodes: 25"),
        }
        for name, corrupted in corruptions.items():
            with self.subTest(name):
                self.assertNotEqual(corrupted, self.out)
                self.assert_rejected(checks.check_report_closed, corrupted, self.shape)

    def test_degree_multiset_rejected(self):
        # 4 4 2 2 ... becomes 4 3 3 2 ...: same length, sum and order.
        delta = [int(d) for d in row(self.out, "delta").split()]
        delta[1] -= 1
        delta[2] += 1
        corrupted = replace_row(self.out, "delta", " ".join(map(str, delta)))
        self.assert_rejected(checks.check_report_closed, corrupted, self.shape)


class VerdictTableTest(CheckTest):
    def test_table(self):
        out = run_cli("asymptotics", "--all")
        checks.check_verdict_table(out)
        flipped = out.replace("ultra-small world (C=0)", "not a small world (ratio -> +inf)", 1)
        self.assert_rejected(checks.check_verdict_table, flipped)
        self.assert_rejected(checks.check_verdict_table, "\n".join(out.split("\n")[1:]))


class CellTest(CheckTest):
    steps = list(range(2, 12))

    def cell(self, notion: str, vary: str, fixed: dict[str, int]):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cell.csv")
            out = run_cli("asymptotics", "--notion", notion, "--vary", vary,
                          "--fix", ",".join(f"{k}={v}" for k, v in fixed.items()),
                          "--steps", ",".join(map(str, self.steps)), "--out-csv", path)
            with open(path, encoding="utf-8") as fh:
                csv = fh.read()
        return out, csv

    def check(self, out, csv, notion, vary, fixed):
        checks.check_cell(out, csv, notion, vary, fixed, self.steps)

    def test_cells(self):
        for notion, vary, fixed in (("DSWA", "K", {"M": 3, "L": 2}), ("SWA", "L", {"M": 2, "K": 3})):
            with self.subTest(notion):
                out, csv = self.cell(notion, vary, fixed)
                self.check(out, csv, notion, vary, fixed)
                lines = csv.split("\n")
                step, n, numerator, ln_n, ratio = lines[1].split(",")
                p, q = map(int, numerator.split("/"))
                corruptions = {
                    "numerator": f"{step},{n},{p + 1}/{q},{ln_n},{ratio}",
                    "N": f"{step},{int(n) + 1},{numerator},{ln_n},{ratio}",
                    "ratio": f"{step},{n},{numerator},{ln_n},{float(ratio) * 1.01:.6g}",
                }
                for name, bad in corruptions.items():
                    corrupted = "\n".join([lines[0], bad] + lines[2:])
                    with self.subTest(f"{notion} {name}"):
                        self.assert_rejected(self.check, out, corrupted, notion, vary, fixed)
                self.assert_rejected(self.check, out, "\n".join(lines[:-2] + [""]), notion, vary, fixed)
                wrong_verdict = out.replace("world", "world!")
                self.assert_rejected(self.check, wrong_verdict, csv, notion, vary, fixed)

    def test_swa_numerator_checked_beyond_the_first_steps(self):
        notion, vary, fixed = "SWA", "L", {"M": 2, "K": 3}
        out, csv = self.cell(notion, vary, fixed)
        lines = csv.split("\n")
        # Step 6 is the fifth row; the bound [1, diameter] still holds.
        step, n, numerator, ln_n, ratio = lines[5].split(",")
        self.assertEqual(step, "6")
        p, q = map(int, numerator.split("/"))
        lines[5] = f"{step},{n},{p + 1}/{q},{ln_n},{float(Fraction(p + 1, q)) / math.log(int(n)):.6g}"
        self.assert_rejected(self.check, out, "\n".join(lines), notion, vary, fixed)


class OrbitBfsTest(unittest.TestCase):
    def test_equals_bfs_from_every_node(self):
        for shape in ((1, 1, 1), (1, 4, 3), (3, 1, 1), (2, 3, 4), (4, 0, 2), (5, 2, 0)):
            with self.subTest(shape):
                self.assertEqual(checks.orbit_mean_distance(*shape),
                                 checks.bfs_indicators(*checks.normalized(*shape))["mean-distance"])


class FakeWorker:
    """Answers every call with one exit code and stdout."""

    def __init__(self, code, stdout):
        self.reply = {"code": code, "stdout": stdout, "stderr": "", "raw_s": 1.0, "scaled_s": 1.0,
                      "speeds": [1.0, 1.0]}

    def request(self, **request):
        return dict(self.reply)


class RunTest(unittest.TestCase):
    points = checks.grid_points(3, 2, 2, 100)

    def attempt(self, code, stdout):
        bench = run.Run(FakeWorker(code, stdout))
        call = run.Call(["verify"], lambda out, _: checks.check_verify(out, self.points))
        with contextlib.redirect_stderr(io.StringIO()):
            bench.attempt(run.Op([call], 1), [("plain", False), ("spans", False)])
        return run.result(bench, {})

    def test_passing_operation_is_correct(self):
        summary = self.attempt(0, f"{len(self.points)} parameter points verified\n")
        self.assertEqual((summary["correct"], summary["attempted"], summary["failed"]), (True, 1, 0))

    def test_nonzero_exit_is_incorrect(self):
        # verify reports a mismatch by exiting 1, before any check sees its output.
        summary = self.attempt(1, "MISMATCH M=2 K=1 L=1 delta\n")
        self.assertEqual((summary["correct"], summary["attempted"], summary["failed"]), (False, 1, 1))

    def test_rejected_output_is_incorrect(self):
        summary = self.attempt(0, "0 parameter points verified\n")
        self.assertEqual((summary["correct"], summary["attempted"], summary["failed"]), (False, 1, 1))


if __name__ == "__main__":
    unittest.main()
