#!/usr/bin/env python3
"""Unit tests for the benchmark regression gate (benchcompare.py) and
the raw samples benchjson.py records for it.

Run from the repository root: python3 -m unittest discover -s scripts -p '*_test.py'
"""
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchcompare  # noqa: E402
import benchjson  # noqa: E402

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "benchcompare.py")


def entry(samples, allocs=None):
    """An artifact entry as benchjson.py merges it from raw samples."""
    runs = [{"iterations": 1, "ns_per_op": float(v)} for v in samples]
    if allocs is not None:
        for r in runs:
            r["allocs_per_op"] = float(allocs)
    return benchjson.merge(runs)


def old_schema(ns, allocs=None):
    """An entry written before benchjson.py recorded raw samples."""
    e = {"iterations": 1, "ns_per_op": float(ns)}
    if allocs is not None:
        e["allocs_per_op"] = float(allocs)
    return e


class GateTest(unittest.TestCase):
    def run_gate(self, prev, cur):
        """Run benchcompare.py on two one-benchmark artifacts; return its exit code."""
        return self.run_gate_on({"BenchmarkX": prev}, {"BenchmarkX": cur}).returncode

    def run_gate_on(self, prev, cur):
        """Run benchcompare.py on two artifacts' benchmark sections; return the process."""
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, benches in (("prev.json", prev), ("cur.json", cur)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    json.dump({"benchmarks": benches}, f)
                paths.append(path)
            return subprocess.run(
                [sys.executable, SCRIPT, *paths], capture_output=True, text=True
            )

    def test_noisy_non_regression_passes(self):
        # The median rises 11.9%, but two outliers make it: the samples
        # overlap and the U test finds no shift. The median-only rule
        # failed this pair.
        prev = entry([100, 101, 99, 140, 98, 102])
        cur = entry([97, 99, 112, 113, 138, 141])
        regressed, change, p = benchcompare.ns_regressed(prev, cur, 0.10)
        self.assertGreater(change, 0.10)
        self.assertGreaterEqual(p, benchcompare.ALPHA)
        self.assertFalse(regressed)
        self.assertEqual(self.run_gate(prev, cur), 0)

    def test_clear_regression_fails(self):
        prev = entry([100, 101, 99, 102, 98, 100])
        cur = entry([130, 128, 131, 129, 133, 127])
        regressed, _, p = benchcompare.ns_regressed(prev, cur, 0.10)
        self.assertAlmostEqual(p, 1 / 924)
        self.assertTrue(regressed)
        self.assertEqual(self.run_gate(prev, cur), 1)

    def test_significant_but_small_shift_passes(self):
        # Every sample slower, but the median rises only 5%.
        prev = entry([100, 101, 99, 102, 98, 100])
        cur = entry([105, 106, 104, 107, 103, 105])
        self.assertFalse(benchcompare.ns_regressed(prev, cur, 0.10)[0])
        self.assertEqual(self.run_gate(prev, cur), 0)

    def test_old_schema_keeps_median_rule(self):
        # Without raw samples on either side the median-only rule holds.
        self.assertEqual(self.run_gate(old_schema(100), entry([97, 99, 112, 113, 138, 141])), 1)
        self.assertEqual(self.run_gate(entry([100, 101, 99, 140, 98, 102]), old_schema(115)), 1)
        self.assertEqual(self.run_gate(old_schema(100), old_schema(109)), 0)
        regressed, _, p = benchcompare.ns_regressed(old_schema(100), old_schema(111), 0.10)
        self.assertTrue(regressed)
        self.assertIsNone(p)

    def test_too_few_samples_keep_median_rule(self):
        # 3 + 3 samples split 20 ways: no outcome reaches p < 0.05.
        prev, cur = entry([100, 100, 100]), entry([150, 150, 150])
        regressed, _, p = benchcompare.ns_regressed(prev, cur, 0.10)
        self.assertTrue(regressed)
        self.assertIsNone(p)

    def test_too_many_samples_keep_median_rule(self):
        # 9 + 9 samples split 48,620 ways, past what the gate enumerates.
        prev = entry([100] * 8 + [160])
        cur = entry([97, 99, 112, 113, 114, 115, 116, 117, 141])
        regressed, change, p = benchcompare.ns_regressed(prev, cur, 0.10)
        self.assertGreater(change, 0.10)
        self.assertTrue(regressed)
        self.assertIsNone(p)

    def test_gone_benchmark_is_reported_and_passes(self):
        # A benchmark deleted from the suite is named, not failed.
        kept = entry([100, 101, 99, 102, 98, 100])
        gone = entry([21, 22, 21, 23, 20, 22])
        proc = self.run_gate_on({"BenchmarkKept": kept, "BenchmarkGone": gone}, {"BenchmarkKept": kept})
        self.assertEqual(proc.returncode, 0)
        self.assertIn("gone: BenchmarkGone", proc.stdout)
        self.assertNotIn("BenchmarkGone", proc.stderr)

    def test_alloc_rule_unchanged(self):
        prev = entry([100, 101, 99, 102, 98, 100], allocs=1000)
        cur = entry([100, 101, 99, 102, 98, 100], allocs=1011)
        self.assertEqual(self.run_gate(prev, cur), 1)
        cur = entry([100, 101, 99, 102, 98, 100], allocs=1008)
        self.assertEqual(self.run_gate(prev, cur), 0)


class SlowerPTest(unittest.TestCase):
    def test_faster_is_not_slower(self):
        self.assertGreater(benchcompare.slower_p([130, 131, 129, 132], [100, 101, 99, 102]), 0.9)

    def test_ties_share_ranks(self):
        self.assertEqual(benchcompare.midranks([5, 3, 5, 1]), [3.5, 2.0, 3.5, 1.0])
        self.assertEqual(benchcompare.slower_p([7, 7, 7], [7, 7, 7]), 1.0)


class BenchjsonTest(unittest.TestCase):
    def test_records_raw_samples(self):
        out = io.StringIO()
        lines = "\n".join(
            f"BenchmarkX-2   \t1\t{ns} ns/op\t10 B/op\t1 allocs/op" for ns in (300, 100, 200)
        )
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "b.json")
            saved = sys.stdin, sys.argv, sys.stdout
            sys.stdin, sys.argv, sys.stdout = io.StringIO(lines + "\n"), ["benchjson.py", path], out
            try:
                benchjson.main()
            finally:
                sys.stdin, sys.argv, sys.stdout = saved
            with open(path) as f:
                got = json.load(f)["benchmarks"]["BenchmarkX"]
        self.assertEqual(got["ns_per_op_samples"], [300.0, 100.0, 200.0])
        self.assertEqual(got["ns_per_op"], 200.0)
        self.assertEqual(got["samples"], 3)


if __name__ == "__main__":
    unittest.main()
