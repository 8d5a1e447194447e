#!/usr/bin/env python3
"""Input-determinism tests for the benchmark's workload generator.

The same workload seed must give byte-identical printed configs and policy
sets, and the same patch churn; a different seed must give different inputs.

  python3 perfbench/test_determinism.py
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

PATCH_REQUESTS = "3"  # solved ones; --inputs covers a whole pass


def bench(workload, seed, mode):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed), mode]
    if mode == "--patches":
        cmd += ["--requests", PATCH_REQUESTS]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.splitlines()


def digests(lines):
    """The configs= and policies= fields of each --inputs line."""
    return [line.split()[1:3] for line in lines]


class InputDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = bench(workload, 7, "--inputs")
                self.assertTrue(first)
                self.assertEqual(first, bench(workload, 7, "--inputs"))

    def test_different_seed_gives_different_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                seven = digests(bench(workload, 7, "--inputs"))
                eight = digests(bench(workload, 8, "--inputs"))
                # zoo-wan draws from a fixed pool, so two seeds may share
                # an instance at some position; most positions must differ.
                differing = sum(a != b for a, b in zip(seven, eight))
                self.assertGreater(differing, len(seven) // 2)

    def test_same_seed_gives_same_patch_churn(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = bench(workload, 7, "--patches")
                self.assertEqual(len(first), int(PATCH_REQUESTS))
                self.assertTrue(all("correct=1" in line for line in first))
                self.assertEqual(first, bench(workload, 7, "--patches"))


if __name__ == "__main__":
    unittest.main()
