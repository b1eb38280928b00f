#!/usr/bin/env python3
"""Tests of the benchmark itself: seeded inputs repeat, outputs are checked,
and every run prints exactly the metrics BENCHMARK.json declares.

    python3 perfbench/test_perfbench.py

Each workload runs for a fraction of a second at smoke scale.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("ingest", "serve_cold", "serve_hot")
# Deterministic counts of a seed (traced runs).
COUNTS = ("graph.nodes", "provio.bytes_per_node", "wal.bytes_per_node",
          "exec.bytes_per_request")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.work = os.path.join(run.BUILD, "test-%d" % os.getpid())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def perfbench(self, workload, seed, trace):
        """Runs one smoke-scale run; returns (digest, result object)."""
        out = subprocess.run(
            [self.binary, "--smoke", "--workload", workload, "--seed",
             str(seed), "--seconds", "0.2", "--trace", str(trace),
             "--work-dir", os.path.join(self.work, "w"),
             "--trace-dir", os.path.join(self.work, "traces")],
            capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stderr)
        digests = re.findall(r"digest=([0-9a-f]{16})", out.stdout)
        self.assertTrue(digests, out.stdout)
        return digests[0], json.loads(out.stdout.strip().splitlines()[-1])

    def test_same_seed_repeats_inputs_and_counts(self):
        for workload in WORKLOADS:
            first_digest, first = self.perfbench(workload, 7, 1)
            second_digest, second = self.perfbench(workload, 7, 1)
            self.assertEqual(first_digest, second_digest, workload)
            for name in COUNTS:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 "%s %s" % (workload, name))

    def test_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            self.assertNotEqual(self.perfbench(workload, 7, 0)[0],
                                self.perfbench(workload, 8, 0)[0], workload)

    def test_checks_pass_and_every_metric_is_printed(self):
        declared = {
            0: {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, result = self.perfbench(workload, 3, trace)
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                self.assertEqual(printed, declared[trace],
                                 "%s --trace %d" % (workload, trace))
                if trace == 0:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
