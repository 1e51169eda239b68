#!/usr/bin/env python3
"""Tests of the vexperf benchmark itself.

    python3 vexperf/test/test_vexperf.py --binary PATH/vexperf \
        --benchmark-json BENCHMARK.json

Tiny-budget runs of every workload must print every metric BENCHMARK.json
names for their mode; a deliberately corrupted result must be reported as a
failure; a full-budget paper_mix run must pass the fig14 golden check; and
no run may leave files behind in its work directory.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

ARGS = None
WORKLOADS = ("paper_mix", "design_space", "warm_rerun")
TINY = ["--budget", "2000", "--seconds", "0.2"]


def run(workload, trace, extra=(), seed=7):
    """Runs vexperf in a fresh work directory; returns (code, result, dir)."""
    work = tempfile.mkdtemp(prefix="vexperf-test-")
    cmd = [ARGS.binary, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--workdir", work] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, work


class VexperfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ARGS.benchmark_json) as f:
            spec = json.load(f)
        cls.names = {
            0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]],
        }

    def check_run(self, workload, trace):
        code, result, work = run(workload, trace, TINY)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), self.names[trace])
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if trace == 0:
                self.assertGreater(metric["value"], 0, name)
        self.assertEqual(os.listdir(work), [], "scratch files left behind")
        os.rmdir(work)

    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_layers_isolated_by_workload(self):
        layer = {}
        for workload in WORKLOADS:
            code, result, work = run(workload, 1, TINY)
            self.assertEqual(code, 0)
            os.rmdir(work)
            layer[workload] = {k: v["value"]
                               for k, v in result["metrics"].items()}
        self.assertEqual(layer["paper_mix"]["mem.backend_calls"], 0)
        self.assertGreater(layer["design_space"]["mem.backend_calls"], 0)
        self.assertGreater(layer["design_space"]["cc.compile_s"], 0)
        self.assertGreater(layer["design_space"]["harness.store_us"], 0)
        self.assertEqual(layer["warm_rerun"]["sim.run_s"], 0)
        self.assertEqual(layer["warm_rerun"]["harness.cache_hit_ratio"], 1)
        warm = layer["warm_rerun"]
        self.assertGreater(warm["trace.self_s.harness"],
                           0.5 * warm["trace.wall_s"])

    def test_corrupted_trajectory_is_a_failure(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, work = run(workload, trace,
                                             TINY + ["--corrupt"])
                    os.rmdir(work)
                    self.assertEqual(code, 1)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_full_budget_paper_mix_matches_fig14_golden(self):
        code, result, work = run("paper_mix", 0, ["--seconds", "0.1"])
        os.rmdir(work)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])

    def test_unknown_workload_fails_without_result(self):
        code, result, work = run("no_such_workload", 0, TINY)
        os.rmdir(work)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    ARGS, rest = parser.parse_known_args()
    unittest.main(argv=[sys.argv[0]] + rest)
