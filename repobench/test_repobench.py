#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 -m unittest repobench/test_repobench.py      (from the root)

Builds the binary through run.py's build step, then checks: the binary's
self-test (percentile helper, metric names, pass-through optimizer);
that inputs are a function of the seed; that every name in
BENCHMARK.json is well formed and that every workload reports exactly
the end-to-end and per-layer metrics it lists, with their units; and
that the benchmark refuses to run without the library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark entry point)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = load_spec()

    def binary_run(self, *args):
        return subprocess.run([self.binary, *args], stdout=subprocess.PIPE,
                              text=True, timeout=170, check=False)

    def test_selftest_passes(self):
        # Covers the percentile helper (highest percentile with at least
        # ten samples beyond it), metric-name validity and the bitwise
        # transparency of the pass-through optimizer wrapper.
        done = self.binary_run("--selftest")
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_same_seed_gives_same_inputs(self):
        for workload in run.WORKLOADS:
            def plan(seed):
                done = self.binary_run("--plan", "--workload", workload,
                                       "--seed", str(seed), "--seconds",
                                       "12")
                self.assertEqual(done.returncode, 0)
                return done.stdout
            self.assertEqual(plan(3), plan(3), workload)
            self.assertNotEqual(plan(3), plan(4), workload)

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in self.spec[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_workload_reports_every_metric(self):
        scratch = os.path.join(run.build_dir(), "tests", "metrics")
        for workload in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                shutil.rmtree(scratch, ignore_errors=True)
                os.makedirs(scratch)
                done = self.binary_run("--workload", workload, "--seed",
                                       "5", "--seconds", "1", "--trace",
                                       str(trace), "--scratch", scratch)
                self.assertEqual(done.returncode, 0, done.stdout)
                result = run.parse_result(done.stdout)
                self.assertIsNotNone(result)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in self.spec[group]}
                reported = {name: m["unit"]
                            for name, m in result["metrics"].items()}
                self.assertEqual(reported, expected, f"{workload} {group}")
        shutil.rmtree(scratch, ignore_errors=True)

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(run.build_dir(), "tests", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in self.spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, *self.spec["command"][1:], "--workload",
             "tune_gp", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertIsNone(run.parse_result(done.stdout))
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
