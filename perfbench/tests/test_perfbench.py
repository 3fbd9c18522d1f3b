#!/usr/bin/env python3
"""Tests of the GEMM benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the perfbench binary through run.py (the first run compiles the library)
and cover: seeded reproducibility of shapes, inputs and the resolved
configuration; the printed metric names and units against BENCHMARK.json;
that verification fails on a corrupted output; and that the benchmark
fails cleanly outside a full checkout.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["dgemm_large", "dgemm_mixed", "batch_shared_b", "sgemm_large"]


def binary(*args):
    return subprocess.run([run.BINARY] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=run.child_env(), timeout=170)


def describe(workload, seed):
    proc = binary("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
                  "--mode", "describe")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def shape_lines(lines):
    return [l for l in lines if not l.startswith(("inputs ", "resolved "))]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
                           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=600)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_gives_identical_shapes_inputs_and_configuration(self):
        for w in WORKLOADS:
            first = describe(w, 7)
            self.assertEqual(first, describe(w, 7), w)
            self.assertTrue(any(l.startswith("inputs fnv1a=") for l in first), w)
            resolved = [l for l in first if l.startswith("resolved ")]
            self.assertTrue(resolved and all("source=analytic" in l for l in resolved), resolved)

    def test_different_seed_gives_different_shapes(self):
        for w in ["dgemm_mixed", "batch_shared_b"]:
            self.assertNotEqual(shape_lines(describe(w, 7)), shape_lines(describe(w, 8)), w)
        for w in ["dgemm_large", "sgemm_large"]:  # fixed shape, seeded inputs
            a, b = describe(w, 7), describe(w, 8)
            self.assertEqual(shape_lines(a), shape_lines(b), w)
            self.assertNotEqual(a, b, w)

    def test_metric_names_and_units_match_benchmark_json(self):
        s = spec()
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            proc, result = bench("dgemm_mixed", trace)
            self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in s[key]}
            self.assertEqual(got, want, key)

    def test_corrupted_output_fails_verification(self):
        for w in WORKLOADS:
            proc = binary("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "0",
                          "--mode", "selfcheck")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn("clean output: 0 failed call(s)", proc.stdout)
            self.assertIn("corrupted (+1e3) output: 1 failed call(s)", proc.stdout)
            self.assertIn("corrupted (NaN) output: 1 failed call(s): non-finite output",
                          proc.stdout)

    def test_fails_without_the_library_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(PERFBENCH, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dgemm_large",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              cwd=lone, timeout=170)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
