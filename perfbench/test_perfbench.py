#!/usr/bin/env python3
"""Gate-is-live self-test of the benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json declares is printed with its unit and a sample
count, and that a traced run writes its span file.  Then it checks that
the gates bite: a corrupted reference must fail every workload, and a
directory holding only BENCHMARK.json and the benchmark must fail without
printing a result.  Takes a few minutes (the builds are shared with
run.py).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# serve_tiny is not in BENCHMARK.json (too sensitive to other tenants'
# scheduling to gate on) but stays runnable, so it is tested too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_tiny"]
LINE = re.compile(r"^perfbench (\S+) (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def run(workload, seconds, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


class MetricsArePrinted(unittest.TestCase):

    def check(self, workload, trace, declared):
        out = run(workload, 2, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        printed = {}
        for ln in lines[:-1]:
            m = LINE.match(ln)
            if m and m.group(1) == workload:
                printed[m.group(2)] = (m.group(4), int(m.group(5)))
        for m in declared:
            name = m["name"]
            self.assertEqual(result["metrics"][name]["unit"], m["unit"], name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))
            self.assertIn(name, printed, name + " has no report line")
            self.assertEqual(printed[name][0], m["unit"], name)
            self.assertGreaterEqual(printed[name][1], 1, name + " sample count")
        self.assertIn("failed_ratio", printed)
        self.assertTrue(any(ln.startswith("perfbench fingerprint {")
                            for ln in lines))
        return printed

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, SPEC["end_to_end"])

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, SPEC["per_layer"])
                spans = os.path.join(build_root(), "spans", w + ".jsonl")
                with open(spans) as f:
                    header = json.loads(f.readline())
                    first = json.loads(f.readline())
                self.assertEqual(header["workload"], w)
                self.assertIn("nproc", header["fingerprint"])
                self.assertLessEqual({"name", "start_ns", "end_ns", "parent",
                                      "req"}, set(first))


class GatesBite(unittest.TestCase):

    def test_corrupted_reference_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = run(w, 1, 0, "--corrupt-reference")
                self.assertNotEqual(out.returncode, 0)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_benchmark_alone_fails_without_result(self):
        os.makedirs(build_root(), exist_ok=True)
        alone = tempfile.mkdtemp(prefix="alone-", dir=build_root())
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
