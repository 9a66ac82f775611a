"""Smoke test of the benchmark: every workload's code path at L = 4.

Run from the root of a checkout (about 15 s):

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

Each workload runs once untraced and once traced with ``--tiny``. The test
checks the last stdout line against the contract and that every metric
named in ``BENCHMARK.json`` is printed with its declared unit.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOLED = ("rho1_l7",)  # run on a fork pool, so spans come from workers

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = run_bench(workload, trace)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float), metric["name"])
            self.assertIn(f"{workload} {metric['name']} = ", "\n".join(lines))
        return result["metrics"]

    def test_workloads(self):
        for spec in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=spec["name"], trace=trace):
                    metrics = self.check(spec["name"], trace)
                    if trace and spec["name"] in POOLED:
                        workers = metrics["trace.worker_spans"]["value"]
                        self.assertGreater(workers, 0)

    def test_refuses_a_directory_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work",
                                                          "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gap",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
