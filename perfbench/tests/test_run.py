"""Tests of the benchmark runner, at the tiny input size.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'

Each workload must print, untraced, every end-to-end metric of
BENCHMARK.json and, traced, every per-layer metric, each with its unit, with
its gates passed and no failed operation. Outside a full checkout the
runner must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class DriverTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_and_passes_its_gates(self):
        for w in BENCH["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    p = bench(w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    last = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"], p.stderr)
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in last["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    if trace == 0:
                        for k, v in last["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_live_set_up_is_sampled_by_set_up_only_children(self):
        p = bench("live_campaign", 0)
        self.assertEqual(p.returncode, 0, p.stderr)
        with open(os.path.join(ROOT, ".bench_out", "run-live_campaign-seed3-trace0-tiny.json")) as fh:
            children = json.load(fh)["children"]
        setup_only = [c for c in children if not c["passes"]]
        self.assertGreaterEqual(len(setup_only), run.WORKLOADS["live_campaign"]["children"])
        for c in children:
            self.assertEqual(len(c["setup_s"]), 1)
            self.assertEqual(c["setup_factor_misses"], 1)

    def test_every_declared_layer_metric_is_in_the_layer_table(self):
        child = {"layers": {}, "counts": {}}
        table = {n: u for n, u, _ in run.layer_table(child, None, None, 1.0, "live_campaign")}
        for m in BENCH["per_layer"]:
            self.assertEqual(table.get(m["name"]), m["unit"], m["name"])

    def test_every_declared_workload_is_runnable(self):
        for w in BENCH["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)

    def test_fails_without_printing_outside_a_full_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            p = bench("grid_sweep", 0, cwd=tmp, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
