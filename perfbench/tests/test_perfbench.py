"""Tests of the host-time benchmark itself, run at tiny scale.

From the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (perfbench/run.py does it into
$CARGO_TARGET_DIR, or .bench_build), which takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN_PY = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, perturb=False, cwd=ROOT, env=None):
    cmd = [sys.executable, RUN_PY, "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", "tiny"]
    if perturb:
        cmd.append("--perturb")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError("run failed (%d):\n%s%s" % (
            proc.returncode, proc.stdout, proc.stderr))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


class TinyWorkloads(unittest.TestCase):

    def test_each_workload_runs_clean_and_matches_its_pinned_fingerprint(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload)
                r = result(proc)
                self.assertTrue(r["correct"], proc.stdout)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(r["failed"], 0)
                self.assertIn("(pinned)", proc.stdout)
                self.assertNotIn("CHECK FAILED", proc.stdout)

    def test_every_end_to_end_metric_prints_with_its_unit(self):
        expected = units(SPEC["end_to_end"])
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = result(run(workload))["metrics"]
                self.assertEqual(set(metrics), set(expected))
                for name, m in metrics.items():
                    self.assertEqual(m["unit"], expected[name], name)
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric_with_its_unit(self):
        expected = units(SPEC["per_layer"])
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result(run(workload, trace=1))
                self.assertTrue(r["correct"])
                metrics = r["metrics"]
                self.assertEqual(set(metrics), set(expected))
                for name, m in metrics.items():
                    self.assertEqual(m["unit"], expected[name], name)
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_traced_run_measures_the_layers_its_workload_exercises(self):
        llm = result(run("llm_tp2", trace=1))["metrics"]
        self.assertGreater(llm["fabric.collectives"]["value"], 0)
        self.assertGreater(llm["serve.kv_pages_allocated"]["value"], 0)
        self.assertGreater(llm["obs.observer_overhead"]["value"], 0)
        zoo = result(run("zoo_chip", trace=1))["metrics"]
        self.assertGreater(zoo["runtime.exec_ms_p50"]["value"], 0)
        self.assertEqual(zoo["serve.batches"]["value"], 0)

    def test_perturbed_report_fails_the_fingerprint_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, perturb=True)
                r = result(proc)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertIn("CHECK FAILED: fingerprint", proc.stdout)

    def test_second_seed_passes_the_invariants(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, seed=2)
                r = result(proc)
                self.assertTrue(r["correct"], proc.stdout)
                self.assertEqual(r["failed"], 0)
                self.assertNotIn("(pinned)", proc.stdout)

    def test_run_fails_without_the_simulator_sources(self):
        build = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or
            os.path.join(ROOT, ".bench_build"))
        bare = os.path.join(build, "test_without_sources")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
