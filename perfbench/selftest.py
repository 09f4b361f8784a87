"""Self-tests of the benchmark, on shortened (``--smoke``) workloads.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit on every workload, that per-layer call counts and simulated counts
repeat exactly across two traced runs (under different hash seeds), and
that the benchmark refuses to run without the simulator's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import checkout

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def is_exact(name, unit):
    """Whether a per-layer metric is made of counts only, not host time."""
    timed = unit == "s" or unit.endswith("/s")
    return not timed and not name.endswith(".share") and name != "trace_overhead_ratio"


def benchmark_spec():
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(workload, trace, seed=3, env=None, script=RUN, cwd=checkout.ROOT):
    command = [sys.executable, script, "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(
        command,
        cwd=cwd,
        env=dict(os.environ, **(env or {})),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def result_of(done):
    if done.returncode != 0:
        raise AssertionError("benchmark failed:\n%s" % done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_appears_with_its_unit(self):
        spec = benchmark_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {metric["name"]: metric["unit"] for metric in spec[section]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(run_benchmark(workload, trace))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)


class RepeatabilityTest(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        for workload in ("fig10-generated", "stall-heavy"):
            with self.subTest(workload=workload):
                first, second = (
                    result_of(run_benchmark(workload, 1, env={"PYTHONHASHSEED": hash_seed}))
                    for hash_seed in ("1", "2")
                )
                exact = [name for name, m in first["metrics"].items() if is_exact(name, m["unit"])]
                for name in ("sim.cycles", "core.token.calls", "memory.dcache.miss_ratio"):
                    self.assertIn(name, exact)
                for name in exact:
                    self.assertEqual(
                        first["metrics"][name]["value"], second["metrics"][name]["value"], name
                    )


class MissingSourceTest(unittest.TestCase):
    def test_refuses_to_run_without_the_simulator_source(self):
        os.makedirs(checkout.WORK_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=checkout.WORK_DIR)
        try:
            shutil.copy(os.path.join(checkout.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            done = run_benchmark(
                "fig10-generated", 0, script=os.path.join(bare, "perfbench", "run.py"), cwd=bare
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
