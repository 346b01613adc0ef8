"""Tests of the benchmark itself.

Run from the checkout root:

  python3 -m unittest discover -s perfbench/tests -v

The arithmetic tests are instant. The others build the simulator into
.bench_build/ on first use (about a minute), then run the replay
cross-check on makeTinyScene and a tiny-screen smoke run of every
workload, untraced and traced.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import build  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 90.1)
        self.assertAlmostEqual(stats.percentile(xs, 99), 99.01)
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_samples_beyond_percentile(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(20, 50), 10)

    def test_ratio_refuses_a_zero_base(self):
        self.assertEqual(stats.ratio(3, 2), 1.5)
        with self.assertRaises(ValueError):
            stats.ratio(1, 0)

    def test_mean_of_medians_weights_groups_equally(self):
        self.assertEqual(stats.mean_of_medians([[1, 2, 3], [10]]), 6)
        self.assertEqual(stats.mean_of_medians([[1, 100, 2, 3]]), 2.5)
        with self.assertRaises(ValueError):
            stats.mean_of_medians([[], []])


class BenchmarkSpecTest(unittest.TestCase):
    def test_every_workload_is_declared_with_a_why(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertTrue(w["why"])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + list(args), cwd=cwd,
        capture_output=True, text=True, timeout=900)


class BuiltTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bin_dir = build.build()

    def test_replay_cross_checks_on_tiny_scene(self):
        r = subprocess.run([str(self.bin_dir / "perfbench_driver"),
                            "replay-tiny"], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)
        for entry in json.loads(r.stdout):
            rep = entry["replay"]
            self.assertEqual(rep["mismatch"], "")
            self.assertEqual(rep["quads"], entry["frame_quads"])
            self.assertEqual(rep["prims"], entry["frame_prims"])
            self.assertGreater(rep["l1_accesses"], rep["l2_accesses"])
            self.assertGreater(entry["spans"], 0)

    def test_smoke_every_workload_untraced_and_traced(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for name in sorted(workloads.WORKLOADS):
                with self.subTest(workload=name, trace=trace):
                    r = run_bench("--workload", name, "--seed", "5",
                                  "--seconds", "0.5", "--trace", str(trace),
                                  "--smoke")
                    self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                    last = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(last), ["attempted", "correct",
                                                    "failed", "metrics"])
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(sorted(last["metrics"]),
                                     sorted(m["name"] for m in spec[key]))
                    if trace:
                        self.assertIn("span_file", r.stdout)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(
                dir=build.OUT_DIR.parent) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run_bench("--workload", "table2-dtexl", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
