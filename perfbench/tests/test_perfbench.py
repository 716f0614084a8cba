"""Tests of the end-to-end benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The tests that run binaries build .bench_build/ first (about a minute
from scratch).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
import benchlib  # noqa: E402

RUN_PY = os.path.join(benchlib.BENCH_DIR, "run.py")
FORBIDDEN = ("SCNN_GEMM", "SCNN_SIMD", "SCNN_SPLIT_EXEC",
             "SCNN_SPLIT_WINOGRAD", "SCNN_SHADOW_ACCESS",
             "SCNN_LINT_PARALLEL", "SCNN_LINT_PLANS")


def span(sid, name, ts, dur, parent=0, step=-1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"id": sid, "parent": parent, "step": step}}


def good_trace():
    return [
        span(1, "step", 0.0, 100.0, step=0),
        span(2, "data.batch", 0.5, 1.0, 1, 0),
        span(3, "train.forward", 2.0, 40.0, 1, 0),
        span(4, "train.backward", 42.0, 50.0, 1, 0),
        span(5, "train.sgd", 92.0, 7.5, 1, 0),
        span(6, "eval", 120.0, 10.0, step=0),
        span(7, "data.batch", 120.1, 0.4, 6, 0),
        span(8, "train.eval_forward", 120.6, 9.3, 6, 0),
    ]


class TailPercentileTest(unittest.TestCase):
    def test_ten_beyond_rule(self):
        # (samples, expected percentile): the highest ladder entry whose
        # nearest-rank position leaves at least ten samples beyond it.
        cases = [(10, 50.0), (19, 50.0), (20, 50.0), (39, 50.0),
                 (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
                 (200, 95.0), (999, 95.0), (1000, 99.0),
                 (10000, 99.9)]
        for n, want in cases:
            with self.subTest(n=n):
                p = benchlib.tail_percentile(n)
                self.assertEqual(p, want)
                if n >= 20:
                    rank = -(-round(p * 10) * n // 1000)
                    self.assertGreaterEqual(n - rank, 10)

    def test_tail_follows_planned_count(self):
        # A run that loses a step to a failure still reports the
        # percentile of its planned count.
        raw = {"config": {"batch": 8, "train_steps": 100,
                          "eval_batches": 50},
               "setup_s": [1.0],
               "train": {"step_ms": [float(i) for i in range(99)],
                         "peak_heap_bytes": [1.0]},
               "eval": {"batch_ms": [float(i) for i in range(50)],
                        "peak_heap_bytes": [1.0]},
               "resident_bytes": [1.0]}
        _, info = benchlib.end_to_end_metrics(raw)
        self.assertEqual(info["train_tail_percentile"], 90.0)
        self.assertEqual(info["eval_tail_percentile"], 75.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 99.9), 100)
        self.assertEqual(benchlib.percentile([7.0], 75), 7.0)


class ReferenceTest(unittest.TestCase):
    def test_every_input_seed_has_a_reference(self):
        self.assertEqual(benchlib.input_seed(benchlib.INPUT_SEEDS + 3), 3)
        for workload in benchlib.WORKLOADS:
            for seed in range(benchlib.INPUT_SEEDS):
                benchlib.load_reference(workload, seed)

    def test_seed_without_reference_is_refused(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.load_reference("vgg19_baseline", benchlib.INPUT_SEEDS)

    def test_loss_check(self):
        ref = benchlib.load_reference("vgg19_baseline", 4)
        want = ref["workloads"]["vgg19_baseline"]["4"]
        raw = {"workload": "vgg19_baseline", "seed": 4,
               "loss": {"check_step": ref["check_step"], "check": want}}
        self.assertIsNone(benchlib.check_loss(raw, ref))
        raw["loss"]["check"] = want * 1.02
        self.assertIn("differs", benchlib.check_loss(raw, ref))
        raw["loss"]["check"] = float("nan")
        self.assertIn("no finite loss", benchlib.check_loss(raw, ref))


class TraceCheckTest(unittest.TestCase):
    def test_good_trace(self):
        self.assertEqual(benchlib.check_trace(good_trace()), [])

    def assertProblem(self, events, fragment):
        problems = benchlib.check_trace(events)
        self.assertTrue(any(fragment in p for p in problems), problems)

    def test_child_outside_parent(self):
        ev = good_trace()
        ev[4]["dur"] = 20.0  # sgd ends after the step
        self.assertProblem(ev, "not inside its parent")

    def test_overlapping_siblings(self):
        ev = good_trace()
        ev[2]["dur"] = 45.0  # forward runs into backward
        self.assertProblem(ev, "overlaps")

    def test_step_id_mismatch(self):
        ev = good_trace()
        ev[3]["args"]["step"] = 1
        self.assertProblem(ev, "inside step 0")

    def test_children_must_cover_step(self):
        ev = good_trace()
        ev[3]["dur"] = 10.0  # children now cover < 90% of the step
        self.assertProblem(ev, "children cover")

    def test_unknown_parent_and_duplicate_id(self):
        ev = good_trace()
        ev[1]["args"]["parent"] = 99
        ev[7]["args"]["id"] = 3
        problems = benchlib.check_trace(ev)
        self.assertTrue(any("unknown parent" in p for p in problems))
        self.assertTrue(any("duplicate span id" in p for p in problems))

    def test_self_times(self):
        self_ms = benchlib.self_times(good_trace())
        self.assertAlmostEqual(self_ms["step"], (100.0 - 98.5) / 1e3)
        self.assertAlmostEqual(self_ms["data.batch"], 1.4 / 1e3)


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        benchlib.build()

    def test_heap_counter_exact(self):
        proc = subprocess.run(
            [os.path.join(benchlib.BUILD_DIR, "heap_selftest")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_forbidden_switch_is_refused(self):
        for var in FORBIDDEN:
            with self.subTest(var=var):
                env = dict(os.environ, **{var: "1"})
                proc = subprocess.run(
                    [benchlib.BINARY, "--workload", "vgg19_baseline",
                     "--seed", "1", "--seconds", "1", "--trace", "0"],
                    capture_output=True, text=True, env=env)
                self.assertEqual(proc.returncode, 2)
                self.assertIn("refusing to run: " + var, proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_timed_work_is_a_fixed_step_count(self):
        # vgg19_baseline plans 5.4 steps per second of --seconds.
        raw = benchlib.run_binary("vgg19_baseline", 3, 2, 0)
        self.assertEqual(raw["config"]["train_steps"], 11)
        self.assertEqual(raw["config"]["eval_batches"], 5)
        self.assertEqual(len(raw["train"]["step_ms"]), 11)
        self.assertEqual(len(raw["eval"]["batch_ms"]), 5)
        self.assertEqual(len(raw["setup_s"]), 3)

    def test_scnn_threads_is_ignored_and_reported(self):
        env = dict(os.environ, SCNN_THREADS="3")
        raw = benchlib.run_binary("vgg19_baseline", 2, 0, 0, env=env)
        self.assertEqual(raw["config"]["pool_threads"], 2)
        self.assertEqual(raw["config"]["scnn_env"], {"SCNN_THREADS": "3"})


class RunTest(unittest.TestCase):
    """Short end-to-end runs of the command the benchmark defines."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(benchlib.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_py(self, trace, seconds=3):
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", "vgg19_baseline",
             "--seed", "5", "--seconds", str(seconds), "--trace",
             str(trace)], capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_untraced_run_reports_end_to_end_metrics(self):
        self.check_metrics(self.run_py(0), "end_to_end")

    def test_traced_run_reports_layer_metrics_and_sound_trace(self):
        self.check_metrics(self.run_py(1), "per_layer")
        path = os.path.join(benchlib.BUILD_DIR, "traces",
                            "vgg19_baseline-seed5-trace1.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertEqual(benchlib.check_trace(events), [])
        names = {e["name"] for e in events}
        for n in ("setup", "step", "eval", "train.forward", "replay.fwd",
                  "replay.bwd", "train.eval_forward", "hmms.plan"):
            self.assertIn(n, names)

    def test_fails_without_sources(self):
        os.makedirs(benchlib.BUILD_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=benchlib.BUILD_DIR) as tmp:
            shutil.copy(os.path.join(benchlib.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(benchlib.BENCH_DIR,
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "vgg19_baseline", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
