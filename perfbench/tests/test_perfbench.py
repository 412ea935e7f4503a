"""Tests of the benchmark itself, on one short pass per workload.

    python3 perfbench/tests/test_perfbench.py

The first test to run builds the benchmark (as perfbench/run.py does on
first use), so a cold checkout takes about a minute longer.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
RUNNER = ROOT / ".bench_build" / "perfbench" / "perfbench_runner"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seconds=1, seed=5, extra=()):
    """Run the benchmark; returns (stdout, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNamesTest(unittest.TestCase):
    def check_metrics(self, stdout, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            # The report lines name each metric with its unit as well.
            line = next(l for l in stdout.splitlines()
                        if l.split() and l.split()[0] == m["name"])
            self.assertEqual(line.split()[-1], m["unit"])

    def test_every_end_to_end_metric_for_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout, result = bench(workload)
                self.check_metrics(stdout, result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.assertIn("error_rate", stdout)

    def test_traced_run_reports_every_per_layer_metric(self):
        stdout, result = bench("ring_scale", trace=1)
        self.check_metrics(stdout, result, SPEC["per_layer"])
        metrics = result["metrics"]
        self.assertGreater(metrics["sim.run_s"]["value"], 0)
        self.assertGreater(metrics["sim.events"]["value"], 0)
        self.assertEqual(metrics["apps.nas.calibrate_s"]["value"], 0)
        self.assertIn("spans written to", stdout)


class OutputCheckTest(unittest.TestCase):
    def test_injected_reference_mismatch_raises_error_rate(self):
        refs = json.loads((BENCH_DIR / "references.json").read_text())
        variant = str(5 % refs["variants"])
        for key in refs["ring_scale"][variant]:
            refs["ring_scale"][variant][key] = "0" * 16
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "references.json"
            bad.write_text(json.dumps(refs))
            stdout, result = bench("ring_scale", extra=("--references", str(bad)))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        rate = next(l for l in stdout.splitlines() if "error_rate" in l).split()[1]
        self.assertGreater(float(rate), 0)
        self.assertIn("output check FAILED", stdout)


class ServeGeneratorTest(unittest.TestCase):
    def test_generator_reports_its_lateness(self):
        stdout, result = bench("serve_mixed", trace=1)
        late = result["metrics"]["serve.gen_late_ms"]
        self.assertEqual(late["unit"], "ms")
        self.assertGreaterEqual(late["value"], 0)
        self.assertIn("gen_late_max_ms", stdout)
        self.assertGreater(result["metrics"]["serve.hit_rate"]["value"], 0)


class TraceTest(unittest.TestCase):
    def test_self_times_partition_a_single_threaded_pass(self):
        bench("ring_scale")  # builds the runner if needed
        out = subprocess.run([str(RUNNER), "--workload=ring_scale", "--variant=0",
                              "--trace"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout
        report = json.loads(out)
        root = next(s for s in report["spans"] if s[0] == "pass")
        self.assertAlmostEqual(sum(report["self_s"].values()), root[5] - root[4],
                               places=6)
        self.assertEqual(report["span_counts"]["sim.run"], 1)


class LayerMapTest(unittest.TestCase):
    def test_every_per_layer_metric_is_mapped(self):
        layers = json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]
        self.assertEqual(set(layers), {m["name"] for m in SPEC["per_layer"]})
        e2e = {m["name"] for m in SPEC["end_to_end"]} | {"none"}
        for name, entry in layers.items():
            with self.subTest(metric=name):
                self.assertIn(entry["moves"], e2e)
                self.assertLessEqual(set(entry["on"]) | set(entry["flat_on"]),
                                     set(WORKLOADS))
                self.assertFalse(set(entry["on"]) & set(entry["flat_on"]))


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ring_scale",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
