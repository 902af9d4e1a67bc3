"""Self-tests of the benchmark harness.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The smoke test runs every workload end to end, untraced and traced, on
shrunken inputs; the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import plans  # noqa: E402
import run  # noqa: E402


class PlanTests(unittest.TestCase):
    def test_same_seed_same_plan_and_labels(self):
        for client in range(plans.SERVICE_CLIENTS):
            first = plans.client_plan(7, client, 300)
            self.assertEqual(first, plans.client_plan(7, client, 300))
            self.assertEqual(
                [plans.service_study(7, client, i) for _, i in first],
                [plans.service_study(7, client, i) for _, i in plans.client_plan(7, client, 300)],
            )

    def test_other_seed_other_studies_same_shares(self):
        a, b = plans.client_plan(1, 0, 300), plans.client_plan(2, 0, 300)
        self.assertNotEqual(a, b)
        self.assertNotEqual(plans.service_study(1, 0, 0), plans.service_study(2, 0, 0))
        for plan in (a, b):
            labels = Counter(label for label, _ in plan)
            self.assertEqual(labels["cold"], 90)
            self.assertEqual(labels["warm"], 210)
            self.assertEqual(plan[0], ("cold", 0))

    def test_warm_jobs_repeat_earlier_studies_of_the_same_client(self):
        created = 0
        for label, index in plans.client_plan(3, 1, 500):
            if label == "cold":
                self.assertEqual(index, created)
                created += 1
            else:
                self.assertLess(index, created)

    def test_new_studies_share_no_cell(self):
        seeds = [
            row["seed"]
            for client in range(plans.SERVICE_CLIENTS)
            for index in range(200)
            for row in plans.service_study(5, client, index)["sweep"]["axes"][0]["cases"]
        ]
        self.assertEqual(len(seeds), len(set(seeds)))


class PercentileTests(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            harness.percentile(range(19), 50)
        with self.assertRaises(ValueError):
            harness.percentile(range(90), 90)
        self.assertEqual(harness.percentile(range(21), 50), 10)
        self.assertAlmostEqual(harness.percentile(range(101), 90), 90)

    def test_interpolates(self):
        self.assertAlmostEqual(harness.percentile([1, 2, 3, 4], 50, min_beyond=0), 2.5)

    def test_service_leaves_out_a_percentile_it_cannot_report(self):
        import service_workload

        wanted = {"p50": (range(21), 50), "p90": (range(21), 90)}
        problems: list[str] = []
        self.assertEqual(service_workload.percentiles(wanted, 10, problems), {"p50": 10})
        self.assertEqual(len(problems), 1)
        # After a failed job, too few samples is expected, not a new problem.
        problems = ["client 0 job cold 1: failed"]
        service_workload.percentiles(wanted, 10, problems)
        self.assertEqual(problems, ["client 0 job cold 1: failed"])


def _run(*args: str, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


class CalibrationTests(unittest.TestCase):
    def test_reference_speed_leaves_seconds_unchanged(self):
        ref = harness.REF_SPEED_PROBE_S
        self.assertAlmostEqual(harness.calibrated(2.0, ref, ref), 2.0)

    def test_a_slow_host_scales_seconds_down(self):
        ref = harness.REF_SPEED_PROBE_S
        self.assertAlmostEqual(harness.calibrated(3.0, 1.5 * ref, 1.5 * ref), 2.0)
        self.assertAlmostEqual(harness.calibrated(3.0, ref, 2.0 * ref), 2.0)


class CompletenessTests(unittest.TestCase):
    def test_a_layer_the_workload_does_not_run_reads_zero(self):
        problems: list[str] = []
        out = run.complete("repro_quick", True, {}, problems)
        self.assertEqual(tuple(out), run.PER_LAYER)
        self.assertEqual(out["cache.hits"], 0.0)
        self.assertEqual(out["service.cold_job_p90_ms"], 0.0)
        self.assertNotIn("metric cache.hits was not measured", problems)
        self.assertIn("metric fast.kernel_s was not measured", problems)

    def test_a_missing_end_to_end_metric_fails_the_run(self):
        problems: list[str] = []
        out = run.complete("service_mix", False, {"setup_s": 1.0, "sweep_s": 2.0}, problems)
        self.assertEqual(tuple(out), run.END_TO_END)
        self.assertEqual(problems, ["metric peak_rss_mb was not measured"])


class SmokeTests(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", trace, "--smoke")
                    self.assertEqual(out.returncode, 0, out.stderr[-3000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = run.PER_LAYER if trace == "1" else run.END_TO_END
                    self.assertEqual(tuple(result["metrics"]), names)
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], run.UNITS[name])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=harness.STATE) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            out = _run("--workload", "repro_quick", "--seed", "0", "--seconds", "1",
                       "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    harness.STATE.mkdir(exist_ok=True)
    unittest.main()
