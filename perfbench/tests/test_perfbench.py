#!/usr/bin/env python3
"""Tests of the benchmark itself: wrapper fidelity, seed handling, output
checks and the metric names BENCHMARK.json promises.

    python3 perfbench/tests/test_perfbench.py

Builds ghs_perfbench through perfbench/run.py, then drives it directly at
the workloads' real size; the whole file takes about a minute.
"""

import functools
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

JOBS = 1000000
# Metrics that run.py derives across processes rather than the program.
DERIVED_BY_RUN_PY = {"bench.trace_overhead_pct"}


def run_bench(workload, seed=42, traced=False):
    cmd = [run.BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--reference={run.REFERENCE_DIR}"]
    if traced:
        cmd.append("--traced")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# Each (workload, seed, traced) runs once; the tests share the results.
bench = functools.lru_cache(maxsize=None)(run_bench)


def metric(result, name):
    return result["metrics"][name]["value"]


def failed_checks(result):
    return [c for c in result["checks"] if not c["ok"]]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_traced_report_is_byte_identical_to_untraced(self):
        # The policy timer subclasses BandwidthAwarePolicy, so the
        # service's dynamic_cast still finds the tuner cache: tuner hits and
        # misses, and with them the whole report, must not move.
        for workload in ("serve_1m", "serve_1m_observed", "fleet_16"):
            with self.subTest(workload=workload):
                plain = bench(workload)
                traced = bench(workload, traced=True)
                self.assertEqual(plain["report_digest"], traced["report_digest"])
                self.assertEqual(failed_checks(plain), [])
                self.assertEqual(failed_checks(traced), [])
        plain = bench("serve_1m")
        traced = bench("serve_1m", traced=True)
        self.assertGreater(metric(traced, "serve.tuner.misses"), 0)
        self.assertEqual(metric(plain, "serve.tuner.misses"),
                         metric(traced, "serve.tuner.misses"))
        self.assertGreater(metric(traced, "serve.policy.geometry_calls"), 0)

    def test_second_seed_gives_other_jobs_and_passes_every_check(self):
        for workload in ("serve_1m", "fleet_16"):
            with self.subTest(workload=workload):
                a = bench(workload, seed=42)
                b = bench(workload, seed=43)
                self.assertNotEqual(a["inputs_digest"], b["inputs_digest"])
                self.assertNotEqual(a["report_digest"], b["report_digest"])
                self.assertEqual(failed_checks(a), [])
                self.assertEqual(failed_checks(b), [])
                again = run_bench(workload, seed=43)
                self.assertEqual(b["inputs_digest"], again["inputs_digest"])
                self.assertEqual(b["report_digest"], again["report_digest"])

    def test_default_seed_reports_match_the_reference(self):
        for workload in ("serve_1m", "fleet_16"):
            with self.subTest(workload=workload):
                result = bench(workload)
                names = [c["name"] for c in result["checks"]]
                self.assertTrue(any("byte-equal to reference" in n for n in names))
                self.assertEqual(failed_checks(result), [])
        # Off the default seed there is no reference report to compare with.
        other = bench("serve_1m", seed=43)
        self.assertFalse(any("byte-equal to reference" in c["name"]
                             for c in other["checks"]))

    def test_paper_sweep_ignores_the_seed_and_matches_its_reference(self):
        result = bench("paper_sweep", seed=7, traced=True)
        self.assertTrue(any("ignores --seed 7" in n for n in result["notes"]))
        self.assertEqual(failed_checks(result), [])
        # 4 Table 1 rows, 176 figure values and the rendered report.
        self.assertEqual(len(result["checks"]), 4 + 4 * 4 * 11 + 1)
        self.assertLess(metric(result, "table1_max_err_pct"), 1.0)

    def test_ratios_carry_their_base(self):
        result = bench("serve_1m", traced=True)
        ratios = {r["name"]: r for r in result["ratios"]}
        self.assertEqual(set(ratios), {"sim.ns_per_event", "serve.us_per_job"})
        r = ratios["serve.us_per_job"]
        self.assertEqual(r["denominator_value"], JOBS)
        self.assertAlmostEqual(r["value"],
                               1e6 * r["numerator_value"] / r["denominator_value"])

    def test_traced_spans_cover_the_window(self):
        result = bench("fleet_16", traced=True)
        window = result["spans"]["bench.window"]
        self.assertEqual(window["count"], 1)
        uncovered = metric(result, "bench.uncovered_s")
        self.assertAlmostEqual(uncovered, window["self_s"])
        self.assertGreaterEqual(uncovered, 0.0)
        children = sum(result["spans"][n]["total_s"] for n in
                       ("cluster.submit", "cluster.run", "cluster.report",
                        "stats.json"))
        self.assertAlmostEqual(children + uncovered, window["total_s"], places=6)

    def test_every_metric_reported_is_named_in_benchmark_json(self):
        e2e, layers = run.load_spec()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                for traced in (False, True):
                    result = bench(workload, traced=traced)
                    for name, m in result["metrics"].items():
                        unit = e2e.get(name, layers.get(name))
                        self.assertIsNotNone(unit, name)
                        self.assertEqual(unit, m["unit"], name)

    def test_every_workload_reports_every_end_to_end_metric(self):
        # run.py refuses a run that lacks one; none may read 0.
        e2e, _ = run.load_spec()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload)
                for name in e2e:
                    self.assertIn(name, result["metrics"])
                    self.assertGreater(metric(result, name), 0.0, name)
                self.assertEqual(failed_checks(result), [])

    def test_every_per_layer_metric_is_reported_by_some_workload(self):
        _, layers = run.load_spec()
        reported = set(DERIVED_BY_RUN_PY)
        for workload in run.WORKLOADS:
            reported |= set(bench(workload, traced=True)["metrics"])
        self.assertEqual(set(layers) - reported, set())


if __name__ == "__main__":
    unittest.main()
