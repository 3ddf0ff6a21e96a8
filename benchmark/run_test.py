#!/usr/bin/env python3
"""Fast self-test of fvbench and its runner.

  python3 benchmark/run_test.py

Covers result parsing, the BENCHMARK.json contract, the bound / compare
logic, and, on a built fvbench, one smoke-scale run per workload, a traced
run, determinism of the simulated metrics, and that a corrupted expected
digest fails the run.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = run.load_spec()


def result_line(metrics, correct=True, attempted=10, failed=0):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def full_metrics(specs, value=1.0):
    return {m["name"]: {"value": value, "unit": m["unit"]} for m in specs}


class ParseTest(unittest.TestCase):

    def test_takes_the_last_line(self):
        out = "progress\n" + result_line({"x": {"value": 1, "unit": "s"}})
        self.assertEqual(run.parse_result(out)["attempted"], 10)

    def test_rejects_non_json_tail(self):
        with self.assertRaises(run.BenchError):
            run.parse_result(result_line({}) + "\ntrailing words")

    def test_rejects_missing_key(self):
        with self.assertRaises(run.BenchError):
            run.parse_result(json.dumps({"correct": True, "metrics": {}}))

    def test_rejects_incorrect_run(self):
        with self.assertRaises(run.BenchError):
            run.parse_result(result_line({}, correct=False))

    def test_rejects_empty_output(self):
        with self.assertRaises(run.BenchError):
            run.parse_result("\n\n")

    def test_contract_keeps_exactly_the_named_metrics(self):
        specs = SPEC["end_to_end"]
        metrics = full_metrics(specs)
        metrics["extra.metric"] = {"value": 3, "unit": "count"}
        got = run.to_contract(run.parse_result(result_line(metrics)), specs)
        self.assertEqual(sorted(got), sorted(run.RESULT_KEYS))
        self.assertEqual(sorted(got["metrics"]),
                         sorted(m["name"] for m in specs))

    def test_contract_rejects_missing_metric(self):
        specs = SPEC["end_to_end"]
        metrics = full_metrics(specs)
        del metrics["setup_s"]
        with self.assertRaises(run.BenchError):
            run.to_contract(run.parse_result(result_line(metrics)), specs)

    def test_contract_rejects_wrong_unit(self):
        specs = SPEC["end_to_end"]
        metrics = full_metrics(specs)
        metrics["setup_s"]["unit"] = "ms"
        with self.assertRaises(run.BenchError):
            run.to_contract(run.parse_result(result_line(metrics)), specs)

    def test_smoke_runs_default_to_one_second(self):
        self.assertEqual(run.run_settings(SPEC, {"scale": "smoke"}),
                         (1, "smoke"))
        self.assertEqual(run.run_settings(SPEC, {}),
                         (SPEC["run_seconds"], "full"))
        self.assertEqual(run.run_settings(SPEC, {"seconds": "3"}),
                         ("3", "full"))

    def test_contract_rejects_zero_attempts(self):
        specs = SPEC["end_to_end"]
        line = result_line(full_metrics(specs), attempted=0)
        with self.assertRaises(run.BenchError):
            run.to_contract(run.parse_result(line), specs)


class SpecTest(unittest.TestCase):

    def test_top_level_keys(self):
        self.assertEqual(sorted(SPEC), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))

    def test_names_unique_and_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        allowed = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                      "0123456789_.-")
        for n in names:
            self.assertTrue(n[0].isalnum() and len(n) <= 64, n)
            self.assertTrue(set(n) <= allowed, n)

    def test_units_and_reasons(self):
        unit_chars = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                         "0123456789_/%.-")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(set(m["unit"]) <= unit_chars, m["name"])
            self.assertLessEqual(len(m["unit"]), 16)
            self.assertIn(m["better"], ("lower", "higher"))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200, w["name"])
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class StatsTest(unittest.TestCase):

    def test_quartiles_match_statistics(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = run.quartiles(vals)
        self.assertEqual([q1, med, q3], statistics.quantiles(vals, n=4))

    def test_spread_share(self):
        self.assertEqual(run.spread_share([2.0] * 10), 0.0)
        vals = [float(v) for v in range(1, 11)]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(run.spread_share(vals), (q3 - q1) / med)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(run.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(run.worse_by(10.0, 11.0, "higher"), -0.1)


class CompareTest(unittest.TestCase):
    base = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]

    def test_same(self):
        label, _ = run.verdict(self.base, list(reversed(self.base)), "lower",
                               0.05)
        self.assertEqual(label, "same")

    def test_worse_beyond_bound(self):
        label, d = run.verdict(self.base, [v * 1.08 for v in self.base],
                               "lower", 0.05)
        self.assertEqual(label, "worse")
        self.assertAlmostEqual(d["worse_by"], 0.08, places=3)

    def test_higher_is_better_metrics_flip(self):
        label, _ = run.verdict(self.base, [v * 1.08 for v in self.base],
                               "higher", 0.05)
        self.assertEqual(label, "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0,
                 100.0]
        label, _ = run.verdict(self.base, noisy, "lower", 0.05)
        self.assertEqual(label, "unresolved")

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [v * 0.97 for v in self.base]
        change[0] = self.base[0] * 1.01
        change[1] = self.base[1] * 1.01
        label, d = run.verdict(self.base, change, "lower", 0.05)
        self.assertEqual(d["wins"], 8)
        self.assertEqual(label, "same")
        change[1] = self.base[1] * 0.97
        label, _ = run.verdict(self.base, change, "lower", 0.05)
        self.assertEqual(label, "better")

    def test_wide_spread_resolves_when_every_run_is_better(self):
        noisy = [80.0, 70.0, 75.0, 60.0, 85.0, 65.0, 72.0, 78.0, 68.0, 82.0]
        label, _ = run.verdict(self.base, noisy, "lower", 0.05)
        self.assertEqual(label, "better")

    def test_compare_reads_collected_sets(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, scale in (("a", 1.0), ("b", 1.2)):
                runs = []
                for seed, v in enumerate(self.base, start=1):
                    metrics = full_metrics(SPEC["end_to_end"], v * scale)
                    runs.append({"workload": SPEC["workloads"][0]["name"],
                                 "seed": seed, "trace": 0,
                                 "result": {"metrics": metrics}})
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump({"runs": runs}, f)
                paths.append(path)
            with contextlib.redirect_stdout(io.StringIO()) as report:
                # A 20% move is worse for every lower-is-better metric.
                self.assertEqual(run.cmd_compare(SPEC, *paths), 1)
                self.assertEqual(run.cmd_compare(SPEC, paths[0], paths[0]), 0)
            self.assertIn("worse", report.getvalue())
            self.assertIn(run.describe(run.quartiles(self.base)),
                          report.getvalue())


class FvbenchTest(unittest.TestCase):
    """Runs the built fvbench binary at smoke scale (building it if needed)."""

    @classmethod
    def setUpClass(cls):
        try:
            run.build()
        except run.BenchError as e:
            raise unittest.SkipTest(str(e))

    def test_every_workload_runs_and_reports_every_metric(self):
        for w in SPEC["workloads"]:
            result = run.one_run(SPEC, w["name"], 1, 1, False, "smoke")
            self.assertEqual(result["failed"], 0, w["name"])
            self.assertGreater(result["attempted"], 0)

    def test_traced_run_reports_layers_and_writes_a_trace(self):
        result = run.one_run(SPEC, "tenant_storm", 1, 1, True, "smoke")
        self.assertEqual(len(result["metrics"]), len(SPEC["per_layer"]))
        trace = run.BUILD_DIR / "traces" / "tenant_storm-seed1.json"
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e["name"] == "RunUntil" for e in events))

    def test_simulated_metrics_are_deterministic(self):
        sim = [m["name"] for m in SPEC["end_to_end"]
               if m["name"].startswith("sim_") or m["name"].endswith("_frac")]
        a = run.one_run(SPEC, "shard_failover", 3, 1, False, "smoke")
        b = run.one_run(SPEC, "shard_failover", 3, 1, False, "smoke")
        for name in sim:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_corrupted_reference_digest_fails_the_run(self):
        code, out, err = run.run_fvbench("offload_mix", 1, 1, False, "smoke",
                                         extra=["--corrupt-reference"])
        self.assertEqual(code, 3)
        self.assertIn("correctness check failed", err)
        with self.assertRaises(run.BenchError):
            run.parse_result(out)


if __name__ == "__main__":
    unittest.main()
