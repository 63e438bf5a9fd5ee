"""Self-tests of the benchmark's statistics and result schema.

    python3 -m unittest discover -s terabench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import stats
import run

ROOT = Path(__file__).resolve().parent.parent


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(v, n=4)
        self.assertEqual(stats.quartiles(v), (q[0], q[2]))

    def test_single_value_quartiles(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0))


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates(self):
        v = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(v, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(v, 90), 90.1)
        self.assertEqual(stats.percentile(v, 0), 1)
        self.assertEqual(stats.percentile(v, 100), 100)

    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(39))
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_tail_really_has_ten_samples_beyond(self):
        for n in (40, 57, 100, 130, 1000, 1234):
            v = list(range(n))
            p = stats.tail_percentile(n)
            cut = stats.percentile(v, p)
            self.assertGreaterEqual(sum(1 for x in v if x > cut), 10, n)

    def test_summarize(self):
        s = stats.summarize([float(i) for i in range(100)])
        self.assertEqual(s["count"], 100)
        self.assertEqual(s["median"], 49.5)
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertNotIn("tail", stats.summarize([1.0, 2.0]))


class ResultSchema(unittest.TestCase):
    UNITS = {"setup_s": "s", "solve_s": "s"}

    def good(self):
        return stats.make_result(True, 10, 0, {"setup_s": (0.5, "s"),
                                               "solve_s": (2.0, "s")})

    def test_good_result_passes(self):
        doc = json.loads(json.dumps(self.good()))
        self.assertEqual(stats.validate_result(doc, self.UNITS), [])
        self.assertEqual(sorted(doc), sorted(stats.RESULT_KEYS))

    def test_extra_top_level_key(self):
        doc = self.good()
        doc["extra"] = 1
        self.assertTrue(stats.validate_result(doc, self.UNITS))

    def test_missing_metric(self):
        doc = self.good()
        del doc["metrics"]["solve_s"]
        self.assertTrue(stats.validate_result(doc, self.UNITS))

    def test_wrong_unit_and_nonfinite(self):
        doc = self.good()
        doc["metrics"]["setup_s"]["unit"] = "ms"
        doc["metrics"]["solve_s"]["value"] = float("nan")
        self.assertEqual(len(stats.validate_result(doc, self.UNITS)), 2)

    def test_attempted_at_least_one(self):
        doc = stats.make_result(True, 0, 0, {"setup_s": (0.5, "s"),
                                             "solve_s": (2.0, "s")})
        self.assertTrue(stats.validate_result(doc, self.UNITS))


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json stays within the limits the runner relies on."""

    def test_spec(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(spec), sorted([
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"]))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_layer_metrics_zero_when_not_exercised(self):
        units = {"a.x": "s", "b.y": "count", "ns.step_ms_p50": "ms",
                 "ns.step_ms_count": "count"}
        rec = {"layers": {"a.x": 1.5, "unlisted": 3.0},
               "samples": {"ns.step_ms": [1.0, 2.0, 3.0]}}
        vals, missing = run.layer_values(rec, units)
        self.assertEqual(vals["a.x"], 1.5)
        self.assertEqual(vals["ns.step_ms_p50"], 2.0)
        self.assertEqual(vals["ns.step_ms_count"], 3)
        self.assertEqual(vals["b.y"], 0.0)
        self.assertEqual(missing, ["b.y"])
        self.assertNotIn("unlisted", vals)

    def test_merge_records_concatenates_repetitions(self):
        def rec(x, sel):
            return {"samples": {"solve_s": [x]}, "attempted": 26,
                    "failed": 0, "failed_checks": [],
                    "provenance": {"mxm_selections": sel}}
        acc = run.merge_records(None, rec(4.0, {"a": "f2"}))
        acc = run.merge_records(acc, rec(5.0, {"a": "fixed"}))
        self.assertEqual(acc["samples"]["solve_s"], [4.0, 5.0])
        self.assertEqual(acc["attempted"], 52)
        self.assertEqual(acc["provenance"]["mxm_selections"],
                         [{"a": "f2"}, {"a": "fixed"}])


if __name__ == "__main__":
    unittest.main()
