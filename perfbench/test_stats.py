"""Tests of perfbench/stats.py, and of the metric tables run.py shares with
BENCHMARK.json.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond_between_p90_and_p99(self):
        values = list(range(1, 201))
        value, pct, beyond = stats.tail(values)
        self.assertEqual((value, pct, beyond), (190, 95.0, 10))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_large_samples_are_capped_at_p99(self):
        self.assertEqual(stats.tail(list(range(1, 1101))), (1089, 99.0, 11))
        self.assertEqual(stats.tail(list(range(1, 5001))), (4950, 99.0, 50))
        self.assertEqual(stats.tail(list(range(1, 1001))), (990, 99.0, 10))

    def test_down_to_the_median_ten_samples_lie_beyond(self):
        self.assertEqual(stats.tail(list(range(1, 101))), (90, 90.0, 10))
        self.assertEqual(stats.tail(list(range(1, 41))), (30, 75.0, 10))
        self.assertEqual(stats.tail(list(range(1, 21))), (10, 50.0, 10))

    def test_short_sample_is_floored_at_the_median(self):
        # With 17 samples the ten-beyond sample lies below the median; the
        # tail stays at the median and reports eight samples beyond.
        value, pct, beyond = stats.tail(list(range(17, 0, -1)))
        self.assertEqual((value, beyond), (9, 8))
        self.assertAlmostEqual(pct, 900 / 17)
        value, pct, beyond = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((value, beyond), (2.0, 1))
        self.assertAlmostEqual(pct, 200 / 3)
        self.assertEqual(stats.tail([7.0]), (7.0, 100.0, 0))

    def test_unsorted_input(self):
        values = [float(v) for v in range(500)][::-1]
        self.assertEqual(stats.tail(values), (489.0, 98.0, 10))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class QuartileTest(unittest.TestCase):
    values = [3.1, 0.4, 2.2, 9.0, 5.5, 4.4, 1.0, 7.7, 6.3, 8.8]

    def test_matches_statistics_quantiles(self):
        self.assertEqual(stats.quartiles(self.values),
                         tuple(statistics.quantiles(self.values, n=4)))

    def test_needs_two_samples(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])
        with self.assertRaises(ValueError):
            stats.median([])


class FailedShareTest(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(stats.failed_share(0, 250), 0.0)
        self.assertEqual(stats.failed_share(5, 250), 0.02)
        self.assertEqual(stats.failed_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for failed, attempted in [(0, 0), (-1, 5), (6, 5)]:
            with self.assertRaises(ValueError):
                stats.failed_share(failed, attempted)


class WinRuleTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]

    def test_nine_of_ten_beyond_the_spread_claims(self):
        change = [p - 10 for p in self.parent]
        change[0] = self.parent[0] + 1
        result = stats.win_rule(self.parent, change, "lower")
        self.assertEqual((result["wins"], result["pairs"]), (9, 10))
        self.assertTrue(result["claimed"])

    def test_eight_of_ten_does_not_claim(self):
        change = [p - 10 for p in self.parent]
        change[0] = change[1] = 200.0
        self.assertFalse(stats.win_rule(self.parent, change, "lower")["claimed"])

    def test_ties_count_for_neither_side(self):
        change = [p - 10 for p in self.parent]
        change[0], change[1] = self.parent[0], self.parent[1]
        result = stats.win_rule(self.parent, change, "lower")
        self.assertEqual(result["wins"], 8)
        self.assertFalse(result["claimed"])

    def test_gain_within_the_parent_spread_does_not_claim(self):
        change = [p - 0.5 for p in self.parent]
        result = stats.win_rule(self.parent, change, "lower")
        self.assertEqual(result["wins"], 10)
        self.assertFalse(result["claimed"])

    def test_direction(self):
        faster = [p * 1.2 for p in self.parent]
        self.assertTrue(stats.win_rule(self.parent, faster, "higher")["claimed"])
        self.assertFalse(stats.win_rule(self.parent, faster, "lower")["claimed"])
        with self.assertRaises(ValueError):
            stats.win_rule(self.parent, faster, "sideways")


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json and run.py name the same workloads and metrics."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))

    def test_end_to_end(self):
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(units, run.END_TO_END)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer(self):
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(units, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
