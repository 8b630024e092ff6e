"""Self-tests for the benchmark's arithmetic (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import stats  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_percentile_interpolates_between_ranks(self):
        values = [10, 20, 30, 40, 50]
        self.assertEqual(stats.percentile(values, 0), 10)
        self.assertEqual(stats.percentile(values, 50), 30)
        self.assertEqual(stats.percentile(values, 100), 50)
        # rank (5-1)*0.9 = 3.6: 40 + 0.6 * (50 - 40)
        self.assertAlmostEqual(stats.percentile(values, 90), 46.0)
        self.assertAlmostEqual(stats.percentile([5, 1], 25), 2.0)

    def test_percentile_of_one_value_and_bad_p(self):
        self.assertEqual(stats.percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 101)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_percentile_50_is_the_median(self):
        values = [9, 2, 7, 4, 4, 1]
        self.assertEqual(stats.percentile(values, 50), stats.median(values))

    def test_quartiles_match_statistics_quantiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # The exclusive method by hand: Q1 at rank (n+1)/4 = 2.75.
        self.assertAlmostEqual(stats.quartiles(values)[0], 2.75)
        self.assertAlmostEqual(stats.quartiles(values)[2], 8.25)

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([4, 4, 4, 4]), 0.0)


class HitRatio(unittest.TestCase):
    def test_ratio_and_base(self):
        self.assertEqual(stats.hit_ratio(12, 4), (0.75, 16))
        self.assertEqual(stats.hit_ratio(0, 3), (0.0, 3))

    def test_no_base_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.hit_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.hit_ratio(-1, 2)


class SpanSelfTime(unittest.TestCase):
    # root (10s) -> a (4s) -> a1 (1s), a2 (0.5s); root -> b (3s); c (2s)
    SPANS = [
        {"name": "bench.round", "id": 0, "parent": -1, "dur": 10.0},
        {"name": "api.job.chaos", "id": 1, "parent": 0, "dur": 4.0},
        {"name": "api.run", "id": 2, "parent": 1, "dur": 1.0},
        {"name": "api.teardown", "id": 3, "parent": 1, "dur": 0.5},
        {"name": "serve.job", "id": 4, "parent": 0, "dur": 3.0},
        {"name": "vm.fault", "id": 5, "parent": -1, "dur": 2.0},
    ]

    def test_self_time_subtracts_direct_children_only(self):
        own = stats.self_times(self.SPANS)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 3.0)
        self.assertAlmostEqual(own[1], 4.0 - 1.0 - 0.5)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[5], 2.0)

    def test_layer_self_times_sum_to_the_root_durations(self):
        layers = stats.layer_self_times(self.SPANS)
        self.assertAlmostEqual(layers["bench"], 3.0)
        self.assertAlmostEqual(layers["api"], 2.5 + 1.0 + 0.5)
        self.assertAlmostEqual(layers["serve"], 3.0)
        self.assertAlmostEqual(layers["vm"], 2.0)
        self.assertAlmostEqual(sum(layers.values()), 10.0 + 2.0)

    def test_chrome_events_convert_to_seconds(self):
        trace = {"traceEvents": [
            {"name": "api.run", "ph": "X", "ts": 5.0, "dur": 2500.0,
             "args": {"id": 3, "parent": -1, "run": 7}},
            {"name": "meta", "ph": "M"},
        ]}
        spans = stats.chrome_spans(trace)
        self.assertEqual(len(spans), 1)
        self.assertAlmostEqual(spans[0]["dur"], 0.0025)
        self.assertEqual(spans[0]["run"], 7)


class MetricReduction(unittest.TestCase):
    SINK = {
        "samples": {
            "setup_s": [3.0, 1.0, 2.0],
            "job_ms": [10, 20, 30, 40, 50],
            "step_ms.chaos@moldyn/inproc": [1.0, 1.0, 9.0],
            "step_ms.chaos@pagerank/inproc": [4.0, 4.0],
            "serve.hits": [12, 11],
            "serve.misses": [4, 5],
        },
        "exact": {"messages.chaos": 176},
    }

    def test_exact_median_percentile_and_classes(self):
        value = stats.metric_value
        self.assertEqual(value("messages.chaos", self.SINK), 176)
        self.assertEqual(value("setup_s", self.SINK), 2.0)
        self.assertEqual(value("job_ms.p50", self.SINK), 30)
        self.assertAlmostEqual(value("job_ms.p90", self.SINK), 46.0)
        # geometric mean of class medians 1.0 and 4.0
        self.assertAlmostEqual(value("step_ms.chaos", self.SINK), 2.0)
        self.assertIsNone(value("step_ms.hybrid", self.SINK))

    def test_hit_ratio_and_self_time_metrics(self):
        value = stats.layer_metric_value
        self.assertAlmostEqual(value("serve.hit_ratio", self.SINK, {}), 23 / 32)
        self.assertEqual(value("serve.hit_base", self.SINK, {}), 32)
        self.assertEqual(value("self_s.api", self.SINK, {"api": 1.5}), 1.5)
        self.assertIsNone(value("self_s.proc", self.SINK, {"api": 1.5}))


if __name__ == "__main__":
    unittest.main()
