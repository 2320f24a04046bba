"""Tests of the harness's own helpers.

Run from the repository root: python3 -m unittest discover perfbench
"""

import json
import unittest

import helpers


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))  # 1000 samples: 10 lie beyond p99
        self.assertEqual(helpers.percentile(values, 99), 990)
        with self.assertRaises(ValueError):
            helpers.percentile(values[:999], 99)

    def test_p50_is_nearest_rank(self):
        self.assertEqual(helpers.percentile(list(range(100, 0, -1)), 50), 50)

    def test_median(self):
        self.assertEqual(helpers.median([3, 1, 2]), 2)
        self.assertEqual(helpers.median([4, 1, 3, 2]), 2.5)


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        ms = 1_000_000
        # Requests due every 1 ms; the connection stalls for 50 ms after the
        # first request, so the next ones leave late and are answered late.
        records = [(0, 0, 1 * ms, 0, 1)]
        for i in range(1, 5):
            due = i * ms
            sent = 50 * ms + i * 10_000
            records.append((due, sent, sent + ms, 0, 1))
        latencies, lateness = helpers.open_loop_latencies(records)
        self.assertEqual(latencies[0], 1.0)
        # Each stalled request carries the stall it waited behind, not just
        # its 1 ms service time after it was finally sent.
        for i, latency in enumerate(latencies[1:], start=1):
            self.assertGreater(latency, 45.0)
            self.assertAlmostEqual(latency, lateness[i] + 1.0)

    def test_only_ok_answers_have_latency(self):
        records = [(0, 0, 10, 0, 1), (5, 5, 20, 1, 0), (9, 9, -1, -1, 0)]
        latencies, lateness = helpers.open_loop_latencies(records)
        self.assertEqual(len(latencies), 1)
        self.assertEqual(len(lateness), 3)

    def test_backlog_growth(self):
        self.assertFalse(helpers.backlog_growing([1, 2, 1, 2, 1, 2, 1, 2], 20))
        self.assertTrue(helpers.backlog_growing(
            [1, 2, 3, 5, 10, 20, 40, 80, 160], 20))


class AdjustedRandIndexTest(unittest.TestCase):
    def test_relabelled_partition_scores_one(self):
        a = [0, 0, 1, 1, 2, 2, 2]
        b = [5, 5, 3, 3, 9, 9, 9]
        self.assertAlmostEqual(helpers.adjusted_rand_index(a, b), 1.0)

    def test_known_value(self):
        # By hand: 2 joint pairs, 6 row pairs, 3 column pairs of 15 in all.
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 2, 2]
        self.assertAlmostEqual(helpers.adjusted_rand_index(a, b),
                               0.24242424242, places=9)

    def test_unrelated_partition_scores_below_one(self):
        a = [0, 1] * 50
        b = [0] * 50 + [1] * 50
        self.assertLess(abs(helpers.adjusted_rand_index(a, b)), 0.05)

    def test_subsample_mean_scores_each_subsample_on_its_own(self):
        # Subsample 0 agrees up to relabelling, subsample 1 is the known
        # 0.2424 case; items outside every subsample (-1) are ignored.
        items = [(0, 0, 7), (0, 0, 7), (0, 1, 4), (0, 1, 4), (-1, 5, 0)]
        items += [(1, a, b) for a, b in zip([0, 0, 0, 1, 1, 1],
                                            [0, 0, 1, 1, 2, 2])]
        self.assertAlmostEqual(helpers.mean_subsample_ari(items),
                               0.5 * (1.0 + 0.24242424242), places=9)
        with self.assertRaises(ValueError):
            helpers.mean_subsample_ari([(-1, 0, 0)])


class SpansTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [["cluster.validate", 0.0, 1.0, -1],
                 ["kernel.gram", 0.1, 0.3, 0],
                 ["linalg.eigensolve", 0.4, 0.9, 0],
                 ["model.save", 1.5, 2.0, -1]]
        times = helpers.self_times(spans)
        self.assertAlmostEqual(times["cluster.validate"], 0.3)
        self.assertAlmostEqual(times["kernel.gram"], 0.2)
        self.assertAlmostEqual(helpers.unattributed(2.5, spans), 1.0)


class ResultLineTest(unittest.TestCase):
    def test_metric_names_are_restricted(self):
        line = helpers.result_line(True, 3, 0, {"serve.p50-ms_1": (1.5, "ms")})
        self.assertEqual(json.loads(line)["metrics"]["serve.p50-ms_1"],
                         {"value": 1.5, "unit": "ms"})
        for bad in ("p99 ms", "lat/ms", "p50%", "", ".hidden", "x" * 65):
            with self.assertRaises(ValueError, msg=bad):
                helpers.result_line(True, 1, 0, {bad: (1.0, "ms")})


if __name__ == "__main__":
    unittest.main()
