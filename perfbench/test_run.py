#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics: python3 perfbench/test_run.py"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_acceptance_rule(self):
        values = [7, 1, 9, 3, 5, 2, 8, 6, 4, 10]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))

    def test_nearest_rank_percentile(self):
        samples = list(range(1, 101))
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile(list(reversed(samples)), 90), 90)
        self.assertEqual(run.percentile([5.0], 90), 5.0)
        self.assertEqual(run.percentile([1, 2, 3], 0), 1)

    def test_samples_beyond_the_percentile(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertEqual(run.samples_beyond(108, 90), 10)
        self.assertEqual(run.samples_beyond(1000, 99), 10)

    def test_unit_best_takes_each_unit_across_passes(self):
        passes = [[1.0, 10.0, 5.0], [3.0, 30.0, 4.0], [2.0, 20.0, 100.0]]
        self.assertEqual(run.unit_best(passes), [1.0, 10.0, 4.0])
        self.assertEqual(run.unit_best([[7.0, 8.0]]), [7.0, 8.0])

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50)
        self.assertEqual(run.highest_percentile(99), 50)
        self.assertEqual(run.highest_percentile(100), 90)
        self.assertEqual(run.highest_percentile(999), 90)
        self.assertEqual(run.highest_percentile(1000), 99)
        self.assertEqual(run.highest_percentile(10000), 99.9)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times({0: (None, 1.0, 4.0)}), {0: 3.0})

    def test_children_are_subtracted_once_each(self):
        spans = {
            0: (None, 0.0, 10.0),
            1: (0, 1.0, 3.0),
            2: (0, 4.0, 8.0),
            3: (2, 5.0, 6.0),
        }
        self.assertEqual(run.self_times(spans), {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_overlapping_children_count_their_union(self):
        spans = {0: (None, 0.0, 10.0), 1: (0, 2.0, 6.0), 2: (0, 4.0, 7.0)}
        self.assertEqual(run.self_times(spans)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = {0: (None, 2.0, 6.0), 1: (0, 0.0, 3.0), 2: (0, 5.0, 9.0)}
        self.assertEqual(run.self_times(spans)[0], 2.0)

    def test_self_times_sum_to_the_root_duration(self):
        spans = {0: (None, 0.0, 10.0), 1: (0, 1.0, 9.0), 2: (1, 2.0, 3.0), 3: (1, 3.0, 8.5)}
        self.assertAlmostEqual(sum(run.self_times(spans).values()), 10.0)


if __name__ == "__main__":
    unittest.main()
