"""Self-tests of the benchmark's arithmetic.

    python3 hostbench/test_metrics.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as M  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(list(M.quartiles(values)),
                         statistics.quantiles(values, n=4))
        self.assertEqual(M.quartiles(values), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(M.spread(values), (q3 - q1) / 10.0)
        self.assertEqual(M.spread([5.0] * 4), 0.0)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 100 samples: rank 90 is p90, ten lie beyond it.
        self.assertEqual(M.samples_beyond(100, 0.9), 10)
        self.assertTrue(M.percentile_allowed(100, 0.9))
        self.assertFalse(M.percentile_allowed(99, 0.9))
        # The Figure 3 grid: 143 items leave 14 beyond p90.
        self.assertEqual(M.samples_beyond(143, 0.9), 14)
        self.assertTrue(M.percentile_allowed(143, 0.9))
        self.assertFalse(M.percentile_allowed(0, 0.5))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.nearest_rank(values, 0.9), 90)
        self.assertEqual(M.nearest_rank(values, 0.5), 50)
        self.assertEqual(M.nearest_rank([7.0], 0.9), 7.0)

    def test_tail_falls_back_to_max(self):
        few = [1.0, 5.0, 2.0, 3.0]
        self.assertEqual(M.tail(few, 0.9), (5.0, False))
        many = [float(i) for i in range(1, 144)]
        self.assertEqual(M.tail(many, 0.9), (129.0, True))


class SharesAndResidual(unittest.TestCase):
    def test_share_is_count_times_unit_over_run(self):
        # 1e6 events at 50 ns in a 0.2 s run hold a quarter of it.
        self.assertAlmostEqual(M.share(1_000_000, 50.0, 0.2), 0.25)

    def test_residual_completes_the_sum(self):
        shares = [0.25, 0.125, 0.0625]
        rest = M.residual(shares)
        self.assertAlmostEqual(rest, 0.5625)
        self.assertAlmostEqual(sum(shares) + rest, 1.0)
        self.assertEqual(M.residual([]), 1.0)

    def test_ratio_of_zero_base(self):
        self.assertEqual(M.ratio(3, 0), 0.0)
        self.assertEqual(M.ratio(3, 4), 0.75)


class CorrectnessGate(unittest.TestCase):
    recorded = {"radix/hlrc/AO": [10, 20, 30, 40]}

    def test_matching_signature_passes(self):
        self.assertEqual(M.check_simulation(
            "radix/hlrc/AO", True, [10, 20, 30, 40], self.recorded), [])

    def test_signature_mismatch_counts_as_failure(self):
        problems = M.check_simulation(
            "radix/hlrc/AO", True, [10, 20, 31, 40], self.recorded)
        self.assertEqual(len(problems), 1)
        self.assertIn("radix/hlrc/AO", problems[0])

    def test_failed_verify_counts_as_failure(self):
        problems = M.check_simulation(
            "radix/hlrc/AO", False, [10, 20, 30, 40], self.recorded)
        self.assertEqual(len(problems), 1)

    def test_unrecorded_simulation_fails(self):
        self.assertTrue(M.check_simulation("fft/sc/AO", True, [1],
                                           self.recorded))

    def test_fail_frac(self):
        sims = [("radix/hlrc/AO", True, [10, 20, 30, 40]),
                ("radix/hlrc/AO", True, [10, 20, 30, 41]),
                ("radix/hlrc/AO", False, [10, 20, 30, 40]),
                ("radix/hlrc/AO", True, [10, 20, 30, 40])]
        failed = sum(1 for name, ok, sig in sims
                     if M.check_simulation(name, ok, sig, self.recorded))
        self.assertEqual(failed, 2)
        self.assertEqual(M.fail_frac(failed, len(sims)), 0.5)
        self.assertEqual(M.fail_frac(0, 4), 0.0)
        self.assertEqual(M.fail_frac(0, 0), 1.0)


if __name__ == "__main__":
    unittest.main()
