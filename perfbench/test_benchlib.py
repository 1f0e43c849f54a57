"""Unit tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_known_values(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(bl.percentile(xs, 0), 1)
        self.assertEqual(bl.percentile(xs, 100), 10)
        self.assertAlmostEqual(bl.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(bl.percentile(xs, 90), 9.1)
        self.assertAlmostEqual(bl.percentile(xs, 25), 3.25)

    def test_order_does_not_matter(self):
        self.assertAlmostEqual(bl.percentile([10, 1, 5], 50), 5)
        self.assertEqual(bl.percentile([7], 99), 7)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_beyond_counts_the_tail(self):
        xs = list(range(1, 201))
        self.assertEqual(bl.beyond(xs, 90), 20)
        self.assertEqual(bl.beyond(xs, 99), 2)

    def test_pass_percentile_is_the_median_over_passes(self):
        # Eleven op kinds: each pass's p90 is its tenth-fastest op, and the
        # run's value is the median of those over passes.
        passes = [[float(kind) + off for kind in range(1, 12)] for off in (0.3, 0.1, 0.2)]
        self.assertAlmostEqual(bl.pass_percentile(passes, 90), 10.2)
        self.assertAlmostEqual(bl.pass_percentile(passes, 50), 6.2)
        # One outlier pass does not move it.
        passes.append([100.0] * 11)
        self.assertAlmostEqual(bl.pass_percentile(passes, 90), 10.25)
        # Four regime ops: p90 interpolates between the third and the fourth.
        self.assertAlmostEqual(bl.pass_percentile([[1.0, 2.0, 3.0, 4.0]], 90), 3.7)


class ProbeCountTest(unittest.TestCase):
    def test_spreads_the_window_over_the_ops(self):
        self.assertEqual(bl.probe_counts(4, 6), [1, 2, 1, 2])
        self.assertEqual(bl.probe_counts(11, 6), [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1])
        self.assertEqual(bl.probe_counts(3, 3), [1, 1, 1])
        for n in range(1, 15):
            self.assertEqual(sum(bl.probe_counts(n, 6)), 6)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(bl.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_known_values(self):
        q1, med, q3 = bl.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_steadiness_shares(self):
        st = bl.steadiness([90.0, 95.0, 100.0, 105.0, 110.0])
        self.assertAlmostEqual(st["median"], 100.0)
        self.assertAlmostEqual(st["range_share"], 0.2)
        self.assertAlmostEqual(st["iqr_share"], (st["q3"] - st["q1"]) / 100.0)


class PlanTest(unittest.TestCase):
    def test_cli_passes_are_a_function_of_the_seed(self):
        for w in ("batch", "regime"):
            a = bl.take(bl.cli_passes(w, 7), 5)
            self.assertEqual(a, bl.take(bl.cli_passes(w, 7), 5))
            self.assertNotEqual(a, bl.take(bl.cli_passes(w, 8), 5))

    def test_every_pass_holds_each_op_once(self):
        for order in bl.take(bl.cli_passes("batch", 3), 4):
            self.assertEqual(sorted(k for k, _, _ in order), sorted(bl.KERNELS))
        for order in bl.take(bl.cli_passes("regime", 3), 4):
            self.assertEqual(sorted(order), sorted((k, p, False) for k, p in bl.REGIME))

    def test_serve_sequence_is_a_function_of_the_seed(self):
        a = bl.take(bl.serve_cycles(11), 3)
        self.assertEqual(a, bl.take(bl.serve_cycles(11), 3))
        self.assertNotEqual(a, bl.take(bl.serve_cycles(12), 3))

    def test_serve_mix(self):
        answered = {bl.SERVE_WARM_KEY}
        for cycle in bl.take(bl.serve_cycles(5), 4):
            self.assertEqual(len(cycle), bl.SERVE_BLOCK * len(bl.KERNELS))
            misses = [r for r in cycle if r[0] == "miss"]
            self.assertEqual(sorted(r[1] for r in misses), sorted(bl.KERNELS))
            for kind, kernel, grid in cycle:
                self.assertEqual(len(grid), bl.SERVE_GRID_POINTS)
                self.assertTrue(set(grid) <= set(bl.DENSE))
                self.assertEqual((grid[0], grid[-1]), (bl.DENSE[0], bl.DENSE[-1]))
                if kind == "miss":
                    self.assertNotIn((kernel, grid), answered)
                    answered.add((kernel, grid))
                else:
                    self.assertIn((kernel, grid), answered)


class OracleTest(unittest.TestCase):
    TEXT = ("# header\n\n"
            "mgs 64,32 5 lru 100\n"
            "mgs 64,32 5 min_next_use 90\n")

    def test_parse(self):
        table = bl.parse_expected(self.TEXT)
        self.assertEqual(table, {("mgs", "64,32", 5, "lru"): 100,
                                 ("mgs", "64,32", 5, "min_next_use"): 90})

    def test_parse_rejects_malformed_lines(self):
        for bad in ("mgs 64,32 5 lru\n", "mgs 64,32 5 fifo 3\n", "mgs 64,32 x lru 3\n",
                    "mgs 64,32 5 lru 1\nmgs 64,32 5 lru 1\n"):
            with self.assertRaises(ValueError):
                bl.parse_expected(bad)

    def test_committed_file_parses_and_covers_every_config(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "expected_loads.txt")) as f:
            table = bl.parse_expected(f.read())
        kernels = {k for k, _, _, _ in table}
        self.assertEqual(kernels, set(bl.KERNELS))
        self.assertEqual(len(table), (len(bl.KERNELS) + len(bl.REGIME)) * 2 * len(bl.DENSE))

    def test_check_rows(self):
        table = bl.parse_expected(self.TEXT)
        good = [{"kernel": "mgs", "params": [64, 32], "s": 5, "policy": "lru",
                 "loads": 100, "sound": True}]
        self.assertEqual(bl.check_rows(good, table, 1), [])
        wrong = [dict(good[0], loads=101)]
        self.assertEqual(len(bl.check_rows(wrong, table, 1)), 1)
        unsound = [dict(good[0], sound=False)]
        self.assertEqual(len(bl.check_rows(unsound, table, 1)), 1)
        self.assertEqual(len(bl.check_rows(good, table, 2)), 1)

    def test_check_tightness(self):
        ok = [{"points": [{"s": 4, "lower_bound": 1.0, "upper_loads": 2,
                           "program_order_loads": 3}]}]
        self.assertEqual(bl.check_tightness(ok, 1), [])
        bad = [{"points": [{"s": 4, "lower_bound": 1.0, "upper_loads": 4,
                            "program_order_loads": 3}]}]
        self.assertEqual(len(bl.check_tightness(bad, 1)), 1)


if __name__ == "__main__":
    unittest.main()
