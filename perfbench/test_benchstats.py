"""Tests for the benchmark's statistics and failure accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bs.percentile(values, 50), 50)
        self.assertEqual(bs.percentile(values, 99), 99)
        self.assertEqual(bs.percentile(values, 100), 100)
        self.assertEqual(bs.percentile(values, 0.1), 1)

    def test_median_is_a_sample(self):
        self.assertEqual(bs.median([4.0, 1.0, 3.0, 2.0]), 2.0)
        self.assertEqual(bs.median([5.0]), 5.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            bs.percentile([], 50)


class TailRuleTest(unittest.TestCase):
    """A percentile is reported only with at least ten samples beyond it."""

    def test_samples_beyond(self):
        self.assertEqual(bs.beyond(1000, 99), 10)
        self.assertEqual(bs.beyond(999, 99), 9)
        self.assertEqual(bs.beyond(10000, 99.9), 10)
        self.assertEqual(bs.beyond(20, 50), 10)

    def test_highest_supported(self):
        self.assertEqual(bs.highest_supported(10000), 99.9)
        self.assertEqual(bs.highest_supported(9999), 99.0)
        self.assertEqual(bs.highest_supported(1000), 99.0)
        self.assertEqual(bs.highest_supported(999), 95.0)
        self.assertEqual(bs.highest_supported(200), 95.0)
        self.assertEqual(bs.highest_supported(100), 90.0)
        self.assertEqual(bs.highest_supported(20), 50.0)
        self.assertIsNone(bs.highest_supported(19))

    def test_describe(self):
        self.assertEqual(bs.describe([0.0] * 1000), "n=1000, supports p99")
        self.assertEqual(bs.describe([0.0] * 5), "n=5, supports p-none-")

    def test_median_of_slice_tails(self):
        slices = [[1.0] * 985 + [k * 10.0] * 15 for k in (3, 1, 2)]
        self.assertEqual(bs.median_of_tails(slices), 20.0)
        self.assertEqual(bs.describe_slices(slices), "median of 3 slice p99s, n=1000+1000+1000")

    def test_every_slice_must_support_its_tail(self):
        with self.assertRaises(ValueError):
            bs.median_of_tails([[1.0] * 1000, [1.0] * 999])

    def test_tail_refuses_an_unsupported_percentile(self):
        bs.tail([1.0] * 1000, 99)
        with self.assertRaises(ValueError):
            bs.tail([1.0] * 999, 99)


class FailureAccountingTest(unittest.TestCase):
    """A failed or refused operation counts as attempted and misses every
    latency limit."""

    def test_failed_samples_are_infinite(self):
        raw = [1.0, bs.FAILED, 2.0]
        self.assertEqual(bs.samples_with_failures(raw), [1.0, math.inf, 2.0])
        self.assertEqual(bs.samples_with_failures(raw, failed_as=10.0), [1.0, 10.0, 2.0])
        self.assertEqual(bs.failures(raw), 1)

    def test_failures_push_the_tail(self):
        raw = [1.0] * 985 + [bs.FAILED] * 15
        values = bs.samples_with_failures(raw)
        self.assertEqual(bs.tail(values, 99), math.inf)
        self.assertEqual(bs.median(values), 1.0)

    def test_failures_at_the_middle_fail_the_median(self):
        values = bs.samples_with_failures([1.0, bs.FAILED, bs.FAILED])
        self.assertEqual(bs.median(values), math.inf)

    def test_op_counter(self):
        ops = bs.OpCounter()
        ops.add_samples("ping", [0.2, bs.FAILED, 0.3])
        ops.add("study", 4)
        ops.add("study", 2, 1)
        self.assertEqual(ops.classes["ping"], (3, 1))
        self.assertEqual(ops.classes["study"], (6, 1))
        self.assertEqual(ops.attempted, 9)
        self.assertEqual(ops.failed, 2)

    def test_more_failed_than_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.OpCounter().add("x", 1, 2)


class SerialSpanTest(unittest.TestCase):
    """The serial flag comes from span nesting in a threads=1 trace."""

    def test_serial_and_outermost(self):
        trace = {"events": [
            # name, ts, dur, tid: children close before parents
            ["traffic/shard", 0, 10, 0],
            ["traffic/shard", 10, 10, 0],
            ["traffic/merge", 20, 5, 0],
            ["traffic", 0, 25, 0],
            ["rca_join", 30, 8, 0],
            ["reconstruct", 30, 10, 0],
            ["analyze", 40, 6, 0],
        ]}
        serial, outermost = run.serial_spans(trace)
        self.assertEqual(serial, {"traffic/merge", "rca_join", "reconstruct", "analyze"})
        self.assertEqual(outermost, {"traffic/merge", "reconstruct", "analyze"})


if __name__ == "__main__":
    unittest.main()
