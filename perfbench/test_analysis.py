"""Unit tests of the benchmark's own arithmetic (analysis.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run.py also runs them before reporting any result.
"""

import unittest

import analysis


def span(name, start, end, trace=1, tid=1):
    return {"name": name, "start": start, "end": end, "tid": tid, "trace": trace}


def hist(*buckets):
    return {"n": sum(b[2] for b in buckets), "b": [list(b) for b in buckets]}


class PercentileSelection(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertTrue(analysis.supports(1000, 0.99))
        self.assertFalse(analysis.supports(999, 0.99))
        self.assertTrue(analysis.supports(10 ** 6, 0.99))

    def test_median_needs_twenty_samples(self):
        self.assertTrue(analysis.supports(20, 0.5))
        self.assertFalse(analysis.supports(19, 0.5))

    def test_bucket_interpolation(self):
        h = hist((100, 10, 50), (200, 20, 50))
        self.assertAlmostEqual(analysis.hist_quantile(h, 0.5), 110.0)
        self.assertAlmostEqual(analysis.hist_quantile(h, 0.75), 210.0)
        self.assertAlmostEqual(analysis.hist_quantile(h, 0.25), 105.0)

    def test_timing(self):
        t = analysis.timing(hist((1000, 10, 500), (5000, 100, 500)))
        self.assertEqual(t["n"], 1000)
        self.assertAlmostEqual(t["p50"], 1.01)  # scaled ns -> us
        self.assertAlmostEqual(t["tail"], 5.098)

    def test_timing_never_lowers_the_tail(self):
        with self.assertRaises(ValueError):
            analysis.timing(hist((1000, 10, 999)))
        self.assertAlmostEqual(analysis.timing(hist((1000, 10, 300)), tail=0.95)["tail"],
                               1.0095)

    def test_exact_quantile(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertAlmostEqual(analysis.median([1, 2, 3, 4]), 2.5)


class FailedOps(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(analysis.failed_ops_frac(1000, 0), 0.0)
        self.assertAlmostEqual(analysis.failed_ops_frac(1000, 5), 0.005)
        self.assertEqual(analysis.failed_ops_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            analysis.failed_ops_frac(0, 0)
        with self.assertRaises(ValueError):
            analysis.failed_ops_frac(10, 11)
        with self.assertRaises(ValueError):
            analysis.failed_ops_frac(10, -1)


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        op = [span("bench.op", 0, 100), span("a", 10, 40), span("b", 50, 90),
              span("c", 60, 70)]
        self.assertEqual(dict(analysis.self_times(op)),
                         {"bench.op": 30, "a": 30, "b": 30, "c": 10})

    def test_self_times_sum_to_root(self):
        op = [span("bench.op", 0, 1000), span("encoding.encode", 5, 50),
              span("store.put", 60, 990), span("pagestore.write", 100, 300, tid=2),
              span("pagestore.sync", 300, 900, tid=2)]
        selfs = dict(analysis.self_times(op))
        self.assertEqual(sum(selfs.values()), 1000)
        self.assertEqual(selfs["store.put"], 930 - 800)

    def test_overlapping_children_counted_once(self):
        op = [span("bench.op", 0, 100), span("x", 10, 40, tid=1),
              span("y", 30, 60, tid=2)]
        self.assertEqual(dict(analysis.self_times(op))["bench.op"], 50)

    def test_identical_intervals_do_not_cycle(self):
        op = [span("bench.op", 0, 100), span("inner", 0, 100)]
        selfs = analysis.self_times(op)
        self.assertEqual(sorted(v for _, v in selfs), [0, 100])

    def test_attributed_share(self):
        ops = [[span("bench.op", 0, 100, trace=1), span("store.get", 10, 90, trace=1)],
               [span("bench.op", 0, 100, trace=2), span("store.get", 0, 100, trace=2)]]
        self.assertAlmostEqual(analysis.attributed_share(ops), 0.9)

    def test_group_ops_drops_unattributed_spans(self):
        spans = [span("bench.op", 0, 10, trace=3), span("pagestore.sync", 0, 5, trace=0)]
        self.assertEqual(list(analysis.group_ops(spans)), [3])


class MergeSubtraction(unittest.TestCase):
    def test_facade_minus_shard_ranges(self):
        op = [span("bench.op", 0, 2000), span("sharded.range", 0, 1000)]
        op += [span("store.shard_range", 1000 + 100 * i, 1100 + 100 * i)
               for i in range(4)]
        self.assertEqual(analysis.merge_ns(op), 600)

    def test_unsharded_range_has_no_merge(self):
        op = [span("bench.op", 0, 500), span("store.range", 0, 400)]
        self.assertEqual(analysis.merge_ns(op), 0)


class Windows(unittest.TestCase):
    def test_median_over_windows(self):
        windows = [hist((1000, 10, 2000)), hist((3000, 10, 1000)),
                   hist((2000, 10, 1500))]
        t = analysis.windowed(windows, 0.5)
        self.assertEqual(t["windows"], 3)
        self.assertEqual(t["n"], 4500)
        self.assertAlmostEqual(t["p50"], 2.005)
        self.assertEqual(t["rate"], 3000.0)  # median of 4000, 2000, 3000 per s

    def test_thin_windows_merge_until_p99_is_supported(self):
        windows = [hist((1000, 10, 5000)), hist((1000, 10, 500)),
                   {"n": 0, "b": []}, hist((3000, 10, 600)), hist((1000, 10, 2000))]
        groups = analysis.tail_groups(windows, 0.99)
        self.assertEqual([g["n"] for g in groups], [5000, 1100, 2000])
        self.assertEqual(groups[1]["b"], [[1000, 10, 500], [3000, 10, 600]])
        t = analysis.windowed(windows, 0.5)
        self.assertEqual((t["windows"], t["groups"]), (5, 3))
        self.assertAlmostEqual(t["tail"], 1.0099)  # p99, median of the groups
        self.assertEqual(t["rate"], 1200.0)  # per window: 10000, 1000, 0, 1200, 4000

    def test_thin_remainder_joins_the_last_group(self):
        groups = analysis.tail_groups([hist((1000, 10, 5000)), hist((2000, 10, 10))], 0.99)
        self.assertEqual([g["n"] for g in groups], [5010])

    def test_refuses_a_phase_too_thin_for_p99(self):
        with self.assertRaises(ValueError):
            analysis.windowed([], 0.5)
        with self.assertRaises(ValueError):
            analysis.windowed([hist((1000, 10, 500)), hist((1000, 10, 499))], 0.5)


class EndToEnd(unittest.TestCase):
    def test_assembly(self):
        w = [hist((1000, 10, 2000))] * 3
        raw = {
            "num": {"peak_rss_mb": 6.0},
            "lists": {"setup_s": [3.0, 1.0, 2.0], "ingest_records_per_s": [5.0, 7.0, 6.0],
                      "recovery_s": [0.4, 0.2, 0.3], "bytes_per_record": [5.0, 4.0, 9.0]},
            "window_s": 0.5,
            "windows": {"get_ns": w, "put_ns": w, "range_ns": w},
        }
        m, ungated, notes = analysis.end_to_end(raw)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["ingest_records_per_s"], 6.0)
        self.assertEqual(m["recovery_s"], 0.3)
        self.assertEqual(m["bytes_per_record"], 5.0)
        self.assertEqual(m["peak_rss_mb"], 6.0)
        self.assertAlmostEqual(m["get_p50_us"], 1.005)
        self.assertAlmostEqual(m["get_p99_us"], 1.0099)
        self.assertEqual(m["reads_per_s"], 4000.0)
        self.assertNotIn("put_p99_us", m)
        self.assertAlmostEqual(ungated["put_p99_us"], 1.0099)
        self.assertTrue(notes["put_p99_us"].startswith("p99, median of 3 windows"))
        self.assertIn("not gated", notes["put_p99_us"])


if __name__ == "__main__":
    unittest.main()
