"""Tests of the benchmark's own logic (benchlib.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchlib  # noqa: E402


def window(stream, index, complete=True, wall=0.25):
    """A window line shaped like `khist watch --json` prints it."""
    report = ('{"analysis":"uniformity","n":256,"verdict":"accept","statistic":0.004,'
              f'"seed":7,"wall_seconds":{wall}}}')
    return (f'{{"stream":"{stream}","window":{index},"start":0,"end":200,"seen":200,'
            f'"kept":200,"complete":{str(complete).lower()},"reports":[{report}],'
            f'"drift":{{"analysis":"closeness_l2","seed":7,"wall_seconds":{wall / 10}}}}}').encode()


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile([3.0], 90), 3.0)
        self.assertIsNone(benchlib.percentile([], 50))

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(99), 89)
        self.assertEqual(benchlib.tail_percentile(200), 95)
        self.assertEqual(benchlib.tail_percentile(50), 80)
        self.assertIsNone(benchlib.tail_percentile(10))
        # At the rule's edge, exactly ten samples lie beyond the p90.
        values = list(range(100))
        p90 = benchlib.percentile(values, 90)
        self.assertEqual(sum(v > p90 for v in values), 10)


class GroupedPercentiles(unittest.TestCase):
    def test_one_slow_run_moves_one_group_only(self):
        runs = [list(range(100)) for _ in range(4)] + [[1000 + v for v in range(100)]]
        values, smallest = benchlib.grouped_percentiles(runs, (50, 90))
        self.assertEqual(values, {50: 49, 90: 89})
        self.assertEqual(smallest, 100)
        # Pooled, the slow run's samples would make up the whole tail.
        pooled = [v for run in runs for v in run]
        self.assertEqual(benchlib.percentile(pooled, 90), 1049)

    def test_short_runs_pool_until_a_group_supports_a_p90(self):
        runs = [[float(v) for v in range(40)] for _ in range(5)]
        values, smallest = benchlib.grouped_percentiles(runs, (90,))
        # Runs 1-3 make one group of 120, runs 4-5 join it as a remainder
        # too short for a group of their own.
        self.assertEqual(smallest, 200)
        self.assertEqual(values, {90: 35.0})
        self.assertEqual(benchlib.grouped_percentiles([], (50,)), ({50: None}, 0))


class Windows(unittest.TestCase):
    def test_window_counts_follow_the_record_counts(self):
        expected = benchlib.expected_windows([["a", 2500], ["b", 2000], ["c", 999]], 1000)
        self.assertEqual(expected, {"a": (2, 1), "b": (2, 0), "c": (0, 1)})

    def test_completions_index_the_sidecar(self):
        meta = {"streams": [["a", 400], ["b", 200]],
                "completions": [[199, 1990, 0, 0], [350, 3510, 1, 0], [399, 3999, 0, 1]]}
        self.assertEqual(benchlib.completions(meta, "record"),
                         {("a", 0): 199, ("b", 0): 350, ("a", 1): 399})
        self.assertEqual(benchlib.completions(meta, "byte_end")[("b", 0)], 3510)

    def test_window_key(self):
        self.assertEqual(benchlib.window_key(window("k07", 3)), ("k07", 3, True))
        self.assertEqual(benchlib.window_key(window("k07", 4, complete=False)), ("k07", 4, False))
        self.assertIsNone(benchlib.window_key(b'{"fleet":true,"streams":3}'))


class Digests(unittest.TestCase):
    def test_normalization_removes_only_wall_seconds(self):
        line = window("a", 0, wall=0.125)
        normalized = benchlib.normalize(line)
        self.assertNotIn(b"wall_seconds", normalized)
        self.assertEqual(normalized, benchlib.normalize(window("a", 0, wall=9.5)))
        parsed = json.loads(normalized)
        self.assertEqual(parsed["reports"][0]["statistic"], 0.004)
        self.assertEqual(normalized, line.replace(b',"wall_seconds":0.125', b"")
                         .replace(b',"wall_seconds":0.0125', b""))

    def test_digest_ignores_interleaving_and_wall_time(self):
        lines = [window("a", 0), window("b", 0), window("a", 1), b'{"fleet":true}']
        other = [window("b", 0, wall=1.0), window("a", 0, wall=2.0), window("a", 1, wall=3.0)]
        self.assertEqual(benchlib.report_digest(lines), benchlib.report_digest(other))
        # Window order within a stream matters.
        swapped = [window("a", 1), window("a", 0), window("b", 0)]
        self.assertNotEqual(benchlib.report_digest(lines), benchlib.report_digest(swapped))
        # So does any other byte.
        changed = [line.replace(b"0.004", b"0.005") for line in lines]
        self.assertNotEqual(benchlib.report_digest(lines), benchlib.report_digest(changed))


class Clocks(unittest.TestCase):
    def test_lines_arrive_with_the_read_that_completes_them(self):
        chunks = [(1.0, b"ab\ncd"), (2.0, b"e\n"), (3.0, b"f\ng\n")]
        self.assertEqual(benchlib.split_lines(chunks),
                         [(1.0, b"ab"), (2.0, b"cde"), (3.0, b"f"), (3.0, b"g")])

    def test_watch_latency_starts_when_the_completing_record_was_written(self):
        writes = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]
        byte_ends = {("a", 0): 10, ("a", 1): 25}
        lines = [(1.5, window("a", 0)), (4.5, window("a", 1)), (5.0, window("b", 0, complete=False))]
        self.assertEqual(benchlib.watch_latencies(lines, writes, 10, byte_ends), [0.5, 0.5])

    def test_probes_wait_for_the_next_accepted_write(self):
        writes = [(0.0, 1.0), (1.0, 1.5), (1.5, 4.0)]
        self.assertEqual(benchlib.residual_waits(writes, 0.0, 4.0, 0.5),
                         [1.0, 0.5, 0.5, 2.5, 2.0, 1.5, 1.0, 0.5])

    def test_fleet_lines_are_rollups_after_windows_and_replies_otherwise(self):
        fleet = b'{"fleet":true,"streams":1}'
        self.assertEqual(benchlib.classify(window("a", 0), False), "window")
        self.assertEqual(benchlib.classify(fleet, True), "rollup")
        self.assertEqual(benchlib.classify(fleet, False), "fleet")
        self.assertEqual(benchlib.classify(b'{"streams":1,"records":5}', True), "stats")
        self.assertEqual(benchlib.classify(b'{"subscribed":true}', False), "ack")
        self.assertEqual(benchlib.classify(b"ERR line 1: bad", False), "error")


class Declarations(unittest.TestCase):
    def test_benchmark_json_matches_the_workloads_and_units(self):
        path = os.path.join(HERE, "..", "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            declared = json.load(f)
        self.assertLessEqual({w["name"] for w in declared["workloads"]}, set(benchlib.WORKLOADS))
        for metric in declared["end_to_end"] + declared["per_layer"]:
            self.assertEqual(benchlib.UNITS[metric["name"]], metric["unit"], metric["name"])
        self.assertEqual(max(m["bound"] for m in declared["end_to_end"]),
                         next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s"))


if __name__ == "__main__":
    unittest.main()
