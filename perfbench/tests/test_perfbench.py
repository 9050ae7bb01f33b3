"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class GeneratorDeterminism(unittest.TestCase):
    def test_snapshot_same_seed_same_bytes(self):
        a = workloads.halo_snapshot(7, n=3000)
        b = workloads.halo_snapshot(7, n=3000)
        self.assertEqual(a, b)

    def test_snapshot_different_seed_different_bytes(self):
        a = workloads.halo_snapshot(7, n=3000)
        b = workloads.halo_snapshot(8, n=3000)
        self.assertEqual(len(a), len(b))
        self.assertNotEqual(a, b)

    def test_snapshot_layout_matches_write_snapshot(self):
        n, box, blocks = 3000, 16.0, 4
        data = workloads.halo_snapshot(5, n=n, box=box, blocks=blocks)
        magic, box_r, mass, count, nb = struct.unpack_from("<QddQQ", data)
        self.assertEqual(magic, workloads.SNAPSHOT_MAGIC)
        self.assertEqual((box_r, mass, count, nb), (box, 1.0, n, blocks ** 3))
        table = struct.calcsize("<QddQQ")
        entry = struct.calcsize("<QQ6d")
        expect_offset = 0
        for b in range(nb):
            off, cnt, *bounds = struct.unpack_from("<QQ6d", data,
                                                   table + b * entry)
            self.assertEqual(off, expect_offset)
            expect_offset += cnt
            base = table + nb * entry + 24 * off
            for i in range(cnt):
                p = struct.unpack_from("<3d", data, base + 24 * i)
                for axis in range(3):
                    self.assertGreaterEqual(p[axis], bounds[axis])
                    self.assertLessEqual(p[axis], bounds[3 + axis])
        self.assertEqual(expect_offset, n)
        self.assertEqual(len(data), table + nb * entry + 24 * n)

    def test_halo_centers_keep_their_gap(self):
        box = 16.0
        radii = [0.2 + 0.01 * i for i in range(48)]
        centers = workloads._separated_centers(random.Random(3), radii, box)
        for i in range(len(radii)):
            for j in range(i):
                d = math.sqrt(sum(min(abs(a - b), box - abs(a - b)) ** 2
                                  for a, b in zip(centers[i], centers[j])))
                self.assertGreaterEqual(
                    d, radii[i] + radii[j] + workloads.HALO_GAP)


HARNESS = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench_harness")


@unittest.skipUnless(os.access(HARNESS, os.X_OK),
                     "perfbench_harness not built; run perfbench/run.py once")
class CostFileDeterminism(unittest.TestCase):
    """The scheduling workload's cost file comes from the harness's
    schedule-input mode (it needs the program's generator and FOF)."""

    def costs(self, seed, d):
        path = os.path.join(d, "costs-%d.bin" % seed)
        subprocess.run([HARNESS, "schedule-input", "--seed", str(seed),
                        "--items", "6000", "--ranks", "64", "--out", path],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        with open(path, "rb") as f:
            return f.read()

    def test_costs_seeded(self):
        with tempfile.TemporaryDirectory() as d:
            a, b, c = self.costs(3, d), self.costs(3, d), self.costs(4, d)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(a[:8], b"PBCOST01")
        items, ranks, box = struct.unpack_from("<QQd", a, 8)
        self.assertEqual((items, ranks, box), (6000, 64, 256.0))
        self.assertEqual(len(a), 32 + 6000 * 40)
        for i in range(items):
            x, y, z, pred, act = struct.unpack_from("<5d", a, 32 + 40 * i)
            self.assertTrue(0.0 <= min(x, y, z) and max(x, y, z) < box)
            self.assertGreater(pred, 0.0)
            self.assertEqual(act, pred)


def span(i, name, start, end, parent=-1, item=-1):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "item": item}


class SelfTimes(unittest.TestCase):
    def test_nested_tree(self):
        tree = [span(0, "replay", 0.0, 10.0),
                span(1, "gather", 1.0, 4.0, 0),
                span(2, "item", 5.0, 9.0, 0),
                span(3, "march", 6.0, 7.0, 2),
                span(4, "march", 7.5, 8.0, 2)]
        own = spans.self_times(tree)
        self.assertAlmostEqual(own[0], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 4.0 - 1.5)
        self.assertAlmostEqual(own[3], 1.0)
        by_name = spans.self_time_by_name(tree)
        self.assertAlmostEqual(by_name["march"], 1.5)
        # Self times partition the root's duration.
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_overlapping_and_escaping_children(self):
        tree = [span(0, "root", 0.0, 10.0),
                span(1, "a", 1.0, 5.0, 0),
                span(2, "b", 3.0, 6.0, 0),
                span(3, "late", 9.0, 12.0, 0)]
        own = spans.self_times(tree)
        # [1,6] is covered once; the late child counts only inside [0,10].
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 1.0)

    def test_parents_by_containment(self):
        flat = [{"name": n, "start": a, "end": b, "item": -1}
                for n, a, b in [("march", 6.0, 7.0), ("replay", 0.0, 10.0),
                                ("item", 5.0, 9.0), ("gather", 1.0, 4.0),
                                ("march", 7.5, 8.0)]]
        spans.assign_parents(flat)
        parent = {s["id"]: s["parent"] for s in flat}
        self.assertEqual(parent, {0: 2, 1: -1, 2: 1, 3: 1, 4: 2})
        self.assertAlmostEqual(spans.self_time_by_name(flat)["item"], 2.5)

    def test_parent_sharing_start(self):
        # A child opened in the same microsecond as its parent still nests.
        flat = [{"name": "inner", "start": 1.0, "end": 2.0, "item": 0},
                {"name": "outer", "start": 1.0, "end": 3.0, "item": 0}]
        spans.assign_parents(flat)
        self.assertEqual([s["parent"] for s in flat], [1, -1])

    def test_load_spans_round_trip(self):
        # The layout obs::TraceRecorder::to_json writes.
        events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": "rank 0"}},
                  {"name": "replay", "cat": "perfbench", "ph": "X",
                   "ts": 0.0, "dur": 2e6, "pid": 0, "tid": 0,
                   "args": {"cpu_s": 2.0}},
                  {"name": "march", "cat": "perfbench", "ph": "X",
                   "ts": 5e5, "dur": 1e6, "pid": 0, "tid": 0,
                   "args": {"item": 3.0, "cpu_s": 1.0}}]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
        try:
            loaded = spans.load_spans(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(len(loaded), 2)
        self.assertEqual(loaded[1]["item"], 3)
        self.assertEqual(loaded[1]["parent"], 0)
        self.assertEqual(spans.self_time_by_name(loaded),
                         {"replay": 1.0, "march": 1.0})


class Summaries(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(3))
        self.assertIsNone(stats.tail_percentile(39))
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        v = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(stats.percentile(v, 0), 1.0)
        self.assertEqual(stats.percentile(v, 50), 3.0)
        self.assertEqual(stats.percentile(v, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(v, 90), 4.6)

    def test_summarize_states_count_and_tail(self):
        small = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual(small, {"median": 2.0, "n": 3})
        big = stats.summarize([float(i) for i in range(1, 101)])
        self.assertEqual(big["n"], 100)
        self.assertEqual(big["median"], 50.5)
        self.assertAlmostEqual(big["p90"], 90.1)

    def test_quartile_spread(self):
        v = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # statistics.quantiles (exclusive): Q1 = 11.75, Q3 = 17.25.
        self.assertAlmostEqual(stats.quartile_spread(v), 5.5 / 14.5)


if __name__ == "__main__":
    unittest.main()
