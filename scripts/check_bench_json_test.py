#!/usr/bin/env python3
"""Unit tests for check_bench_json.py's deterministic comparison.

Run: python3 scripts/check_bench_json_test.py (ctest runs it as
check_bench_json_test).
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_json import RESERVED_PREFIXES, CheckError, compare  # noqa: E402


def histogram(count):
    return {"count": count, "sum": float(count),
            "buckets": [{"le": 1.0, "count": count}, {"le": None, "count": 0}]}


BASE = {
    "schema": "quicksand-bench-v1",
    "experiment": "unit",
    "claim": "the checker compares only what must not vary",
    "phases": [{"name": "run", "wall_ms": 1.5}],
    "total_wall_ms": 1.5,
    "counters": {"core.trials": 10},
    "gauges": {"core.peak": 3},
    "histograms": {"core.sizes": histogram(2), "core.step_ms": histogram(2)},
    "comparisons": [{"metric": "m", "paper": "1", "measured": "1"}],
    "results": {"value": 1},
}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def compare(self, first, second, resume=False):
        compare(self.write("a.json", first), self.write("b.json", second),
                resume)

    def test_reserved_namespaces_are_ignored(self):
        self.assertIn("pop.", RESERVED_PREFIXES)
        for prefix in RESERVED_PREFIXES:
            with self.subTest(prefix=prefix):
                a, b = copy.deepcopy(BASE), copy.deepcopy(BASE)
                a["counters"][prefix + "work"] = 1
                b["counters"][prefix + "work"] = 2
                a["gauges"][prefix + "level"] = 5
                b["histograms"][prefix + "sizes"] = histogram(7)
                self.compare(a, b)

    def test_timing_histogram_difference_is_ignored(self):
        b = copy.deepcopy(BASE)
        b["histograms"]["core.step_ms"] = histogram(9)
        b["phases"][0]["wall_ms"] = 99.0
        b["total_wall_ms"] = 99.0
        self.compare(BASE, b)

    def test_non_reserved_counter_difference_fails(self):
        b = copy.deepcopy(BASE)
        b["counters"]["core.trials"] = 11
        with self.assertRaisesRegex(CheckError, "counters.core.trials"):
            self.compare(BASE, b)

    def test_non_timing_histogram_difference_fails(self):
        b = copy.deepcopy(BASE)
        b["histograms"]["core.sizes"] = histogram(3)
        with self.assertRaises(CheckError):
            self.compare(BASE, b)

    def test_resume_requires_loaded_shards(self):
        resumed = copy.deepcopy(BASE)
        with self.assertRaisesRegex(CheckError, "did not resume"):
            self.compare(BASE, resumed, resume=True)
        resumed["counters"]["ckpt.resume.shards_loaded"] = 0
        with self.assertRaisesRegex(CheckError, "did not resume"):
            self.compare(BASE, resumed, resume=True)
        resumed["counters"]["ckpt.resume.shards_loaded"] = 3
        self.compare(BASE, resumed, resume=True)

    def test_invalid_document_fails(self):
        b = copy.deepcopy(BASE)
        del b["results"]
        with self.assertRaisesRegex(CheckError, "missing required key"):
            self.compare(BASE, b)


if __name__ == "__main__":
    unittest.main()
