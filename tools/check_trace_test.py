#!/usr/bin/env python3
"""Unit tests for tools/check_trace.py."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_trace  # noqa: E402


class CheckTraceTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "trace.json")

    def tearDown(self):
        self.dir.cleanup()

    def write(self, events):
        with open(self.path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events}, f)

    def test_complete_span_passes(self):
        self.write([{"ph": "M", "name": "process_name"},
                    {"ph": "X", "name": "infer", "ts": 0, "dur": 5}])
        self.assertIsNone(check_trace.check(self.path))
        self.assertEqual(check_trace.main([self.path]), 0)

    def test_no_complete_span_fails(self):
        self.write([{"ph": "i", "name": "instant", "ts": 0}])
        self.assertIn("no complete", check_trace.check(self.path))
        self.assertEqual(check_trace.main([self.path]), 1)

    def test_negative_duration_fails(self):
        self.write([{"ph": "X", "name": "infer", "ts": 0, "dur": 5},
                    {"ph": "X", "name": "bad", "ts": 9, "dur": -1}])
        self.assertIn("negative", check_trace.check(self.path))

    def test_unparsable_file_fails(self):
        with open(self.path, "w", encoding="utf-8") as f:
            f.write("{\"traceEvents\": [")
        self.assertIn("cannot read", check_trace.check(self.path))

    def test_failing_command_fails(self):
        self.write([{"ph": "X", "name": "infer", "ts": 0, "dur": 5}])
        self.assertEqual(
            check_trace.main([self.path, sys.executable, "-c",
                              "import sys; sys.exit(3)"]), 1)


if __name__ == "__main__":
    unittest.main()
