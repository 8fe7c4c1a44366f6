#!/usr/bin/env python3
"""Tests for scripts/check_bench.py, run under ctest.

Each gate gets a passing BENCH document and, per bound, a document that
sits just on the wrong side of it. Stdlib only — part of the tier-1 suite.
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "scripts" / "check_bench.py"

GOOD_EC = {
    "repair_soak": {
        "rs": {"repair_bytes": 536870912},
        "azure_lrc": {"repair_bytes": 268435456},
        "hh_xor_plus": {"repair_bytes": 369098752},
    }
}

GOOD_SCALE = {
    "files": 50000,
    "events_per_second": 955000.0,
    "peak_rss_per_file": 2300.0,
    "judge_sweeps": 8,
    "snapshots_taken": 2,
    "snapshot_bytes": 40000000,
    "snapshot_save_seconds": 0.19,
    "snapshot_load_seconds": 0.15,
}


def run_check(kind, bench):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.json"
        path.write_text(json.dumps(bench))
        proc = subprocess.run([sys.executable, str(CHECKER), kind, str(path)],
                              capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def with_value(bench, path, value):
    out = copy.deepcopy(bench)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class EcGates(unittest.TestCase):
    def test_passing_document(self):
        code, out = run_check("ec", GOOD_EC)
        self.assertEqual(code, 0, out)

    def test_each_bound_fails(self):
        cases = {
            "rs repair_bytes > 0": (("repair_soak", "rs", "repair_bytes"), 0),
            "lrc repair_bytes > 0": (("repair_soak", "azure_lrc", "repair_bytes"), 0),
            "lrc below rs": (("repair_soak", "azure_lrc", "repair_bytes"), 536870912),
            "hh below rs": (("repair_soak", "hh_xor_plus", "repair_bytes"), 600000000),
        }
        for name, (path, value) in cases.items():
            with self.subTest(name):
                code, out = run_check("ec", with_value(GOOD_EC, path, value))
                self.assertEqual(code, 1, out)
                self.assertIn("FAIL", out)


class ScaleGates(unittest.TestCase):
    def test_passing_document(self):
        code, out = run_check("scale", GOOD_SCALE)
        self.assertEqual(code, 0, out)
        self.assertIn("events_per_second = 955000", out)

    def test_each_bound_fails(self):
        cases = {
            "rss per file": ("peak_rss_per_file", 16384.0),
            "file count": ("files", 49999),
            "throughput floor": ("events_per_second", 400000.0),
            "sweeps": ("judge_sweeps", 7),
            "snapshots": ("snapshots_taken", 3),
            "snapshot bytes": ("snapshot_bytes", 0),
        }
        for name, (key, value) in cases.items():
            with self.subTest(name):
                code, out = run_check("scale", with_value(GOOD_SCALE, (key,), value))
                self.assertEqual(code, 1, out)
                self.assertIn("FAIL", out)

    def test_missing_field_fails(self):
        bench = copy.deepcopy(GOOD_SCALE)
        del bench["judge_sweeps"]
        code, out = run_check("scale", bench)
        self.assertEqual(code, 1, out)


class Usage(unittest.TestCase):
    def test_unknown_kind_and_missing_file(self):
        code, _ = run_check("nope", GOOD_EC)
        self.assertEqual(code, 2)
        proc = subprocess.run([sys.executable, str(CHECKER), "ec", "/nonexistent.json"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
