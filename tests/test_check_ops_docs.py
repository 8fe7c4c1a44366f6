#!/usr/bin/env python3
"""Tests for scripts/check_ops_docs.py, run under ctest.

Each case lays out a miniature repository (config headers, an OPERATIONS.md
and a copy of the checker) in a temporary directory and runs the checker
there. Stdlib only — part of the tier-1 suite.
"""

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "scripts" / "check_ops_docs.py"

HEADERS = {
    "src/core/erms.h": """
struct ErmsConfig {
  judge::Thresholds thresholds;
  /// Parities per stripe.
  std::uint32_t parity_count = 4;
  sim::SimDuration frozen_age = sim::hours(72.0);
  sim::SimDuration job_timeout{};
};
""",
    "src/judge/thresholds.h": """
struct Thresholds {
  double tau_M = 8.0;
  sim::SimDuration window = sim::seconds(60.0);
  [[nodiscard]] bool valid() const {
    return tau_M > 0.0;
  }
};
""",
    "src/judge/predictor.h": """
class AccessPredictor {
 public:
  struct Config {
    double alpha = 0.5;
  };
};
""",
    "src/hdfs/cluster.h": """
struct ClusterConfig {
  std::size_t namespace_shards = 1;
  std::uint64_t seed = 42;
};
""",
    "src/util/knob.cpp": 'const char* k = std::getenv("ERMS_FIXTURE_KNOB");\n',
}

OPS = """# OPERATIONS

## 1. `ErmsConfig` (src/core/erms.h)

| Field | Default | Meaning |
|---|---|---|
| `thresholds` | see §2 | Thresholds. |
| `parity_count` | `4` | Parities. |
| `frozen_age` | `72 h` | Band boundary. |
| `job_timeout` | `0` | Watchdog. |

### 1.1 Scale knobs (`hdfs::ClusterConfig`, src/hdfs/cluster.h)

| Field | Default | Meaning |
|---|---|---|
| `namespace_shards` | `1` | Shards. |

## 2. `judge::Thresholds` (src/judge/thresholds.h)

| Field | Default | Meaning |
|---|---|---|
| `tau_M` | `8.0` | Hot threshold. |
| `window` | `60 s` | Window. |

## 3. `AccessPredictor::Config` (src/judge/predictor.h)

| Field | Default | Meaning |
|---|---|---|
| `alpha` | `0.5` | Level smoothing. |

## 4. Environment variables

| Variable | Meaning |
|---|---|
| `ERMS_FIXTURE_KNOB` | A knob. Prose may still mention `data_shards`. |
"""


def run_check(headers=None, ops=OPS):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "scripts").mkdir()
        shutil.copy(CHECKER, root / "scripts" / CHECKER.name)
        for rel, text in (headers or HEADERS).items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        (root / "docs").mkdir()
        (root / "docs" / "OPERATIONS.md").write_text(ops)
        proc = subprocess.run([sys.executable, str(root / "scripts" / CHECKER.name)],
                              capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def add_row(ops, after, row):
    assert after in ops
    return ops.replace(after, after + "\n" + row, 1)


class OpsDocsCheck(unittest.TestCase):
    def test_matching_docs_pass(self):
        code, out = run_check()
        self.assertEqual(code, 0, out)

    def test_undocumented_field_fails(self):
        headers = dict(HEADERS)
        headers["src/core/erms.h"] = HEADERS["src/core/erms.h"].replace(
            "};", "  std::size_t sweep_threads = 1;\n};")
        code, out = run_check(headers)
        self.assertEqual(code, 1, out)
        self.assertIn("ErmsConfig: sweep_threads", out)

    def test_field_with_call_initializer_counts(self):
        # `frozen_age = sim::hours(72.0)` is a member, not a method.
        code, out = run_check(ops=OPS.replace("| `frozen_age` | `72 h` | Band boundary. |\n", ""))
        self.assertEqual(code, 1, out)
        self.assertIn("ErmsConfig: frozen_age", out)

    def test_undocumented_env_knob_fails(self):
        code, out = run_check(ops=OPS.replace("`ERMS_FIXTURE_KNOB`", "ERMS_FIXTURE_KNOB"))
        self.assertEqual(code, 1, out)
        self.assertIn("environment: ERMS_FIXTURE_KNOB", out)

    def test_stale_row_fails_in_every_config_table(self):
        cases = {
            "ErmsConfig": ("| `parity_count` | `4` | Parities. |",
                           "| `data_shards` | `8` | Removed field. |"),
            "ClusterConfig": ("| `namespace_shards` | `1` | Shards. |",
                              "| `replica_cap` | `3` | Never existed. |"),
            "Thresholds": ("| `window` | `60 s` | Window. |",
                           "| `valid` | — | A method, not a field. |"),
            "Config": ("| `alpha` | `0.5` | Level smoothing. |",
                       "| `gamma` | `0.1` | Removed field. |"),
        }
        for struct, (after, row) in cases.items():
            with self.subTest(struct):
                code, out = run_check(ops=add_row(OPS, after, row))
                self.assertEqual(code, 1, out)
                self.assertIn("no longer has", out)
                name = row.split("`")[1]
                self.assertIn(f"{struct} (", out)
                self.assertIn(f": {name}", out)

    def test_rows_outside_config_tables_are_not_checked(self):
        ops = add_row(OPS, "| `ERMS_FIXTURE_KNOB` | A knob. Prose may still mention `data_shards`. |",
                      "| `ERMS_OTHER` | Documented but unused knobs are harmless. |")
        code, out = run_check(ops=ops)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
