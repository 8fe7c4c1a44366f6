#!/usr/bin/env python3
"""Check a BENCH_*.json file against the gates CI holds it to.

    python3 scripts/check_bench.py ec BENCH_ec.json
    python3 scripts/check_bench.py scale BENCH_scale.json

`ec` checks the repair_soak section that bench/repair_soak merges into
BENCH_ec.json: every codec moved repair bytes, and both repair-cheap codes
(Azure-LRC, Hitchhiker-XOR+) moved fewer than Reed-Solomon.

`scale` checks bench/macro_scale's output at CI's macro-scale-smoke
configuration (500 nodes / 50k files / 2M events, a snapshot every 4th
judge sweep):
  * peak RSS per file < 16384 B. Hot state must stay dense: a few KiB per
    file would mean a string-keyed map snuck back in somewhere.
  * files == 50000, judge_sweeps == 8, snapshots_taken == 2 and
    snapshot_bytes > 0: the smoke ran the configuration it claims.
  * events_per_second > 400000. The batched pipeline holds far more than
    that at this scale; the floor trips on a reverted fast path or a >30%
    structural regression stacked on a slow runner, not on runner noise.

Prints one line per checked figure. Exits 1 listing every failed gate, 2 on
a missing or unreadable file. Stdlib only.
"""

import json
import sys


def check_ec(bench):
    soak = bench["repair_soak"]
    failures = []
    for codec in ("rs", "azure_lrc", "hh_xor_plus"):
        if not soak[codec]["repair_bytes"] > 0:
            failures.append(f"{codec}: repair_bytes {soak[codec]['repair_bytes']} <= 0")
    for codec in ("azure_lrc", "hh_xor_plus"):
        if not soak[codec]["repair_bytes"] < soak["rs"]["repair_bytes"]:
            failures.append(f"{codec}: repair_bytes {soak[codec]['repair_bytes']} "
                            f">= rs {soak['rs']['repair_bytes']}")
    print("repair_soak trajectory:", soak)
    return failures


def check_scale(bench):
    failures = []
    per_file = bench["peak_rss_per_file"]
    eps = bench["events_per_second"]
    print(f"peak_rss_per_file = {per_file:.0f} bytes")
    print(f"events_per_second = {eps:.0f}")
    if not per_file < 16384:
        failures.append(f"hot state regressed: {per_file:.0f} B/file >= 16384")
    if bench["files"] != 50000:
        failures.append(f"files = {bench['files']}, expected 50000")
    if not eps > 400000:
        failures.append(f"replay throughput regressed: {eps:.0f} ev/s < 400000")
    if bench["judge_sweeps"] != 8:
        failures.append(f"judge_sweeps = {bench['judge_sweeps']}, expected 8")
    if bench["snapshots_taken"] != 2:
        failures.append(f"snapshots_taken = {bench['snapshots_taken']}, expected 2")
    if not bench["snapshot_bytes"] > 0:
        failures.append(f"snapshot_bytes = {bench['snapshot_bytes']}, expected > 0")
    else:
        print(f"snapshot: {bench['snapshot_bytes']} B, "
              f"save {bench['snapshot_save_seconds'] * 1e3:.1f} ms, "
              f"load {bench['snapshot_load_seconds'] * 1e3:.1f} ms")
    return failures


CHECKS = {"ec": check_ec, "scale": check_scale}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: {argv[0]} {{{'|'.join(CHECKS)}}} <BENCH json>", file=sys.stderr)
        return 2
    try:
        with open(argv[2]) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        print(f"check_bench: cannot read {argv[2]}: {err}", file=sys.stderr)
        return 2
    try:
        failures = CHECKS[argv[1]](bench)
    except (KeyError, TypeError) as err:
        failures = [f"missing or malformed field: {err}"]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
