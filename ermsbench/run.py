#!/usr/bin/env python3
"""Build and run one workload of the ERMS benchmark.

    python3 ermsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds ermsbench/ (and the repository's src/ libraries it compiles) with
CMake into $CARGO_TARGET_DIR/ermsbench (default .bench_build/ermsbench),
runs the benchmark binary, and re-prints its report line and, last, its
result line. Besides the binary's own checks, the simulated-outcome digest of
every (workload, seed) is remembered per source tree: a later run of the same
seed on the same sources that produces a different digest is marked
incorrect. See ermsbench/README.md for workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ermsbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ermsbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ERMS sources next to the benchmark (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_hash():
    """Hash of everything the binary is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_digest(bdir, workload, seed, digest):
    """Remember the first digest of (sources, workload, seed); False on mismatch."""
    store = os.path.join(bdir, "digests", source_hash())
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}.txt")
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    build(bdir)
    cmd = [os.path.join(bdir, "ermsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
    except (ValueError, KeyError):
        fail("benchmark printed no result")

    if not check_digest(bdir, args.workload, args.seed, report["digest"]):
        report["problems"].append("simulated-outcome digest differs from an earlier "
                                  "run of this seed on the same sources")
        result["correct"] = False
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"report": report}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
