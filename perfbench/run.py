#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload dsm-regular --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The driver and the runtime it measures are
compiled into $CARGO_TARGET_DIR (default .bench_build) with perfbench's own
CMakeLists.txt; an up-to-date build is a no-op.  Build output goes to
stderr, so the last stdout line is the driver's result object.  With
--trace 1 the spans are also written there as Chrome trace-event JSON
(trace-<workload>-seed<n>.json), which opens offline in Perfetto or
chrome://tracing.  perfbench/BENCHMARK.md describes workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    if a.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not a.workload:
        ap.error("--workload is required")

    driver = build("perfbench")
    trace_file = os.path.join(build_dir(),
                              "trace-%s-seed%d.json" % (a.workload, a.seed))
    cmd = [driver, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--trace-file", trace_file]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perfbench: driver failed with code %d" % run.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
