#!/usr/bin/env python3
"""Builds and runs the end-to-end feature-store benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve|train|ingest \\
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library from src/) in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs one workload. Build output goes to stderr; the benchmark's JSON
result is the last line of stdout. Traced runs also write their spans to
<build dir>/perfbench_traces/<workload>-<seed>.jsonl. Exits non-zero
without a result when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "train", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              + bench_dir, file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return 2
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build, "perfbench_work")]
    if args.trace:
        traces = os.path.join(build, "perfbench_traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
