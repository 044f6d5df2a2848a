#!/usr/bin/env python3
"""End-to-end benchmark of the SODA serving stack.

Builds the library sources under src/ together with the benchmark program
in this directory (CMake, Release, its own build tree), then runs one
workload and forwards its output. The last line of stdout is
the result JSON.

    python3 perfbench/run.py --workload analyst_cold --seed 1 \
        --seconds 10 --trace 0

Workloads: analyst_cold, dashboard_fresh, session_steer. --trace 1
reports per-layer metrics and writes a Chrome trace_event span file
next to the build. The build tree is $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        log("perfbench: library sources (src/) not found; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyst_cold", "dashboard_fresh",
                                 "session_steer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        return 2

    command = [os.path.join(out, "soda_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", out]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        stdout, _ = process.communicate()
        sys.stderr.write(stdout)
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
