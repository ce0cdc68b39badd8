#!/usr/bin/env python3
"""Builds and runs the cvmt end-to-end and per-layer benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig10|table1|fuzz --seed N \\
        --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
simulator library from ../src plus the perfbench binary) into
.bench_build/perfbench; later runs only check the build is current. Build
output goes to stderr. The binary's standard output is relayed unchanged:
metric lines, then one JSON result object as the last line.

Every run also reproduces the small default-seed canary committed in
perfbench/digests.json. At the default seed the run itself must reproduce
the committed digests too; at any other seed it prints its digests so two
commits can be compared. A traced run (--trace 1) writes its spans to
.bench_build/perfbench/trace-<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
CLI = os.path.join(BUILD_DIR, "cvmt", "cvmt")
DIGESTS = os.path.join(HERE, "digests.json")
# A run must end within three minutes, even on a slow machine.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The environment without CVMT_* overrides, so every run resolves the
    experiments' default parameters exactly as a bare `cvmt run` does."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CVMT_")}


def build(targets=("perfbench",)):
    """Configures (once) and builds `targets`; exits on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("simulator sources not found next to perfbench/ (expected "
             "CMakeLists.txt and src/ in %s)" % ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                 + list(targets))
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env())
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fig10", "table1", "fuzz"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", DIGESTS]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
