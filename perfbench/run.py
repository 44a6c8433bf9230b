#!/usr/bin/env python3
"""Benchmark entry point for the SWDUAL repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Builds the perfbench program and the repository's
libraries from source into .bench_build/ (the first run builds), generates
the workload's inputs for the seed (outside any timing), runs the
measurement in its own process and prints, as the last line of stdout, one
JSON object: correct, attempted, failed and metrics. --smoke runs the
checker self-test and every workload on tiny inputs.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-trace")
WORKLOADS = ("paper-batch", "serve-cold-filtered", "serve-hot-mixed")
BUILD_JOBS = "3"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def check(cmd):
    """Runs a build or set-up step with its output on stderr."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("step failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to the benchmark; run from the "
             "root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    check(["cmake", "--build", BUILD, "--target", "perfbench",
           "-j", BUILD_JOBS])
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    binary = build()
    if args.smoke:
        sys.stdout.flush()
        return subprocess.run([binary, "smoke", "--data-dir", DATA,
                               "--out-dir", OUT]).returncode

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data-dir", DATA]
    check([binary, "generate"] + common)
    try:
        sys.stdout.flush()
        done = subprocess.run([binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", OUT])
    finally:
        for suffix in ("db", "queries"):
            path = os.path.join(DATA, "%s-%d-%s.swdb"
                                % (args.workload, args.seed, suffix))
            if os.path.exists(path):
                os.remove(path)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
