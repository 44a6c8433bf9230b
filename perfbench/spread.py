#!/usr/bin/env python3
"""Regenerates the reference figures in perfbench/README.md.

    python3 perfbench/spread.py --seeds 301-310 [--second-set 311-320]
                                [--seconds 30] [--workload W]

Run from the root of a checkout. Runs perfbench/run.py once per seed and
workload (untraced), then prints, for every end-to-end metric, the median
of the runs and the quartile spread (distance between the first and third
quartile, as statistics.quantiles(values, n=4) gives them, over the median),
plus the same for the host drift probe and the share of failed operations.

With --second-set, the runs of the two seed sets alternate (first set,
second set, first set, ...), and for every metric the second set's median
is compared with the first's: the change, as a share of the first median
and signed so that positive is worse, must stay within the metric's bound
in BENCHMARK.json.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

WORKLOADS = ("paper-batch", "serve-cold-filtered", "serve-hot-mixed")


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, done.stderr))
    result = json.loads(lines[-1])
    probe = [line for line in lines if line.startswith("host.probe_ms")]
    values = [float(x) for x in re.findall(r"\d+\.\d+", probe[0])]
    result["metrics"]["host.probe_ms"] = {
        "value": sum(values) / len(values), "unit": "ms"}
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(label, runs):
    """Prints one set's medians and spreads; returns the medians."""
    print("  %s (%d runs)" % (label, len(runs)))
    medians = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        medians[name] = statistics.median(values)
        print("    %-20s median %-12.6g %-6s spread %.3f" % (
            name, medians[name], first["unit"], spread(values)))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("    failed share: %s; correct: %s" % (
        shares, all(r["correct"] for r in runs)))
    return medians, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    parser.add_argument("--second-set", type=seed_list)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()
    if args.second_set and len(args.second_set) != len(args.seeds):
        parser.error("--second-set must have as many seeds as --seeds")
    with open("BENCHMARK.json") as spec:
        metrics = json.load(spec)["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    lower_better = {m["name"]: m["better"] == "lower" for m in metrics}
    for workload in [args.workload] if args.workload else WORKLOADS:
        sets = [args.seeds] + ([args.second_set] if args.second_set else [])
        runs = [[] for _ in sets]
        for i in range(len(args.seeds)):
            for s, seeds in enumerate(sets):
                runs[s].append(run(workload, seeds[i], args.seconds))
        print("== %s" % workload)
        summaries = [summarize("seeds %d-%d" % (seeds[0], seeds[-1]), r)
                     for seeds, r in zip(sets, runs)]
        if len(summaries) < 2:
            continue
        (first, first_shares), (second, second_shares) = summaries
        print("  second set against first (positive = worse):")
        for name in bounds:
            change = second[name] / first[name] - 1.0
            if not lower_better[name]:
                change = -change
            print("    %-20s %+.3f  bound %.2f  %s" % (
                name, change, bounds[name],
                "ok" if change <= bounds[name] else "OUTSIDE BOUND"))
        print("    failed share equal: %s" % (first_shares == second_shares))


if __name__ == "__main__":
    main()
