#!/usr/bin/env python3
"""Interleaved A/B comparison of two trrip_perf builds.

    compare.py PARENT_BIN CHANGE_BIN [--seed S] [--pairs 10]
               [--seconds N] [--workloads a,b] [--out DIR]

Runs the two binaries with identical arguments in at least ten pairs
per workload, alternating which one runs first, and sorts every
workload x end-to-end metric of BENCHMARK.json into one verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither side) and the two medians differ by more than
              the parent's spread, the distance between its quartiles;
  unresolved  the parent's spread is wider than the metric's bound and
              not every change run beats every parent run;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unchanged   otherwise.

A change that fails its correctness checks, or fails more cells than
the parent, is reported as such and claims nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(binary, workload, args, out):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--trace", "0", "--out", out]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("compare.py: %s printed no result (exit %d)"
                 % (binary, done.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """One metric's verdict from its paired samples."""
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    gap = c_med - p_med if higher else p_med - c_med
    if wins * 10 >= 9 * len(parent) and gap > p_q3 - p_q1:
        return "improved", wins
    if abs(p_med) > 0 and (p_q3 - p_q1) / abs(p_med) > metric["bound"]:
        beats_all = (min(change) > max(parent) if higher
                     else max(change) < min(parent))
        if not beats_all:
            return "unresolved", wins
    if -gap > metric["bound"] * abs(p_med):
        return "worse", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--out",
                        default=os.path.join("build", "perf", "compare"))
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = {"parent": args.parent, "change": args.change}

    print("%-13s %-20s %14s %14s %6s  %s"
          % ("workload", "metric", "parent", "change", "wins", "verdict"))
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            for side in order:
                out = os.path.join(args.out, side)
                results[side].append(run(sides[side], workload, args, out))
        broken = [side for side in sides
                  if not all(r["correct"] for r in results[side])]
        failed = {side: sum(r["failed"] for r in results[side])
                  for side in sides}
        if broken or failed["change"] > failed["parent"]:
            print("%-13s %s" % (workload,
                  "incorrect: " + ", ".join(broken) if broken else
                  "change fails more cells (%d vs %d)"
                  % (failed["change"], failed["parent"])))
            continue
        for metric in metrics:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in results["parent"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            result, wins = verdict(metric, parent, change)
            print("%-13s %-20s %14.6g %14.6g %3d/%-2d  %s"
                  % (workload, name, statistics.median(parent),
                     statistics.median(change), wins, args.pairs, result))
            for side, values in (("parent", parent), ("change", change)):
                q1, q3 = quartiles(values)
                print("%-13s %-20s   %s median %.6g, quartiles %.6g .. %.6g"
                      % ("", "", side, statistics.median(values), q1, q3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
