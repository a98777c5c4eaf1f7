#!/usr/bin/env python3
"""Smoke test of trrip_perf (registered with ctest as perf_smoke).

    smoke.py TRRIP_PERF BENCHMARK_JSON OUT_DIR

Runs every workload with --smoke (a tiny budget, one pass, the traced
run and every correctness check) and fails unless the run passes its
checks and each workload prints every metric BENCHMARK.json names, with
the unit BENCHMARK.json gives it.
"""

import json
import subprocess
import sys


def main():
    binary, benchmark_json, out = sys.argv[1:4]
    with open(benchmark_json) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    run = subprocess.run([binary, "--smoke", "--out", out],
                         stdout=subprocess.PIPE, text=True)
    print(run.stdout)
    if run.returncode != 0:
        print("perf_smoke: trrip_perf exited with %d" % run.returncode)
        return 1

    emitted = {}
    for line in run.stdout.splitlines():
        words = line.split()
        if len(words) >= 4:
            emitted[(words[0], words[1])] = words[3]
    problems = []
    for workload in workloads:
        for name, unit in units.items():
            got = emitted.get((workload, name))
            if got is None:
                problems.append("%s: %s not emitted" % (workload, name))
            elif got != unit:
                problems.append("%s: %s in %s, BENCHMARK.json says %s"
                                % (workload, name, got, unit))
    for problem in problems:
        print("perf_smoke: " + problem)
    if problems:
        return 1
    print("perf_smoke: %d workloads emit all %d metrics"
          % (len(workloads), len(units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
