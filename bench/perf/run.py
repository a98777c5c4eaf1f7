#!/usr/bin/env python3
"""Build trrip_perf from source, then run it with the given arguments.

    python3 bench/perf/run.py --workload fig6_serial --seed 1 \
        --seconds 10 --trace 0

Configures bench/perf into build/perf (Release) when that build does not
exist yet, brings it up to date, and runs build/perf/trrip_perf from the
repository root.  The last line of standard output is the result JSON;
build output goes to standard error.  A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "perf")


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "trrip_perf"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("run.py: building trrip_perf failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(BUILD, "trrip_perf")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
