#!/usr/bin/env python3
"""Fail when a bench/perf record is wrong or slower than its floor.

Usage: check_perf_floor.py DIR NAME=FLOOR [NAME=FLOOR ...]

For each NAME, reads DIR/PERF_NAME.json (the trrip_perf/1 record that
``trrip_perf --out DIR`` writes) and fails unless ``correct`` is true,
``failed`` is 0 and ``end_to_end.minstr_per_s.median >= FLOOR``.  A
missing or unreadable record fails too.  Prints one line per workload
and exits 1 if any workload fails.

CI uses it as a coarse regression tripwire: every floor sits well
below the median measured on the runner class, because host time on
shared runners is noisy.  A speed-up is claimed only through
bench/perf/compare.py.
"""

import json
import os
import sys


def check(directory: str, name: str, floor: float) -> bool:
    path = os.path.join(directory, f"PERF_{name}.json")
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        rate = float(record["end_to_end"]["minstr_per_s"]["median"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"{name}: FAIL: no usable record at {path} ({err!r})")
        return False
    problems = []
    if record.get("correct") is not True:
        problems.append("correct is not true")
    if record.get("failed") != 0:
        problems.append(f"{record.get('failed')} cells failed")
    if not rate >= floor:
        problems.append(f"below the {floor:g} Minstr/s floor -- find "
                        "the regression instead of lowering the floor")
    verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
    print(f"{name}: {rate:.2f} Minstr/s median (floor {floor:g}), "
          f"correct={record.get('correct')}, "
          f"failed={record.get('failed')}/{record.get('attempted')} "
          f"cells: {verdict}")
    return not problems


def main(argv: list) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    floors = []
    for arg in argv[2:]:
        name, _, value = arg.partition("=")
        try:
            floors.append((name, float(value)))
        except ValueError:
            print(f"bad NAME=FLOOR argument: {arg!r}", file=sys.stderr)
            return 2
    ok = [check(argv[1], name, floor) for name, floor in floors]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
