#!/usr/bin/env python3
"""Fail when a PERF sidecar's throughput falls below its floors.

Usage: check_perf_floor.py SIDECAR.json [FLOOR] [--bench FILE ...]

Checks, in order (each only when the sidecar carries the field):

* ``total.minstr_per_sec >= FLOOR`` -- the serial floor positional
  argument used by bench/throughput's sidecar (omit FLOOR to skip).
* ``aggregate.minstr_per_sec >= $TRRIP_AGG_FLOOR`` -- the parallel
  aggregate floor for bench/throughput_parallel's sidecar.
* ``scaling.efficiency >= $TRRIP_SCALING_FLOOR`` -- minimum parallel
  scaling efficiency (aggregate / (serial * workers), in [0, 1]).
* ``trace.minstr_per_sec >= $TRRIP_TRACE_FLOOR`` -- the serial
  trace-replay floor for bench/trace_replay's sidecar.
* ``multicore.minstr_per_sec >= $TRRIP_MULTICORE_FLOOR`` -- the
  multi-core bundle floor for bench/multicore's sidecar.
* ``golden_fingerprints.matched == golden_fingerprints.total`` and
  ``deterministic == true`` -- unconditional when present: a perf
  number measured over wrong simulation behavior is meaningless.
* ``chaos`` block (bench/chaos's sidecar): faults were injected at
  >= 3 distinct sites, every retried grid converged, and the
  converged BENCH files were byte-identical to the fault-free run.
* ``--bench FILE``: each named BENCH_*.json is scanned for error
  rows.  The sidecar's ``error_rows.declared`` (default 0) is the
  total the run expects across all --bench files; undeclared error
  rows fail the check -- a cell silently failing in CI must never
  read as a pass.

Used by the CI jobs as coarse regression tripwires: every floor must
sit well below the measured baseline for the runner class, because
short-budget CI runs on shared runners are noisy, and the scaling
floor only means anything on a >= 4-core runner (set
TRRIP_SCALING_FLOOR there only).
"""

import argparse
import json
import os
import sys


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def count_error_rows(path: str) -> int:
    """Error rows in one BENCH json (cells carrying an error object)."""
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return sum(1 for cell in bench.get("cells", []) if "error" in cell)


def main() -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("sidecar")
    parser.add_argument("floor", nargs="?", type=float, default=None)
    parser.add_argument("--bench", action="append", default=[])
    try:
        args = parser.parse_args()
    except SystemExit:
        print(__doc__, file=sys.stderr)
        return 2
    floor = args.floor
    with open(args.sidecar, encoding="utf-8") as f:
        sidecar = json.load(f)

    status = 0

    golden = sidecar.get("golden_fingerprints")
    if golden is not None:
        matched, total = golden["matched"], golden["total"]
        print(f"golden fingerprints: {matched}/{total} matched")
        if matched != total:
            status |= fail(
                f"only {matched}/{total} golden fingerprints matched "
                "-- parallel execution changed simulation behavior.")
    if sidecar.get("deterministic") is False:
        status |= fail("the parallel pass diverged from the serial "
                       "pass -- scheduling leaked into simulation.")

    chaos = sidecar.get("chaos")
    if chaos is not None:
        sites = chaos.get("sites_injected", 0)
        print(f"chaos: {sites} sites injected, "
              f"{chaos.get('total_fired', 0)} faults fired")
        if sites < 3:
            status |= fail(
                f"faults were injected at only {sites} distinct sites "
                "-- the chaos matrix must cover >= 3.")
        if not chaos.get("converged", False):
            status |= fail("a retried grid did not converge under "
                           "injection -- retry containment is broken.")
        if not chaos.get("bench_identical", False):
            status |= fail(
                "a converged run's BENCH files differ from the "
                "fault-free run -- retries leaked into the output.")

    if args.bench:
        declared = sidecar.get("error_rows", {}).get("declared", 0)
        found = 0
        for bench_path in args.bench:
            n = count_error_rows(bench_path)
            found += n
            print(f"{bench_path}: {n} error rows")
        print(f"error rows: {found} found, {declared} declared")
        if found != declared:
            status |= fail(
                f"{found} error rows across the BENCH files but the "
                f"sidecar declares {declared} -- every contained "
                "failure must be accounted for, and no run may "
                "silently fail cells.")

    if floor is not None and "total" in sidecar:
        total = sidecar["total"]["minstr_per_sec"]
        print(f"total simulated throughput: {total:.2f} Minstr/s "
              f"(floor {floor:.2f})")
        if total < floor:
            status |= fail(
                f"{total:.2f} Minstr/s is below the {floor:.2f} "
                "Minstr/s floor -- the engine got slower; find the "
                "regression instead of lowering the floor.")

    agg_floor = os.environ.get("TRRIP_AGG_FLOOR")
    if agg_floor:
        if "aggregate" not in sidecar:
            status |= fail("TRRIP_AGG_FLOOR set but the sidecar has "
                           "no aggregate block.")
        else:
            agg = sidecar["aggregate"]["minstr_per_sec"]
            print(f"aggregate simulated throughput: {agg:.2f} "
                  f"Minstr/s (floor {float(agg_floor):.2f})")
            if agg < float(agg_floor):
                status |= fail(
                    f"{agg:.2f} aggregate Minstr/s is below the "
                    f"{float(agg_floor):.2f} floor -- the parallel "
                    "path got slower; find the regression instead of "
                    "lowering the floor.")

    trace_floor = os.environ.get("TRRIP_TRACE_FLOOR")
    if trace_floor:
        if "trace" not in sidecar:
            status |= fail("TRRIP_TRACE_FLOOR set but the sidecar has "
                           "no trace block.")
        else:
            rate = sidecar["trace"]["minstr_per_sec"]
            print(f"trace replay throughput: {rate:.2f} Minstr/s "
                  f"(floor {float(trace_floor):.2f})")
            if rate < float(trace_floor):
                status |= fail(
                    f"{rate:.2f} trace-replay Minstr/s is below the "
                    f"{float(trace_floor):.2f} floor -- trace replay "
                    "got slower; find the regression instead of "
                    "lowering the floor.")

    mc_floor = os.environ.get("TRRIP_MULTICORE_FLOOR")
    if mc_floor:
        if "multicore" not in sidecar:
            status |= fail("TRRIP_MULTICORE_FLOOR set but the sidecar "
                           "has no multicore block.")
        else:
            rate = sidecar["multicore"]["minstr_per_sec"]
            print(f"multi-core throughput: {rate:.2f} Minstr/s "
                  f"(floor {float(mc_floor):.2f})")
            if rate < float(mc_floor):
                status |= fail(
                    f"{rate:.2f} multi-core Minstr/s is below the "
                    f"{float(mc_floor):.2f} floor -- the bundle "
                    "driver got slower; find the regression instead "
                    "of lowering the floor.")

    eff_floor = os.environ.get("TRRIP_SCALING_FLOOR")
    if eff_floor:
        if "scaling" not in sidecar:
            status |= fail("TRRIP_SCALING_FLOOR set but the sidecar "
                           "has no scaling block.")
        else:
            eff = sidecar["scaling"]["efficiency"]
            workers = sidecar["scaling"].get("workers", 0)
            print(f"scaling efficiency: {eff:.3f} on {workers} "
                  f"workers (floor {float(eff_floor):.3f})")
            if eff < float(eff_floor):
                status |= fail(
                    f"scaling efficiency {eff:.3f} is below the "
                    f"{float(eff_floor):.3f} floor -- workers are "
                    "contending (false sharing, lock convoys, or an "
                    "unbalanced grid); find the contention instead "
                    "of lowering the floor.")

    return status


if __name__ == "__main__":
    sys.exit(main())
