#!/usr/bin/env bash
# Run every BENCH-writing bench of a build inside one output directory,
# so two runs (say TRRIP_JOBS=1 and TRRIP_JOBS=4, or two commits) can be
# compared file by file with cmp.
#
#   tools/bench_bytes.sh BUILD_DIR OUT_DIR
#
# Generates the mini-trace pack into OUT_DIR/mini_traces, then runs
# every bench of the build (each one writes BENCH files) with OUT_DIR
# as the working directory under the caller's environment
# (TRRIP_INSTR_MILLIONS, TRRIP_JOBS, ...).  Each bench's output goes to
# OUT_DIR/<bench>.log.  Exits non-zero if any bench fails.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
build=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" || exit 2
cd "$2" || exit 2

benches="ablation_trrip chaos fig1_topdown fig2_topdown_pgo
         fig3_reuse_distance fig6_speedup fig7_coverage
         fig8_hot_threshold fig9_cache_sensitivity micro_policy
         multicore sweep sweep_policy_params table3_mpki
         table4_power_area table5_pages trace_replay"

if ! "$build/trace_gen" mini_traces > trace_gen.log 2>&1; then
    echo "FAIL: trace_gen" >&2
    cat trace_gen.log >&2
    exit 1
fi

status=0
for bench in $benches; do
    if ! "$build/$bench" > "$bench.log" 2>&1; then
        echo "FAIL: $bench" >&2
        tail -n 20 "$bench.log" >&2
        status=1
    fi
done
exit $status
