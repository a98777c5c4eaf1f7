/**
 * @file
 * Mixed proxy + trace grid for the src/trace/ subsystem.
 *
 * Regenerates the deterministic mini-trace pack in place (no
 * downloads), prints each trace's record and block counts, then runs
 * proxy workloads and trace:<path> workloads on the same axes
 * through the standard sinks, producing BENCH_trace_replay.json
 * (byte-identical for any TRRIP_JOBS).  Replay speed is measured by
 * bench/perf's trace_replay workload; the trace goldens are pinned by
 * tests/test_golden.cc.  Env knobs: TRRIP_JOBS, TRRIP_TRACE_DIR
 * (where the pack is written; default mini_traces),
 * TRRIP_INSTR_MILLIONS, TRRIP_RESULTS_DIR.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    const char *env_dir = std::getenv("TRRIP_TRACE_DIR");
    const std::string dir = (env_dir && *env_dir) ? env_dir : "mini_traces";
    banner("Mini-trace pack (" + dir + ")");
    const std::vector<std::string> pack =
        trace::generateMiniTracePack(dir);
    for (const std::string &path : pack) {
        const trace::TraceIndex index = trace::buildTraceIndex(path);
        std::printf("%-40s %8llu records  %5zu blocks\n", path.c_str(),
                    static_cast<unsigned long long>(index.recordCount),
                    index.blocks.size());
    }

    ExperimentSpec spec;
    spec.name = "trace_replay";
    spec.title = "Mixed proxy + trace grid (trace:<path> workloads)";
    spec.workloads = {"python", "gcc"};
    for (const std::string &path : pack)
        spec.workloads.push_back(trace::kTracePrefix + path);
    spec.policies = {"SRRIP", "LRU", "TRRIP-2"};
    spec.options = defaultOptions();

    banner(spec.title);
    runExperiment(spec);
    return 0;
}
