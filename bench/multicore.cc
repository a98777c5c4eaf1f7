/**
 * @file
 * Multi-core bundle benchmark: N private {L1I, L1D, L2} stacks over
 * one shared SLC (sim/multicore.hh), exercised through the experiment
 * layer on two scenarios the single-core grids cannot express:
 *
 *  - "dueling": two-core bundles whose cores carry different
 *    temperature mixes compete for the shared SLC, swept over the SLC
 *    replacement policy (LRU / SRRIP / TRRIP-2 config variants) --
 *    the shared-level analogue of the paper's policy comparison.
 *  - "noisy": a solo instruction-hot core ("mc:gcc") against the same
 *    core sharing the SLC and DRAM channel with a streaming trace
 *    neighbor -- the per-core metrics expose exactly how much IPC the
 *    victim loses to bandwidth and capacity interference.
 *
 * Both grids write BENCH files, byte-identical whatever TRRIP_JOBS
 * is.  Bundle speed is measured by bench/perf's multicore_4c
 * workload; the multi-core goldens are pinned by
 * tests/test_multicore.cc.  Env knobs: TRRIP_JOBS,
 * TRRIP_INSTR_MILLIONS, TRRIP_TRACE_DIR, TRRIP_RESULTS_DIR.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"

namespace {

using namespace trrip;
using namespace trrip::exp;
using namespace trrip::bench;

const std::vector<std::string> kPolicies = {"SRRIP", "TRRIP-2"};

std::string
traceDir()
{
    const char *dir = std::getenv("TRRIP_TRACE_DIR");
    return (dir && *dir) ? dir : "mini_traces";
}

ExperimentSpec
duelingSpec()
{
    ExperimentSpec spec;
    spec.name = "multicore_dueling";
    spec.title = "Shared-SLC policy dueling "
                 "(mixed-temperature two-core bundles)";
    spec.workloads = {"mc:gcc+sqlite", "mc:python+rapidjson"};
    spec.policies = kPolicies;
    for (const char *slc : {"LRU", "SRRIP", "TRRIP-2"}) {
        ConfigVariant v;
        v.label = std::string("slc-") + slc;
        v.apply = [slc](SimOptions &o) {
            o.hier.slcPolicy = PolicySpec(slc);
        };
        spec.configs.push_back(std::move(v));
    }
    spec.options = defaultOptions();
    return spec;
}

ExperimentSpec
noisySpec(const std::string &dir)
{
    ExperimentSpec spec;
    spec.name = "multicore_noisy";
    spec.title = "Noisy neighbor: instruction-hot core vs streaming "
                 "trace core over one SLC";
    const std::string streaming =
        std::string(trace::kTracePrefix) +
        trace::miniTracePath(dir, "streaming");
    spec.workloads = {"mc:gcc", "mc:gcc+" + streaming};
    spec.policies = kPolicies;
    spec.options = defaultOptions();
    return spec;
}

} // namespace

int
main()
{
    const std::string dir = traceDir();
    banner("Mini-trace pack (" + dir + ")");
    trace::generateMiniTracePack(dir);

    const ExperimentSpec dueling = duelingSpec();
    const ExperimentSpec noisy = noisySpec(dir);

    banner(dueling.title);
    runExperiment(dueling);
    banner(noisy.title);
    const ExperimentResults noisy_results = runExperiment(noisy);

    // Interference report: solo IPC vs IPC next to the streamer.
    banner("Noisy-neighbor interference (core 0 = victim)");
    for (const std::string &policy : kPolicies) {
        const double solo =
            noisy_results.at("mc:gcc", policy).metrics.at("ipc");
        const auto &shared =
            noisy_results.at(noisy.workloads[1], policy).metrics;
        const double noisy_ipc = shared.at("core0_ipc");
        std::printf("%-12s solo %.4f IPC, shared %.4f IPC -> "
                    "%5.1f%% retained (neighbor %.4f IPC)\n",
                    policy.c_str(), solo, noisy_ipc,
                    solo > 0.0 ? 100.0 * noisy_ipc / solo : 0.0,
                    shared.at("core1_ipc"));
    }
    return 0;
}
