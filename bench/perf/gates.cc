/**
 * @file
 * Correctness gate: every pinned golden fingerprint (src/sim/golden.hh)
 * re-verified through this binary, on the worker pool.
 */

#include <cstdio>

#include "perf.hh"
#include "sim/golden.hh"
#include "sim/multicore.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "workloads/proxies.hh"

namespace trrip::perf {

GoldenReport
verifyGoldens(const std::string &trace_dir, unsigned jobs)
{
    trace::generateMiniTracePack(trace_dir);
    const std::vector<GoldenCase> &single = goldenCases();
    const std::vector<TraceGoldenCase> &traces = traceGoldenCases();
    const std::vector<MultiCoreGoldenCase> &bundles =
        multiCoreGoldenCases();

    exp::ExperimentSpec spec;
    spec.name = "perf_goldens";
    const std::size_t total = single.size() + traces.size() + bundles.size();
    for (std::size_t i = 0; i < total; ++i)
        spec.workloads.push_back("golden-" + std::to_string(i));
    spec.policies = {"pinned"};
    spec.onError.mode = exp::OnError::Mode::Skip;
    spec.runCell = [&](const exp::CellContext &ctx) {
        std::size_t i = ctx.id.workload;
        std::uint64_t fp = 0, expected = 0;
        std::string name;
        if (i < single.size()) {
            const GoldenCase &c = single[i];
            const CoDesignPipeline pipeline(proxyParams(c.workload));
            fp = goldenFingerprint(pipeline.run(c.policy, c.options()).result);
            expected = c.expected;
            name = std::string(c.workload) + " / " + c.policy;
        } else if ((i -= single.size()) < traces.size()) {
            const TraceGoldenCase &c = traces[i];
            fp = goldenFingerprint(
                trace::runTrace(trace::miniTracePath(trace_dir, c.trace),
                                c.policy, c.options())
                    .result);
            expected = c.expected;
            name = std::string("trace ") + c.trace + " / " + c.policy;
        } else {
            const MultiCoreGoldenCase &c = bundles[i - traces.size()];
            std::vector<std::string> cores = multiCoreWorkloadsOf(
                std::string(kMultiCorePrefix) + c.workloads);
            for (std::string &core : cores) {
                if (!core.empty() && core[0] == '@') {
                    core = trace::kTracePrefix +
                           trace::miniTracePath(trace_dir, core.substr(1));
                }
            }
            MultiCoreOptions mo;
            mo.base = c.options();
            fp = multiCoreFingerprint(runMultiCore(cores, c.policy, mo));
            expected = c.expected;
            name = std::string("mc:") + c.workloads + " / " + c.policy;
        }
        if (fp != expected) {
            std::fprintf(stderr, "golden mismatch: %s: 0x%016llx, pinned "
                                 "0x%016llx\n",
                         name.c_str(), static_cast<unsigned long long>(fp),
                         static_cast<unsigned long long>(expected));
        }
        exp::CellOutcome out;
        out.metrics["match"] = fp == expected ? 1.0 : 0.0;
        return out;
    };

    exp::ExperimentRunner runner(jobs);
    const exp::ExperimentResults results = runner.run(spec, {});
    GoldenReport report;
    report.total = total;
    for (const exp::CellRecord &cell : results.cells()) {
        const auto it = cell.metrics.find("match");
        if (it != cell.metrics.end() && it->second == 1.0)
            ++report.matched;
    }
    return report;
}

} // namespace trrip::perf
