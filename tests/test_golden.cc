/**
 * @file
 * Golden-fingerprint equivalence guard for the per-access simulation
 * engine.
 *
 * The pinned tables and the counter-folding fingerprint live in
 * src/sim/golden.{hh,cc}: 19 single-core fingerprints (16 proxy
 * tuples, which bench/throughput_parallel re-verifies through the
 * worker pool, plus 3 trace-replay tuples) and 5 multi-core bundles
 * (pinned by tests/test_multicore.cc), 24 in total.  This test is the
 * ctest guard that runs the 19 single-core ones serially in every
 * configuration, including Debug + sanitizers.  Hot-path refactors
 * must keep simulated behavior bit-identical, so any change to the
 * fingerprints is a simulation-behavior change and must be justified,
 * not just re-pinned.  On mismatch the failure message contains the
 * full counter dump and the actual fingerprint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/codesign.hh"
#include "sim/golden.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

TEST(Golden, EngineFingerprintsAreBitIdentical)
{
    const bool print = std::getenv("TRRIP_PRINT_GOLDEN") != nullptr;
    for (const GoldenCase &c : goldenCases()) {
        CoDesignPipeline pipeline(proxyParams(c.workload));
        const RunArtifacts art = pipeline.run(c.policy, c.options());
        std::string dump;
        const std::uint64_t fp =
            goldenFingerprint(art.result, &dump);
        if (print) {
            std::printf("    {\"%s\", \"%s\", %s, %g, %llu, %u, %u, "
                        "0x%016llxull},\n",
                        c.workload, c.policy, c.pgo ? "true" : "false",
                        c.percentileHot,
                        static_cast<unsigned long long>(c.l2SizeKb),
                        c.l2Assoc, c.fdipLookahead,
                        static_cast<unsigned long long>(fp));
            continue;
        }
        EXPECT_EQ(fp, c.expected)
            << c.workload << " / " << c.policy
            << (c.pgo ? " (pgo)" : " (no-pgo)")
            << ": simulation behavior changed.  Counter dump:\n"
            << dump;
    }
}

TEST(Golden, TraceReplayFingerprintsAreBitIdentical)
{
    // The pack is regenerated in place: generation is byte-pure, so
    // the fingerprints pin generator + container + replay together.
    const std::string dir = "golden_mini_traces";
    trace::generateMiniTracePack(dir);

    const bool print = std::getenv("TRRIP_PRINT_GOLDEN") != nullptr;
    for (const TraceGoldenCase &c : traceGoldenCases()) {
        const RunArtifacts art = trace::runTrace(
            trace::miniTracePath(dir, c.trace), c.policy, c.options());
        std::string dump;
        const std::uint64_t fp =
            goldenFingerprint(art.result, &dump);
        if (print) {
            std::printf("    {\"%s\", \"%s\", %s, 0x%016llxull},\n",
                        c.trace, c.policy, c.pgo ? "true" : "false",
                        static_cast<unsigned long long>(fp));
            continue;
        }
        EXPECT_EQ(fp, c.expected)
            << "trace " << c.trace << " / " << c.policy
            << (c.pgo ? " (pgo)" : " (no-pgo)")
            << ": trace replay behavior changed.  Counter dump:\n"
            << dump;
    }
}

} // namespace
} // namespace trrip
