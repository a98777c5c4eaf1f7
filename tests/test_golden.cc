/**
 * @file
 * Golden-fingerprint equivalence guard for the per-access simulation
 * engine.
 *
 * The pinned tables and the counter-folding fingerprint live in
 * src/sim/golden.{hh,cc}: 19 single-core fingerprints (16 proxy
 * tuples plus 3 trace-replay tuples) and 5 multi-core bundles
 * (pinned by tests/test_multicore.cc), 24 in total; bench/perf's
 * gate re-verifies all 24 through the worker pool.  This test is the
 * ctest guard that runs the 19 single-core ones serially in every
 * configuration, including Debug + sanitizers.  Hot-path refactors
 * must keep simulated behavior bit-identical, so any change to the
 * fingerprints is a simulation-behavior change and must be justified,
 * not just re-pinned.  On mismatch the failure message contains the
 * full counter dump and the actual fingerprint.
 *
 * The lane tests rerun every pinned case as one policy lane of a
 * three-lane group, once as the first lane and once as the last: a
 * lane must reproduce its solo fingerprint wherever it sits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/codesign.hh"
#include "sim/golden.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

/**
 * @p policy as the first and as the last of three lanes, next to two
 * other policies: (lanes, index of @p policy).
 */
std::vector<std::pair<std::vector<LaneSpec>, std::size_t>>
lanePlacements(const std::string &policy)
{
    std::vector<std::string> others;
    for (const char *other : {"LRU", "TRRIP-2", "SRRIP"})
        if (other != policy && others.size() < 2)
            others.push_back(other);
    return {{{{policy}, {others[0]}, {others[1]}}, 0},
            {{{others[0]}, {others[1]}, {policy}}, 2}};
}

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

TEST(Golden, LanesReproduceProxyFingerprints)
{
    for (const GoldenCase &c : goldenCases()) {
        CoDesignPipeline pipeline(proxyParams(c.workload));
        for (const auto &[lanes, at] : lanePlacements(c.policy)) {
            const std::vector<RunArtifacts> arts =
                pipeline.run(lanes, c.options());
            ASSERT_EQ(arts.size(), 3u);
            EXPECT_EQ(goldenFingerprint(arts[at].result), c.expected)
                << c.workload << " / " << c.policy << " as lane " << at
                << ": a lane diverged from its solo run.";
        }
    }
}

TEST(Golden, LanesReproduceTraceFingerprints)
{
    const std::string dir = "golden_mini_traces";
    trace::generateMiniTracePack(dir);
    for (const TraceGoldenCase &c : traceGoldenCases()) {
        const CoreInput core{
            .tracePath = trace::miniTracePath(dir, c.trace)};
        MultiCoreOptions mo;
        mo.base = c.options();
        for (const auto &[lanes, at] : lanePlacements(c.policy)) {
            const std::vector<MultiCoreResult> out =
                runBundle({core}, lanes, mo);
            ASSERT_EQ(out.size(), 3u);
            EXPECT_EQ(goldenFingerprint(out[at].cores[0].result),
                      c.expected)
                << "trace " << c.trace << " / " << c.policy
                << " as lane " << at
                << ": a lane diverged from its solo replay.";
        }
    }
}

} // namespace
} // namespace trrip
