/**
 * @file
 * Tests for the interval core model, Top-Down accounting, and the
 * end-to-end simulator assembly (profile -> classify -> layout ->
 * load -> run).
 */

#include <gtest/gtest.h>

#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.name = "tiny";
    p.seed = 3;
    p.numHandlers = 24;
    p.numHelpers = 16;
    p.numColdFuncs = 8;
    p.numExternalFuncs = 4;
    p.regions = {DataRegionSpec{"heap", 512 * 1024}};
    return p;
}

SimOptions
fastOpts()
{
    SimOptions o;
    o.maxInstructions = 200000;
    o.profileInstructions = 100000;
    return o;
}

/** @p options with the L2 policy spec set. */
SimOptions
withL2(SimOptions options, const std::string &spec)
{
    options.hier.l2Policy = spec;
    return options;
}

TEST(TopDownTest, FractionsSumToOne)
{
    TopDown td;
    td.retire = 10;
    td.ifetch = 5;
    td.mispred = 3;
    td.depend = 2;
    td.issue = 1;
    td.mem = 4;
    td.other = 5;
    EXPECT_DOUBLE_EQ(td.total(), 30.0);
    const double sum = td.fraction(td.retire) + td.fraction(td.ifetch) +
                       td.fraction(td.mispred) + td.fraction(td.depend) +
                       td.fraction(td.issue) + td.fraction(td.mem) +
                       td.fraction(td.other);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(TopDownTest, EmptyIsSafe)
{
    TopDown td;
    EXPECT_DOUBLE_EQ(td.total(), 0.0);
    EXPECT_DOUBLE_EQ(td.fraction(td.retire), 0.0);
}

TEST(Simulator, DefaultBudgetRespectsEnv)
{
    setenv("TRRIP_INSTR_MILLIONS", "2.5", 1);
    EXPECT_EQ(defaultInstrBudget(), 2'500'000u);
    // Values that are not one decimal number spanning the whole
    // string, or not a finite count of at least one instruction that
    // fits InstCount, fall back to the default.
    for (const char *bad : {"1e-7", "inf", "1e30", "nan", "-1", "abc",
                            "2x", "6M", "0x10", " 2"}) {
        setenv("TRRIP_INSTR_MILLIONS", bad, 1);
        EXPECT_EQ(defaultInstrBudget(), 6'000'000u) << bad;
    }
    unsetenv("TRRIP_INSTR_MILLIONS");
    EXPECT_EQ(defaultInstrBudget(), 6'000'000u);
}

TEST(Simulator, ProfileCoversExecutedBlocks)
{
    const auto wl = buildWorkload(tinyParams());
    const auto prof = collectProfile(wl, 100000);
    EXPECT_GT(prof.total(), 0u);
    // The dispatcher must be the hottest function in any profile.
    const auto &disp = wl.program.function(wl.dispatcher);
    EXPECT_GT(prof.count(disp.body[0]), 20u);
}

TEST(Simulator, RunsExactInstructionBudget)
{
    const auto wl = buildWorkload(tinyParams());
    const auto art = runWorkload(wl, withL2(fastOpts(), "SRRIP"));
    EXPECT_GE(art.result.instructions, 200000u);
    EXPECT_LT(art.result.instructions, 201000u);
    EXPECT_GT(art.result.cycles, 0.0);
}

TEST(Simulator, CyclesMatchTopdownTotal)
{
    const auto wl = buildWorkload(tinyParams());
    const auto art = runWorkload(wl, withL2(fastOpts(), "SRRIP"));
    EXPECT_NEAR(art.result.cycles, art.result.topdown.total(),
                art.result.cycles * 1e-9);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const auto wl = buildWorkload(tinyParams());
    const auto a = runWorkload(wl, withL2(fastOpts(), "TRRIP-1"));
    const auto b = runWorkload(wl, withL2(fastOpts(), "TRRIP-1"));
    EXPECT_DOUBLE_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.l2.demandMisses, b.result.l2.demandMisses);
    EXPECT_EQ(a.result.branch.mispredicts, b.result.branch.mispredicts);
}

TEST(Simulator, PgoRunPopulatesTemperatureSections)
{
    const auto wl = buildWorkload(tinyParams());
    const auto art = runWorkload(wl, withL2(fastOpts(), "SRRIP"));
    EXPECT_TRUE(art.image.pgo);
    EXPECT_GT(art.image.textBytes(Temperature::Hot), 0u);
    EXPECT_GT(art.loadStats.pagesByTemp[encodeTemperature(
                  Temperature::Hot)],
              0u);
}

TEST(Simulator, NonPgoRunHasNoTemperature)
{
    const auto wl = buildWorkload(tinyParams());
    SimOptions opts = fastOpts();
    opts.pgo = false;
    const auto art = runWorkload(wl, withL2(opts, "SRRIP"));
    EXPECT_FALSE(art.image.pgo);
    EXPECT_EQ(art.image.textBytes(Temperature::Hot), 0u);
    EXPECT_EQ(art.result.l2HotEvictions, 0u);
}

TEST(Simulator, PgoLayoutImprovesFrontend)
{
    // Paper section 2.3: PGO raises retire and cuts ifetch stalls.
    auto params = tinyParams();
    params.numHandlers = 64; // Enough code to stress the L1I.
    params.numColdFuncs = 32;
    const auto wl = buildWorkload(params);
    SimOptions opts = fastOpts();
    opts.maxInstructions = 500000;
    const auto pgo = runWorkload(wl, withL2(opts, "SRRIP"));
    opts.pgo = false;
    const auto nonpgo = runWorkload(wl, withL2(opts, "SRRIP"));
    EXPECT_LT(pgo.result.cycles, nonpgo.result.cycles);
    EXPECT_LT(pgo.result.topdown.ifetch, nonpgo.result.topdown.ifetch);
}

TEST(Simulator, FdipReducesFetchStalls)
{
    const auto wl = buildWorkload(tinyParams());
    SimOptions opts = fastOpts();
    const auto with_fdip = runWorkload(wl, withL2(opts, "SRRIP"));
    opts.core.fdipEnabled = false;
    const auto without = runWorkload(wl, withL2(opts, "SRRIP"));
    EXPECT_LE(with_fdip.result.topdown.ifetch,
              without.result.topdown.ifetch);
    EXPECT_GT(with_fdip.result.prefetch.issued, 0u);
}

TEST(Simulator, MispredictPenaltyScalesMispredBucket)
{
    const auto wl = buildWorkload(tinyParams());
    SimOptions opts = fastOpts();
    opts.core.mispredictPenalty = 8;
    const auto base = runWorkload(wl, withL2(opts, "SRRIP"));
    opts.core.mispredictPenalty = 24;
    const auto heavy = runWorkload(wl, withL2(opts, "SRRIP"));
    EXPECT_GT(heavy.result.topdown.mispred,
              2.0 * base.result.topdown.mispred);
}

TEST(Simulator, SlowerDramRaisesStallBuckets)
{
    const auto wl = buildWorkload(tinyParams());
    SimOptions opts = fastOpts();
    const auto fast = runWorkload(wl, withL2(opts, "SRRIP"));
    opts.hier.dram.latency = 1200;
    const auto slow = runWorkload(wl, withL2(opts, "SRRIP"));
    EXPECT_GT(slow.result.cycles, fast.result.cycles);
    EXPECT_GE(slow.result.topdown.mem, fast.result.topdown.mem);
}

TEST(Simulator, BackendParamsFeedTopdown)
{
    auto params = tinyParams();
    params.dependStallPerInstr = 0.0;
    params.issueStallPerInstr = 0.0;
    params.otherStallPerInstr = 0.0;
    const auto wl0 = buildWorkload(params);
    const auto none = runWorkload(wl0, withL2(fastOpts(), "SRRIP"));
    EXPECT_DOUBLE_EQ(none.result.topdown.depend, 0.0);
    EXPECT_DOUBLE_EQ(none.result.topdown.issue, 0.0);

    params.dependStallPerInstr = 0.3;
    const auto wl1 = buildWorkload(params);
    const auto some = runWorkload(wl1, withL2(fastOpts(), "SRRIP"));
    EXPECT_NEAR(some.result.topdown.depend,
                0.3 * static_cast<double>(some.result.instructions),
                1e-6 * static_cast<double>(some.result.instructions));
}

TEST(Simulator, PrecomputedProfileShortCircuits)
{
    const auto wl = buildWorkload(tinyParams());
    const auto prof =
        std::make_shared<const Profile>(collectProfile(wl, 100000));
    SimOptions opts = fastOpts();
    opts.precomputedProfile = prof;
    const auto art = runWorkload(wl, withL2(opts, "SRRIP"));
    // Shared without copying: the artifacts reference the same object.
    EXPECT_EQ(art.profile.get(), prof.get());
    EXPECT_EQ(art.profile->total(), prof->total());
}

TEST(Simulator, TemperatureReachesL2Requests)
{
    // End-to-end plumbing check (compiler -> ELF -> PTE -> MMU ->
    // request): the L2 must observe hot-tagged instruction traffic.
    struct TempCounter : LaneProbe
    {
        std::uint64_t hot = 0, data = 0;
        void
        onL2Access(const MemRequest &req) override
        {
            if (!req.isInst())
                ++data;
            else if (req.temp == Temperature::Hot)
                ++hot;
        }
    } counter;
    const auto wl = buildWorkload(tinyParams());
    MultiCoreOptions mo;
    mo.base = fastOpts();
    runBundle({CoreInput{.workload = &wl}},
              {{PolicySpec("TRRIP-1"), &counter}}, mo);
    EXPECT_GT(counter.hot, 0u);
    EXPECT_GT(counter.data, 0u);
}

TEST(Simulator, HotEvictionsDropUnderTrrip)
{
    // The headline mechanism: TRRIP cuts hot-code evictions.
    auto params = tinyParams();
    params.numHandlers = 96;
    params.regions[0].sizeBytes = 2 << 20;
    params.regions[0].localityFraction = 0.7;
    const auto wl = buildWorkload(params);
    SimOptions opts = fastOpts();
    opts.maxInstructions = 800000;
    const auto srrip = runWorkload(wl, withL2(opts, "SRRIP"));
    const auto trrip = runWorkload(wl, withL2(opts, "TRRIP-1"));
    EXPECT_LT(trrip.result.l2HotEvictions, srrip.result.l2HotEvictions);
}

} // namespace
} // namespace trrip
