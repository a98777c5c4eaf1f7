/**
 * @file
 * Edge cases and failure injection across modules: degenerate cache
 * geometries, single-way sets, empty workload populations, extreme
 * classifier inputs, and stress churn with prefetching enabled.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "core/policy_registry.hh"
#include "core/trrip_policy.hh"
#include "sim/simulator.hh"
#include "sw/temperature_classifier.hh"
#include "util/rng.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

SimOptions
withL2(SimOptions options, const std::string &spec)
{
    options.hier.l2Policy = spec;
    return options;
}

MemRequest
inst(Addr a, Temperature t = Temperature::None)
{
    MemRequest r;
    r.vaddr = r.paddr = a;
    r.pc = a;
    r.type = AccessType::InstFetch;
    r.temp = t;
    return r;
}

// --------------------- Degenerate cache shapes ----------------------

class OneWayPolicies : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OneWayPolicies, DirectMappedCacheWorks)
{
    const CacheGeometry geom{"dm", 1024, 1, 64}; // Direct mapped.
    Cache cache(geom, PolicySpec(GetParam()));
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        const MemRequest r = inst(rng.below(16 * 1024),
                                  rng.chance(0.5) ? Temperature::Hot
                                                  : Temperature::None);
        if (!cache.access(r))
            cache.fill(r);
    }
    EXPECT_EQ(cache.residentLines(), 16u);
}

TEST_P(OneWayPolicies, FullyAssociativeCacheWorks)
{
    const CacheGeometry geom{"fa", 1024, 16, 64}; // One set.
    Cache cache(geom, PolicySpec(GetParam()));
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        const MemRequest r = inst(rng.below(16 * 1024));
        if (!cache.access(r))
            cache.fill(r);
    }
    EXPECT_EQ(cache.residentLines(), 16u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, OneWayPolicies,
    ::testing::Values("LRU", "SRRIP", "BRRIP", "DRRIP", "SHiP", "CLIP",
                      "Emissary", "TRRIP-1", "TRRIP-2"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(EdgeHierarchy, PrefetchEnabledChurnKeepsInvariants)
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 2 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 2 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 8 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 16 * 1024, 4, 64};
    hp.enablePrefetch = true;
    hp.l2Policy = "TRRIP-2";
    CacheHierarchy h(hp);
    Rng rng(9);
    Cycles now = 0;
    for (int i = 0; i < 30000; ++i) {
        now += 10;
        if (rng.chance(0.5)) {
            h.instFetch(inst(rng.below(64 * 1024), Temperature::Hot),
                        now);
        } else {
            MemRequest r;
            r.vaddr = r.paddr = 0x100000 + rng.below(128 * 1024);
            r.pc = r.vaddr;
            r.type = rng.chance(0.3) ? AccessType::Store
                                     : AccessType::Load;
            h.dataAccess(r, now);
        }
        if (i % 4096 == 0) {
            ASSERT_TRUE(h.checkInclusion());
        }
    }
    EXPECT_TRUE(h.checkInclusion());
    EXPECT_GT(h.prefetchStats().issued, 0u);
}

// ------------------ In-flight tracker prune boundary ----------------

HierarchyParams
pruneParams(std::size_t threshold, Cycles grace)
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 2 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 2 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 8 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 16 * 1024, 4, 64};
    hp.enablePrefetch = false; // Only explicit instPrefetch calls.
    hp.inflightPruneThreshold = threshold;
    hp.inflightPruneGraceCycles = grace;
    return hp;
}

MemRequest
instPf(Addr a)
{
    MemRequest r = inst(a);
    r.type = AccessType::InstPrefetch;
    return r;
}

TEST(EdgeInflightPrune, ExactlyAtThresholdNeverSweeps)
{
    // The sweep runs only when the tracker holds MORE than
    // inflightPruneThreshold entries.  With exactly threshold entries,
    // even arbitrarily stale never-demanded prefetches must survive
    // and still materialize on a later demand.
    CacheHierarchy h(pruneParams(4, 100));
    for (Addr i = 0; i < 4; ++i)
        h.instPrefetch(instPf(0x40000 + i * 64), i);
    ASSERT_EQ(h.inflightSnapshot().size(), 4u);

    // Far beyond every entry's ready + grace; a demand still finds
    // the completed prefetch (no sweep ever ran).
    const AccessOutcome out = h.instFetch(inst(0x40000), 1'000'000);
    EXPECT_FALSE(out.l2DemandMiss);
    EXPECT_EQ(h.prefetchStats().covered, 1u);
    EXPECT_EQ(h.inflightSnapshot().size(), 3u);
}

TEST(EdgeInflightPrune, OneBeyondThresholdSweepsExpired)
{
    CacheHierarchy h(pruneParams(4, 100));
    for (Addr i = 0; i < 4; ++i)
        h.instPrefetch(instPf(0x40000 + i * 64), i);

    // The fifth insert exceeds the threshold and sweeps the four
    // stale entries (ready + grace long past), keeping only itself.
    h.instPrefetch(instPf(0x50000), 1'000'000);
    const auto entries = h.inflightSnapshot();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].first, 0x50000u);

    // A demand to a swept line is a full DRAM miss, not covered.
    const AccessOutcome out = h.instFetch(inst(0x40000), 2'000'000);
    EXPECT_TRUE(out.l2DemandMiss);
    EXPECT_EQ(out.servedBy, ServedBy::Dram);
    EXPECT_EQ(h.prefetchStats().covered, 0u);
}

TEST(EdgeInflightPrune, GraceBoundaryIsStrict)
{
    // An entry expires only when ready + grace < now -- at
    // now == ready + grace it must survive the sweep.
    const Cycles grace = 100;
    CacheHierarchy h(pruneParams(1, grace));
    h.instPrefetch(instPf(0x40000), 0);
    auto entries = h.inflightSnapshot();
    ASSERT_EQ(entries.size(), 1u);
    const Cycles ready = entries[0].second;

    // Sweep triggered exactly at the boundary: not expired yet.
    h.instPrefetch(instPf(0x41000), ready + grace);
    entries = h.inflightSnapshot();
    EXPECT_EQ(entries.size(), 2u);

    // One cycle later the first entry is strictly past the grace
    // period and the next over-threshold insert removes it.
    h.instPrefetch(instPf(0x42000), ready + grace + 1);
    entries = h.inflightSnapshot();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].first, 0x41000u);
    EXPECT_EQ(entries[1].first, 0x42000u);
}

// ----------------------- Classifier extremes ------------------------

TEST(EdgeClassifier, SingleBlockProgram)
{
    Program p;
    const auto f = p.addFunction("only", FuncKind::Handler);
    BasicBlock b;
    const auto bb = p.addBodyBlock(f, b);
    Profile prof(1);
    for (int i = 0; i < 10; ++i)
        prof.record(bb);
    const auto cls = classifyTemperature(p, prof, ClassifierOptions());
    EXPECT_EQ(cls.blockTemp[bb], Temperature::Hot);
}

TEST(EdgeClassifier, AllZeroProfileMakesEverythingCold)
{
    Program p;
    const auto f = p.addFunction("f", FuncKind::Handler);
    BasicBlock b;
    p.addBodyBlock(f, b);
    p.addBodyBlock(f, b);
    Profile prof(p.numBlocks());
    const auto cls = classifyTemperature(p, prof, ClassifierOptions());
    for (const auto t : cls.blockTemp)
        EXPECT_EQ(t, Temperature::Cold);
    EXPECT_EQ(cls.hotCountThreshold, 0u);
}

TEST(EdgeClassifier, UniformCountsAllHotAtDefault)
{
    Program p;
    const auto f = p.addFunction("f", FuncKind::Handler);
    BasicBlock b;
    std::vector<std::uint32_t> bbs;
    for (int i = 0; i < 100; ++i)
        bbs.push_back(p.addBodyBlock(f, b));
    Profile prof(p.numBlocks());
    for (const auto bb : bbs) {
        for (int i = 0; i < 7; ++i)
            prof.record(bb);
    }
    const auto cls = classifyTemperature(p, prof, ClassifierOptions());
    // Covering 99% of a uniform distribution needs ~all blocks.
    for (const auto bb : bbs)
        EXPECT_EQ(cls.blockTemp[bb], Temperature::Hot);
}

// ------------------------ Workload extremes -------------------------

TEST(EdgeWorkload, NoHelpersNoColdNoExternal)
{
    WorkloadParams p;
    p.numHandlers = 4;
    p.numHelpers = 0;
    p.numColdFuncs = 0;
    p.numExternalFuncs = 0;
    p.regions = {DataRegionSpec{}};
    const auto wl = buildWorkload(p);
    SimOptions opts;
    opts.maxInstructions = 50000;
    opts.profileInstructions = 20000;
    const auto art = runWorkload(wl, withL2(opts, "TRRIP-1"));
    EXPECT_GE(art.result.instructions, 50000u);
}

TEST(EdgeWorkload, NoDataRegions)
{
    WorkloadParams p;
    p.numHandlers = 4;
    p.numHelpers = 2;
    p.numColdFuncs = 1;
    p.numExternalFuncs = 1;
    p.regions.clear();
    const auto wl = buildWorkload(p);
    SimOptions opts;
    opts.maxInstructions = 50000;
    opts.profileInstructions = 20000;
    const auto art = runWorkload(wl, withL2(opts, "SRRIP"));
    EXPECT_EQ(art.result.l2.dataDemandAccesses, 0u);
}

TEST(EdgeWorkload, DepthOneNeverCalls)
{
    WorkloadParams p;
    p.numHandlers = 4;
    p.numHelpers = 4;
    p.regions = {DataRegionSpec{}};
    p.maxCallDepth = 1; // The dispatcher itself fills the stack.
    const auto wl = buildWorkload(p);
    const auto img =
        layoutProgram(wl.program, nullptr, nullptr, LayoutOptions());
    Executor ex(wl, img, ExecOptions{1, 0.8});
    BBEvent ev;
    for (int i = 0; i < 10000; ++i) {
        ex.next(ev);
        ASSERT_EQ(ex.stackDepth(), 1u);
    }
}

TEST(EdgeWorkload, HugeColdBloatLaysOutCleanly)
{
    WorkloadParams p;
    p.numHandlers = 4;
    p.regions = {DataRegionSpec{}};
    p.extraColdTextBytes = 256ull << 20; // 256 MiB of cold text.
    const auto wl = buildWorkload(p);
    SimOptions opts;
    opts.maxInstructions = 30000;
    opts.profileInstructions = 10000;
    const auto art = runWorkload(wl, withL2(opts, "TRRIP-1"));
    EXPECT_GE(art.image.textBytes(Temperature::Cold), 256ull << 20);
    EXPECT_GE(art.loadStats.codePages, (256ull << 20) / 4096);
}

// ------------------------ Sampler extremes --------------------------

TEST(EdgeSampler, SingleItemDomain)
{
    Rng rng(1);
    const WeightedSampler z(zipfWeights(1, 1.2));
    WeightedSampler w(std::vector<double>{5.0});
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(z.sample(rng), 0u);
        EXPECT_EQ(w.sample(rng), 0u);
    }
}

TEST(EdgeSampler, ZeroWeightNeverSampled)
{
    Rng rng(1);
    WeightedSampler w(std::vector<double>{1.0, 0.0, 1.0});
    for (int i = 0; i < 5000; ++i)
        EXPECT_NE(w.sample(rng), 1u);
}

TEST(EdgeSampler, WeightsProportional)
{
    Rng rng(1);
    WeightedSampler w(std::vector<double>{3.0, 1.0});
    int first = 0;
    for (int i = 0; i < 40000; ++i)
        first += w.sample(rng) == 0 ? 1 : 0;
    EXPECT_NEAR(first / 40000.0, 0.75, 0.02);
}

// --------------------- RRPV width sensitivity -----------------------

TEST(EdgeRrpv, ThreeBitTrripKeepsOrdering)
{
    const CacheGeometry geom{"l2", 4 * 1024, 4, 64};
    TrripPolicy p(geom, TrripVariant::V2, 3);
    EXPECT_EQ(p.distant(), 7);
    MemRequest warm = inst(0x100, Temperature::Warm);
    p.onFill(0, 0, warm);
    EXPECT_EQ(p.rrpvOf(0, 0), 1); // Near stays 1 regardless of width.
    MemRequest none = inst(0x100, Temperature::None);
    p.onFill(0, 1, none);
    EXPECT_EQ(p.rrpvOf(0, 1), 6); // Intermediate = max - 1.
}

} // namespace
} // namespace trrip
