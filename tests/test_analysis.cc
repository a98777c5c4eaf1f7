/**
 * @file
 * Tests for the analysis library: reuse-distance profiler (Fig. 3
 * methodology), costly-miss coverage (Fig. 7), both as lane probes,
 * page accounting (Table 5), and the Belady oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/belady.hh"
#include "analysis/costly_miss.hh"
#include "analysis/page_accounting.hh"
#include "analysis/reuse_distance.hh"
#include "core/codesign.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

MemRequest
instAt(Addr a, Temperature t)
{
    MemRequest r;
    r.vaddr = r.paddr = a;
    r.type = AccessType::InstFetch;
    r.temp = t;
    return r;
}

MemRequest
loadAt(Addr a)
{
    MemRequest r;
    r.vaddr = r.paddr = a;
    r.type = AccessType::Load;
    return r;
}

// ----------------------- Reuse distance ----------------------------

CacheGeometry
oneSetGeom()
{
    // Single set so distances are easy to reason about.
    return CacheGeometry{"g", 8 * 64, 8, 64};
}

TEST(ReuseDistance, ExactDistancesSingleSet)
{
    ReuseDistanceProfiler prof(oneSetGeom());
    const Addr hot = 0x0;
    prof.onL2Access(instAt(hot, Temperature::Hot));
    // Three unique other lines before re-access.
    prof.onL2Access(loadAt(0x40));
    prof.onL2Access(loadAt(0x80));
    prof.onL2Access(loadAt(0xc0));
    prof.onL2Access(instAt(hot, Temperature::Hot));
    ASSERT_EQ(prof.base().total(), 1u);
    EXPECT_EQ(prof.base().count(0), 1u); // Distance 3 -> bucket 0-4.
}

TEST(ReuseDistance, DuplicateInterveningLinesCountOnce)
{
    ReuseDistanceProfiler prof(oneSetGeom());
    const Addr hot = 0x0;
    prof.onL2Access(instAt(hot, Temperature::Hot));
    for (int i = 0; i < 10; ++i)
        prof.onL2Access(loadAt(0x40)); // Same line ten times.
    prof.onL2Access(instAt(hot, Temperature::Hot));
    EXPECT_EQ(prof.base().count(0), 1u); // Distance 1, not 10.
}

TEST(ReuseDistance, HotOnlyVariantIgnoresNonHot)
{
    // The paper's "~" measurement: only hot lines count as
    // interference.
    ReuseDistanceProfiler prof(oneSetGeom());
    const Addr hot = 0x0;
    prof.onL2Access(instAt(hot, Temperature::Hot));
    for (int i = 1; i <= 6; ++i)
        prof.onL2Access(loadAt(i * 0x40));            // 6 data lines.
    prof.onL2Access(instAt(7 * 0x40, Temperature::Hot)); // 1 hot line.
    prof.onL2Access(instAt(hot, Temperature::Hot));
    // Base distance = 7 -> bucket 5-8; hot-only = 1 -> bucket 0-4.
    EXPECT_EQ(prof.base().count(1), 1u);
    EXPECT_EQ(prof.hotOnly().count(0), 1u);
}

TEST(ReuseDistance, NonHotAccessesNotRecorded)
{
    ReuseDistanceProfiler prof(oneSetGeom());
    prof.onL2Access(loadAt(0x0));
    prof.onL2Access(loadAt(0x0));
    prof.onL2Access(instAt(0x40, Temperature::Warm));
    prof.onL2Access(instAt(0x40, Temperature::Warm));
    EXPECT_EQ(prof.base().total(), 0u);
}

TEST(ReuseDistance, SetsAreIndependent)
{
    CacheGeometry g{"g", 2 * 8 * 64, 8, 64}; // 2 sets.
    ReuseDistanceProfiler prof(g);
    const Addr hot0 = 0x0;   // Set 0.
    const Addr hot1 = 0x40;  // Set 1.
    prof.onL2Access(instAt(hot0, Temperature::Hot));
    // Fill set 1 with noise; it must not affect set 0's distance.
    for (int i = 1; i <= 8; ++i)
        prof.onL2Access(loadAt(0x40 + i * 2 * 64));
    prof.onL2Access(instAt(hot0, Temperature::Hot));
    EXPECT_EQ(prof.base().count(0), 1u); // Distance 0.
    (void)hot1;
}

TEST(ReuseDistance, DeepReuseLandsInOverflowBucket)
{
    ReuseDistanceProfiler prof(oneSetGeom());
    const Addr hot = 0x0;
    prof.onL2Access(instAt(hot, Temperature::Hot));
    for (int i = 1; i <= 30; ++i)
        prof.onL2Access(loadAt(i * 0x40));
    prof.onL2Access(instAt(hot, Temperature::Hot));
    EXPECT_EQ(prof.base().count(3), 1u); // 16+.
}

TEST(ReuseDistance, StackCapBoundsMemory)
{
    ReuseDistanceProfiler prof(oneSetGeom(), 16);
    const Addr hot = 0x0;
    prof.onL2Access(instAt(hot, Temperature::Hot));
    for (int i = 1; i <= 100; ++i)
        prof.onL2Access(loadAt(i * 0x40));
    // The hot line was pushed out of the bounded stack: re-access is
    // treated as a first touch (no sample).
    prof.onL2Access(instAt(hot, Temperature::Hot));
    EXPECT_EQ(prof.base().total(), 0u);
}

// ------------------------- Costly misses ----------------------------

ElfImage
imageWithHotSection()
{
    ElfImage img;
    img.imageBase = 0x400000;
    img.imageEnd = 0x420000;
    img.sections.push_back(
        ElfSection{".text.hot", 0x400000, 0x8000, Temperature::Hot,
                   false});
    img.sections.push_back(
        ElfSection{".text.cold", 0x408000, 0x18000, Temperature::Cold,
                   false});
    img.externalBase = 0x7000000000ull;
    img.externalEnd = 0x7000010000ull;
    img.sections.push_back(ElfSection{
        ".text.ext", img.externalBase, 0x10000, Temperature::None,
        true});
    return img;
}

TEST(CostlyMiss, CoverageCountsHotSectionMisses)
{
    const auto img = imageWithHotSection();
    CostlyMissTracker t;
    t.onCostlyMiss(0x400040, 100.0); // Hot.
    t.onCostlyMiss(0x408040, 100.0); // Cold.
    EXPECT_DOUBLE_EQ(t.hotCoverage(img, 0.0, false), 0.5);
}

TEST(CostlyMiss, PercentileFiltersCheapMisses)
{
    const auto img = imageWithHotSection();
    CostlyMissTracker t;
    // 9 cheap cold misses, 1 expensive hot miss.
    for (int i = 0; i < 9; ++i)
        t.onCostlyMiss(0x408000 + i * 64, 10.0);
    t.onCostlyMiss(0x400040, 500.0);
    // At the 90th percentile only the expensive miss qualifies.
    EXPECT_DOUBLE_EQ(t.hotCoverage(img, 90.0, false), 1.0);
    // Unfiltered, coverage is 10%.
    EXPECT_DOUBLE_EQ(t.hotCoverage(img, 0.0, false), 0.1);
}

TEST(CostlyMiss, ExternalExclusionRaisesCoverage)
{
    // Paper Fig. 7a vs 7b: misses in PLT/external code cap coverage;
    // excluding them shows TRRIP covers nearly all remaining cost.
    const auto img = imageWithHotSection();
    CostlyMissTracker t;
    t.onCostlyMiss(0x400040, 100.0);                // Hot.
    t.onCostlyMiss(img.externalBase + 0x40, 100.0); // External.
    EXPECT_DOUBLE_EQ(t.hotCoverage(img, 0.0, false), 0.5);
    EXPECT_DOUBLE_EQ(t.hotCoverage(img, 0.0, true), 1.0);
}

TEST(CostlyMiss, EmptyTrackerIsSafe)
{
    const auto img = imageWithHotSection();
    CostlyMissTracker t;
    EXPECT_DOUBLE_EQ(t.hotCoverage(img, 50.0, false), 0.0);
    EXPECT_EQ(t.size(), 0u);
}

// ---------------------------- Lane probe ----------------------------

/** Fig. 3's and Fig. 7's instruments behind one lane probe. */
struct ReuseAndCostlyProbe : LaneProbe
{
    explicit ReuseAndCostlyProbe(const CacheGeometry &l2) : reuse(l2) {}

    void
    onL2Access(const MemRequest &req) override
    {
        reuse.onL2Access(req);
    }

    void
    onCostlyMiss(Addr line, double exposed) override
    {
        costly.onCostlyMiss(line, exposed);
    }

    ReuseDistanceProfiler reuse;
    CostlyMissTracker costly;
};

/** Bucket counts of @p h, overflow bucket last. */
std::vector<std::uint64_t>
bucketCounts(const BucketHistogram &h)
{
    std::vector<std::uint64_t> counts;
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        counts.push_back(h.count(i));
    return counts;
}

TEST(LaneProbe, MiddleLaneMatchesSoloAndPinnedCounts)
{
    // A probe sees its own lane's streams only: TRRIP-1's probe reads
    // the same counts as the middle of three lanes and alone.  The
    // pinned values are what fig3's and fig7's instruments recorded
    // for these runs before they became probes.
    struct Pinned
    {
        const char *workload;
        std::vector<std::uint64_t> base;
        std::vector<std::uint64_t> hotOnly;
        std::size_t costlyMisses;
        double exposedCycles;
    };
    const Pinned pinned[] = {
        {"python", {51, 216, 218, 0}, {396, 89, 0, 0}, 1047, 389461.0},
        {"gcc", {88, 280, 185, 0}, {458, 95, 0, 0}, 1040, 395622.0},
    };
    SimOptions opts;
    opts.maxInstructions = 200'000;
    for (const Pinned &p : pinned) {
        const CoDesignPipeline pipeline(proxyParams(p.workload));
        ReuseAndCostlyProbe middle(opts.hier.l2);
        ReuseAndCostlyProbe solo(opts.hier.l2);
        pipeline.run({{"SRRIP"}, {"TRRIP-1", &middle}, {"LRU"}}, opts);
        pipeline.run({{"TRRIP-1", &solo}}, opts);
        for (const ReuseAndCostlyProbe *probe : {&middle, &solo}) {
            const std::string lane = std::string(p.workload) +
                                     (probe == &middle ? " middle lane"
                                                       : " solo");
            EXPECT_EQ(bucketCounts(probe->reuse.base()), p.base) << lane;
            EXPECT_EQ(bucketCounts(probe->reuse.hotOnly()), p.hotOnly)
                << lane;
            EXPECT_EQ(probe->costly.size(), p.costlyMisses) << lane;
            double exposed = 0.0;
            for (const CostlyMiss &miss : probe->costly.misses())
                exposed += miss.cost;
            EXPECT_EQ(exposed, p.exposedCycles) << lane;
        }
    }
}

// ------------------------- Page accounting --------------------------

TEST(PageAccounting, RoundsUpPartialPages)
{
    ElfImage img;
    img.sections.push_back(ElfSection{".text.hot", 0x400000, 5000,
                                      Temperature::Hot, false});
    img.sections.push_back(ElfSection{".text.warm", 0x402000, 100,
                                      Temperature::Warm, false});
    const auto usage = countPages(img, 4096);
    EXPECT_EQ(usage.hotPages, 2u);
    EXPECT_EQ(usage.warmPages, 1u);
    EXPECT_EQ(usage.coldPages, 0u);
}

TEST(PageAccounting, LargerPagesFewerCounts)
{
    ElfImage img;
    img.sections.push_back(ElfSection{".text.hot", 0x400000, 600 * 1024,
                                      Temperature::Hot, false});
    EXPECT_EQ(countPages(img, 4096).hotPages, 150u);
    EXPECT_EQ(countPages(img, 16 * 1024).hotPages, 38u);
    EXPECT_EQ(countPages(img, 2 * 1024 * 1024).hotPages, 1u);
}

TEST(PageAccounting, ExternalSectionsExcluded)
{
    ElfImage img;
    img.sections.push_back(ElfSection{".text.ext", 0x7000000000ull,
                                      1 << 20, Temperature::None,
                                      true});
    const auto usage = countPages(img, 4096);
    EXPECT_EQ(usage.hotPages + usage.warmPages + usage.coldPages, 0u);
}

// ----------------------------- Belady -------------------------------

TEST(Belady, PerfectCacheNeverRemisses)
{
    CacheGeometry g{"g", 4 * 64, 4, 64};
    std::vector<Addr> seq;
    for (int round = 0; round < 10; ++round) {
        for (Addr a = 0; a < 4 * 64; a += 64)
            seq.push_back(a);
    }
    EXPECT_EQ(beladyMisses(seq, g), 4u); // Compulsory only.
}

TEST(Belady, CyclicThrashLowerBound)
{
    // 5 lines cycled through a 4-way set: optimal keeps 3 resident
    // and streams the rest: miss rate 2/5 in steady state.
    CacheGeometry g{"g", 4 * 64, 4, 64};
    std::vector<Addr> seq;
    for (int round = 0; round < 100; ++round) {
        for (Addr a = 0; a < 5 * 4 * 64; a += 4 * 64)
            seq.push_back(a);
    }
    const auto misses = beladyMisses(seq, g);
    // Optimal lies between one miss per cycle and full thrash.
    EXPECT_GE(misses, 5u + 99u);
    EXPECT_LE(misses, 5u + 99u * 2u);
    EXPECT_LT(misses, 500u); // LRU would miss every access.
}

TEST(Belady, EmptySequence)
{
    CacheGeometry g{"g", 4 * 64, 4, 64};
    EXPECT_EQ(beladyMisses({}, g), 0u);
}

TEST(Belady, SubLineAccessesShareLines)
{
    CacheGeometry g{"g", 4 * 64, 4, 64};
    EXPECT_EQ(beladyMisses({0x0, 0x8, 0x10, 0x3f}, g), 1u);
}

} // namespace
} // namespace trrip
