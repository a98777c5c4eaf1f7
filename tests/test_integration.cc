/**
 * @file
 * Integration tests: the full co-design pipeline on proxy workloads,
 * checking the qualitative results the paper reports (TRRIP improves
 * on SRRIP, reduces hot evictions, the hot threshold sweep behaves,
 * the pipeline is deterministic end-to-end).
 */

#include <gtest/gtest.h>

#include "core/codesign.hh"
#include "workloads/proxies.hh"

namespace trrip {
namespace {

/** Shared fixture running one mid-size proxy across policies. */
class PipelineTest : public ::testing::Test
{
  protected:
    static SimOptions
    opts()
    {
        SimOptions o;
        o.maxInstructions = 600000;
        o.profileInstructions = 600000;
        return o;
    }

    static const CoDesignPipeline &
    pipeline()
    {
        static CoDesignPipeline p(proxyParams("python"));
        return p;
    }

    static const RunArtifacts &
    result(const std::string &policy)
    {
        static std::map<std::string, RunArtifacts> cache;
        auto it = cache.find(policy);
        if (it == cache.end())
            it = cache.emplace(policy,
                               pipeline().run(policy, opts())).first;
        return it->second;
    }
};

TEST_F(PipelineTest, TrripReducesInstMpkiOverSrrip)
{
    const double reduction = CoDesignPipeline::reductionPercent(
        result("SRRIP").result.l2InstMpki,
        result("TRRIP-1").result.l2InstMpki);
    EXPECT_GT(reduction, 5.0);
}

TEST_F(PipelineTest, TrripSpeedsUpOverSrrip)
{
    EXPECT_GT(CoDesignPipeline::speedupPercent(
                  result("SRRIP").result, result("TRRIP-1").result),
              0.0);
}

TEST_F(PipelineTest, TrripCutsHotEvictions)
{
    EXPECT_LT(result("TRRIP-1").result.l2HotEvictions,
              result("SRRIP").result.l2HotEvictions);
}

TEST_F(PipelineTest, Trrip2ReducesAtLeastAsMuchInstMpki)
{
    // Paper: TRRIP-2's warm handling gives a slightly higher
    // instruction MPKI reduction than TRRIP-1 (27.3% vs 26.5%).
    EXPECT_LE(result("TRRIP-2").result.l2InstMpki,
              result("TRRIP-1").result.l2InstMpki * 1.02);
}

TEST_F(PipelineTest, BrripIsWorseThanSrrip)
{
    // Paper Fig. 6: BRRIP is the catastrophic baseline.
    EXPECT_LT(CoDesignPipeline::speedupPercent(
                  result("SRRIP").result, result("BRRIP").result),
              -2.0);
}

TEST_F(PipelineTest, ShipDoesNotHelpTheseWorkloads)
{
    // Paper section 4.4: SHiP's distant-insertion predictions misfire
    // on mobile-like code.
    EXPECT_LT(CoDesignPipeline::speedupPercent(
                  result("SRRIP").result, result("SHiP").result),
              0.5);
}

TEST_F(PipelineTest, TrripAtLeastMatchesClip)
{
    // Paper section 4.7: temperature selectivity beats prioritizing
    // every instruction line.
    EXPECT_GE(result("CLIP").result.l2InstMpki * 1.05,
              result("TRRIP-1").result.l2InstMpki);
}

TEST_F(PipelineTest, InstDataTradeoffIsProfitable)
{
    // TRRIP trades a small data MPKI increase for a large
    // instruction MPKI reduction (paper section 4.4).
    const auto &srrip = result("SRRIP").result;
    const auto &trrip = result("TRRIP-1").result;
    EXPECT_GE(trrip.l2DataMpki, srrip.l2DataMpki * 0.99);
    EXPECT_LT(trrip.l2DataMpki, srrip.l2DataMpki * 1.35);
    EXPECT_LT(trrip.l2InstMpki, srrip.l2InstMpki);
}

TEST_F(PipelineTest, ArtifactsAreConsistent)
{
    const auto &art = result("TRRIP-1");
    // ELF sections present with both hot and cold text.
    EXPECT_GT(art.image.textBytes(Temperature::Hot), 0u);
    EXPECT_GT(art.image.textBytes(Temperature::Cold), 0u);
    // The loader tagged hot pages.
    EXPECT_GT(art.loadStats.pagesByTemp[encodeTemperature(
                  Temperature::Hot)],
              0u);
    // The profile has mass.
    EXPECT_GT(art.profile->total(), 0u);
}

TEST(PipelineDeterminism, IdenticalRunsBitIdentical)
{
    CoDesignPipeline a(proxyParams("deepsjeng"));
    CoDesignPipeline b(proxyParams("deepsjeng"));
    SimOptions o;
    o.maxInstructions = 300000;
    const auto ra = a.run("TRRIP-2", o);
    const auto rb = b.run("TRRIP-2", o);
    EXPECT_DOUBLE_EQ(ra.result.cycles, rb.result.cycles);
    EXPECT_EQ(ra.result.l2.demandMisses, rb.result.l2.demandMisses);
    EXPECT_EQ(ra.profile->total(), rb.profile->total());
}

TEST(HotThresholdSweep, HotTextGrowsWithPercentile)
{
    // Paper Fig. 8a: raising Percentile_hot can only add hot text.
    CoDesignPipeline pipe(proxyParams("deepsjeng"));
    SimOptions o;
    o.maxInstructions = 300000;
    std::uint64_t prev = 0;
    for (double pct : {0.10, 0.80, 0.99, 0.9999, 1.0}) {
        o.classifier.percentileHot = pct;
        const auto art = pipe.run("TRRIP-1", o);
        const auto hot = art.image.textBytes(Temperature::Hot);
        EXPECT_GE(hot + 4096, prev)
            << "hot text shrank at percentile " << pct;
        prev = hot;
    }
}

TEST(HotThresholdSweep, SelectivityBeatsEverythingHot)
{
    // Paper Fig. 8b / section 4.7: Percentile_hot = 100% (the
    // CLIP-like configuration) must not beat the selective default.
    CoDesignPipeline pipe(proxyParams("python"));
    SimOptions o;
    o.maxInstructions = 600000;
    o.classifier.percentileHot = 0.99;
    const auto selective = pipe.run("TRRIP-1", o);
    o.classifier.percentileHot = 1.0;
    const auto everything = pipe.run("TRRIP-1", o);
    EXPECT_LE(selective.result.cycles, everything.result.cycles * 1.01);
}

TEST(CacheSizeSensitivity, BiggerL2ShrinksTrripGain)
{
    // Paper Fig. 9a: replacement gains shrink as capacity grows.
    CoDesignPipeline pipe(proxyParams("python"));
    SimOptions o;
    o.maxInstructions = 600000;
    const auto gain_at = [&](std::uint64_t bytes) {
        o.hier.l2.sizeBytes = bytes;
        const auto srrip = pipe.run("SRRIP", o);
        const auto trrip = pipe.run("TRRIP-1", o);
        return CoDesignPipeline::speedupPercent(srrip.result,
                                                trrip.result);
    };
    EXPECT_GT(gain_at(128 * 1024), gain_at(512 * 1024) - 0.15);
}

TEST(MixedPagePolicies, DominantMarkingTagsMorePages)
{
    CoDesignPipeline pipe(proxyParams("deepsjeng"));
    SimOptions o;
    o.maxInstructions = 200000;
    o.pagePolicy = MixedPagePolicy::DisableMark;
    const auto disable = pipe.run("TRRIP-1", o);
    o.pagePolicy = MixedPagePolicy::MarkDominant;
    const auto dominant = pipe.run("TRRIP-1", o);
    const auto tagged = [](const LoadStats &s) {
        return s.pagesByTemp[1] + s.pagesByTemp[2] + s.pagesByTemp[3];
    };
    EXPECT_GE(tagged(dominant.loadStats), tagged(disable.loadStats));
    EXPECT_EQ(disable.loadStats.mixedPages,
              dominant.loadStats.mixedPages);
}

TEST(PaddedSections, RemoveMixedPagesEntirely)
{
    CoDesignPipeline pipe(proxyParams("deepsjeng"));
    SimOptions o;
    o.maxInstructions = 200000;
    o.padSectionsToPage = true;
    const auto art = pipe.run("TRRIP-1", o);
    EXPECT_EQ(art.loadStats.mixedPages, 0u);
}

} // namespace
} // namespace trrip
