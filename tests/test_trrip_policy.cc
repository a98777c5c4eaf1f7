/**
 * @file
 * Unit tests for TrripPolicy: every arm of the paper's Algorithm 1,
 * for both variants, including the "triggers only on instruction
 * requests with valid temperature" rule (paper section 3.4).  The
 * policy owns its RRPVs in SoA state, so the tests observe decisions
 * through rrpvOf()/victim() instead of poking CacheLine fields.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "core/trrip_policy.hh"

namespace trrip {
namespace {

CacheGeometry
smallGeom()
{
    return CacheGeometry{"l2", 4 * 1024, 4, 64}; // 16 sets, 4 ways.
}

MemRequest
instReq(Addr addr, Temperature temp)
{
    MemRequest req;
    req.vaddr = req.paddr = addr;
    req.pc = addr;
    req.type = AccessType::InstFetch;
    req.temp = temp;
    return req;
}

MemRequest
dataReq(Addr addr)
{
    MemRequest req;
    req.vaddr = req.paddr = addr;
    req.type = AccessType::Load;
    return req;
}

/** Fixture with both variants on the same small geometry. */
class TrripPolicyTest : public ::testing::Test
{
  protected:
    TrripPolicyTest() :
        v1_(smallGeom(), TrripVariant::V1),
        v2_(smallGeom(), TrripVariant::V2)
    {}

    TrripPolicy v1_;
    TrripPolicy v2_;
};

TEST_F(TrripPolicyTest, HotFillInsertsImmediate)
{
    // Algorithm 1 lines 16-18.
    v1_.onFill(0, 0, instReq(0x1000, Temperature::Hot));
    EXPECT_EQ(v1_.rrpvOf(0, 0), v1_.immediate());
    v2_.onFill(0, 1, instReq(0x1000, Temperature::Hot));
    EXPECT_EQ(v2_.rrpvOf(0, 1), v2_.immediate());
}

TEST_F(TrripPolicyTest, WarmFillVariantDifference)
{
    // Algorithm 1 lines 19-21: warm insertion at Near is V2 only.
    v1_.onFill(0, 0, instReq(0x1000, Temperature::Warm));
    EXPECT_EQ(v1_.rrpvOf(0, 0), v1_.intermediate());
    v2_.onFill(0, 1, instReq(0x1000, Temperature::Warm));
    EXPECT_EQ(v2_.rrpvOf(0, 1), v2_.near());
}

TEST_F(TrripPolicyTest, ColdFillFollowsDefaultInBothVariants)
{
    // Cold has no dedicated insertion arm (Algorithm 1 lines 22-24).
    v1_.onFill(0, 0, instReq(0x1000, Temperature::Cold));
    EXPECT_EQ(v1_.rrpvOf(0, 0), v1_.intermediate());
    v2_.onFill(0, 1, instReq(0x1000, Temperature::Cold));
    EXPECT_EQ(v2_.rrpvOf(0, 1), v2_.intermediate());
}

TEST_F(TrripPolicyTest, UntaggedInstFillFollowsDefault)
{
    v1_.onFill(0, 0, instReq(0x1000, Temperature::None));
    EXPECT_EQ(v1_.rrpvOf(0, 0), v1_.intermediate());
    v2_.onFill(0, 1, instReq(0x1000, Temperature::None));
    EXPECT_EQ(v2_.rrpvOf(0, 1), v2_.intermediate());
}

TEST_F(TrripPolicyTest, DataFillFollowsDefaultEvenIfTempSet)
{
    // Data requests never trigger TRRIP arms, whatever temp claims.
    MemRequest req = dataReq(0x1000);
    req.temp = Temperature::Hot;
    v2_.onFill(0, 0, req);
    EXPECT_EQ(v2_.rrpvOf(0, 0), v2_.intermediate());
}

TEST_F(TrripPolicyTest, HotHitPromotesToImmediate)
{
    // Algorithm 1 lines 3-5.
    v1_.onFill(0, 0, instReq(0x1000, Temperature::None)); // 2.
    v1_.onHit(0, 0, instReq(0x1000, Temperature::Hot));
    EXPECT_EQ(v1_.rrpvOf(0, 0), v1_.immediate());
    v2_.onFill(0, 1, instReq(0x1000, Temperature::None));
    v2_.onHit(0, 1, instReq(0x1000, Temperature::Hot));
    EXPECT_EQ(v2_.rrpvOf(0, 1), v2_.immediate());
}

TEST_F(TrripPolicyTest, WarmHitDecrementsOnlyInV2)
{
    // Algorithm 1 lines 6-8: RRPV = max(RRPV - 1, immediate).
    v2_.onFill(0, 0, instReq(0x1000, Temperature::None)); // 2.
    v2_.onHit(0, 0, instReq(0x1000, Temperature::Warm));
    EXPECT_EQ(v2_.rrpvOf(0, 0), 1);
    v2_.onHit(0, 0, instReq(0x1000, Temperature::Warm));
    EXPECT_EQ(v2_.rrpvOf(0, 0), 0);
    // In V1 the warm hit takes the default arm: straight to 0.
    v1_.onFill(0, 1, instReq(0x1000, Temperature::None)); // 2.
    v1_.onHit(0, 1, instReq(0x1000, Temperature::Warm));
    EXPECT_EQ(v1_.rrpvOf(0, 1), 0);
}

TEST_F(TrripPolicyTest, ColdHitDecrementsOnlyInV2)
{
    v2_.onFill(0, 0, instReq(0x1000, Temperature::None)); // 2.
    v2_.onHit(0, 0, instReq(0x1000, Temperature::Cold));
    EXPECT_EQ(v2_.rrpvOf(0, 0), 1);
    v1_.onFill(0, 1, instReq(0x1000, Temperature::None)); // 2.
    v1_.onHit(0, 1, instReq(0x1000, Temperature::Cold));
    EXPECT_EQ(v1_.rrpvOf(0, 1), 0);
}

TEST_F(TrripPolicyTest, WarmHitDecrementClampsAtImmediate)
{
    v2_.onFill(0, 0, instReq(0x1000, Temperature::Hot)); // 0.
    v2_.onHit(0, 0, instReq(0x1000, Temperature::Warm));
    EXPECT_EQ(v2_.rrpvOf(0, 0), 0);
}

TEST_F(TrripPolicyTest, DataHitPromotesToImmediate)
{
    // Default RRIP behavior (Algorithm 1 lines 9-11).
    v2_.onFill(0, 0, dataReq(0x1000)); // 2.
    v2_.onHit(0, 0, dataReq(0x1000));
    EXPECT_EQ(v2_.rrpvOf(0, 0), 0);
}

TEST_F(TrripPolicyTest, EvictionMechanismUnchangedFromRrip)
{
    // Algorithm 1 line 14: the aging search is untouched RRIP.
    // Build RRPVs {0, 1, 2, 2}: hot fill, V2 warm-fill, two None
    // fills.
    v2_.onFill(0, 0, instReq(0x1000, Temperature::Hot));  // 0.
    v2_.onFill(0, 1, instReq(0x1000, Temperature::Warm)); // 1.
    v2_.onFill(0, 2, instReq(0x1000, Temperature::None)); // 2.
    v2_.onFill(0, 3, instReq(0x1000, Temperature::None)); // 2.
    const auto way =
        v2_.victim(0, instReq(0x2000, Temperature::Hot));
    // Aging raises everyone by 1 until a 3 appears: way 2 first.
    EXPECT_EQ(way, 2u);
    EXPECT_EQ(v2_.rrpvOf(0, 0), 1);
    EXPECT_EQ(v2_.rrpvOf(0, 1), 2);
}

TEST_F(TrripPolicyTest, VictimPrefersDistantOverHotProtected)
{
    // A hot line at Immediate outlives non-hot lines at Intermediate.
    v1_.onFill(0, 0, instReq(0x1000, Temperature::Hot));  // 0 (hot).
    v1_.onFill(0, 1, instReq(0x1000, Temperature::None)); // 2.
    v1_.onFill(0, 2, instReq(0x1000, Temperature::None)); // 2.
    v1_.onFill(0, 3, instReq(0x1000, Temperature::None)); // 2.
    const auto way =
        v1_.victim(0, instReq(0x2000, Temperature::None));
    EXPECT_NE(way, 0u);
}

TEST_F(TrripPolicyTest, InstPrefetchWithTempTriggersTrrip)
{
    // FDIP prefetches carry PTE temperature and are instruction
    // accesses, so they participate in TRRIP insertion.
    MemRequest req = instReq(0x1000, Temperature::Hot);
    req.type = AccessType::InstPrefetch;
    v1_.onFill(0, 0, req);
    EXPECT_EQ(v1_.rrpvOf(0, 0), v1_.immediate());
}

/** End-to-end through Cache: hot lines survive non-hot pressure. */
TEST(TrripCacheLevel, HotLinesOutliveColdStreams)
{
    const CacheGeometry geom{"l2", 4 * 1024, 4, 64};
    Cache trrip_cache(geom, std::make_unique<TrripPolicy>(
                                geom, TrripVariant::V1));
    Cache srrip_cache(geom, std::make_unique<SrripPolicy>(geom));

    const Addr hot_line = 0x10000; // Some set.
    const auto touch = [&](Cache &c, const MemRequest &req) {
        if (!c.access(req))
            c.fill(req);
    };

    for (Cache *c : {&trrip_cache, &srrip_cache}) {
        touch(*c, instReq(hot_line, Temperature::Hot));
        // Stream 6 cold lines through the same set (4 ways).
        const std::uint64_t set_stride =
            static_cast<std::uint64_t>(geom.numSets()) * geom.lineBytes;
        for (int i = 1; i <= 6; ++i) {
            touch(*c, instReq(hot_line + i * set_stride,
                              Temperature::Cold));
        }
    }
    EXPECT_TRUE(trrip_cache.contains(hot_line));
    EXPECT_FALSE(srrip_cache.contains(hot_line));
}

TEST(TrripCacheLevel, NoTemperatureMeansSrripEquivalent)
{
    // With every request untagged, TRRIP must behave exactly like
    // SRRIP (same hits, same evictions) -- the policy only triggers
    // on valid temperature (paper section 3.4).
    const CacheGeometry geom{"l2", 8 * 1024, 8, 64};
    Cache a(geom, std::make_unique<TrripPolicy>(geom,
                                                TrripVariant::V2));
    Cache b(geom, std::make_unique<SrripPolicy>(geom));

    Rng rng(1234);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(64 * 1024);
        MemRequest req;
        req.vaddr = req.paddr = addr;
        req.pc = addr;
        req.type = rng.chance(0.5) ? AccessType::InstFetch
                                   : AccessType::Load;
        const bool hit_a = a.access(req);
        const bool hit_b = b.access(req);
        ASSERT_EQ(hit_a, hit_b) << "diverged at access " << i;
        if (!hit_a) {
            a.fill(req);
            b.fill(req);
        }
    }
    EXPECT_EQ(a.stats().demandMisses, b.stats().demandMisses);
}

} // namespace
} // namespace trrip
