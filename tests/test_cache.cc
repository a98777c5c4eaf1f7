/**
 * @file
 * Unit tests for the cache substrate: geometry math, single-cache
 * behavior, prefetchers, and the four-level hierarchy (inclusive L2,
 * exclusive SLC, in-flight prefetch accounting, MPKI).  Every arm of
 * the cache's policy switch is pinned against the AoS reference
 * policies in test_replacement.cc (ReferenceEquivalence).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/prefetcher.hh"
#include "cache/replacement/lru.hh"
#include "cache/replacement/rrip.hh"
#include "core/policy_registry.hh"
#include "util/rng.hh"

namespace trrip {
namespace {

MemRequest
inst(Addr a)
{
    MemRequest r;
    r.vaddr = r.paddr = a;
    r.pc = a;
    r.type = AccessType::InstFetch;
    return r;
}

MemRequest
load(Addr a)
{
    MemRequest r;
    r.vaddr = r.paddr = a;
    r.pc = a;
    r.type = AccessType::Load;
    return r;
}

MemRequest
store(Addr a)
{
    MemRequest r = load(a);
    r.type = AccessType::Store;
    return r;
}

// ---------------------------- Geometry -----------------------------

TEST(Geometry, DerivedQuantities)
{
    CacheGeometry g{"l2", 128 * 1024, 8, 64};
    EXPECT_EQ(g.numSets(), 256u);
    EXPECT_EQ(g.lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(g.setIndex(0x0), g.setIndex(0x0 + 256 * 64));
    EXPECT_NE(g.setIndex(0x0), g.setIndex(0x40));
}

TEST(Geometry, TagDisambiguatesAliases)
{
    CacheGeometry g{"l1", 64 * 1024, 4, 64};
    const Addr a = 0x10000, b = a + g.numSets() * 64;
    EXPECT_EQ(g.setIndex(a), g.setIndex(b));
    EXPECT_NE(g.tag(a), g.tag(b));
}

TEST(GeometryDeath, RejectsNonPowerOfTwoSets)
{
    CacheGeometry g{"bad", 96 * 1024, 8, 64}; // 192 sets.
    EXPECT_EXIT(g.check(), ::testing::ExitedWithCode(1), "set count");
}

TEST(GeometryDeath, RejectsBadLineSize)
{
    CacheGeometry g{"bad", 64 * 1024, 4, 48};
    EXPECT_EXIT(g.check(), ::testing::ExitedWithCode(1), "power of two");
}

// ------------------------------ Cache ------------------------------

TEST(CacheBasic, MissThenHit)
{
    CacheGeometry g{"c", 4 * 1024, 4, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    EXPECT_FALSE(c.access(inst(0x1000)));
    c.fill(inst(0x1000));
    EXPECT_TRUE(c.access(inst(0x1000)));
    EXPECT_TRUE(c.access(inst(0x103f))); // Same line, different byte.
    EXPECT_FALSE(c.access(inst(0x1040))); // Next line.
}

TEST(CacheBasic, StatsCountDemandOnly)
{
    CacheGeometry g{"c", 4 * 1024, 4, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    c.access(inst(0x1000));
    MemRequest pf = inst(0x1000);
    pf.type = AccessType::InstPrefetch;
    c.access(pf);
    EXPECT_EQ(c.stats().demandAccesses, 1u);
    EXPECT_EQ(c.stats().instDemandMisses, 1u);
    c.access(load(0x2000));
    EXPECT_EQ(c.stats().dataDemandMisses, 1u);
}

TEST(CacheBasic, EvictionReturnsVictim)
{
    CacheGeometry g{"c", 1024, 2, 64}; // 8 sets, 2 ways.
    Cache c(g, std::make_unique<LruPolicy>(g));
    const std::uint64_t stride = 8 * 64;
    c.fill(inst(0x0));
    c.fill(inst(0x0 + stride));
    const CacheLine evicted = c.fill(inst(0x0 + 2 * stride));
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.addr, 0x0u);
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(CacheBasic, EvictionStatsByTemperature)
{
    CacheGeometry g{"c", 1024, 2, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    const std::uint64_t stride = 8 * 64;
    MemRequest hot = inst(0x0);
    hot.temp = Temperature::Hot;
    c.fill(hot);
    c.fill(inst(stride));
    c.fill(inst(2 * stride)); // Evicts the hot line.
    EXPECT_EQ(c.stats().evictionsByTemp[encodeTemperature(
                  Temperature::Hot)],
              1u);
    EXPECT_EQ(c.stats().instEvictions, 1u);
}

TEST(CacheBasic, DirtyLineWritebackCounted)
{
    CacheGeometry g{"c", 1024, 2, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    const std::uint64_t stride = 8 * 64;
    c.fill(store(0x0));
    c.fill(load(stride));
    const CacheLine evicted = c.fill(load(2 * stride));
    ASSERT_TRUE(evicted.valid);
    EXPECT_TRUE(evicted.dirty());
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheBasic, MarkDirtyOnExistingLine)
{
    CacheGeometry g{"c", 1024, 2, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    c.fill(load(0x100));
    c.markDirty(0x100);
    EXPECT_TRUE(c.peek(0x100).dirty());
}

TEST(CacheBasic, InvalidateRemovesLine)
{
    CacheGeometry g{"c", 1024, 2, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    c.fill(inst(0x100));
    EXPECT_TRUE(c.contains(0x100));
    const CacheLine line = c.invalidate(0x100);
    ASSERT_TRUE(line.valid);
    EXPECT_EQ(line.addr, 0x100u);
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_FALSE(c.invalidate(0x100).valid);
}

#ifndef NDEBUG
// The duplicate-present re-scan in fill() is a debug assert: Release
// builds skip it on the hot path, Debug (and the sanitizer CI job)
// still catches the invariant violation.
TEST(CacheDeath, DoubleFillAssertsInDebug)
{
    CacheGeometry g{"c", 1024, 2, 64};
    Cache c(g, std::make_unique<LruPolicy>(g));
    c.fill(inst(0x100));
    EXPECT_DEATH(c.fill(inst(0x100)), "already-present");
}
#endif

// --------------------------- Prefetchers ---------------------------

TEST(StridePf, DetectsConstantStride)
{
    StridePrefetcher pf(64, 2);
    std::vector<Addr> out;
    for (Addr a = 0x1000; a <= 0x1400; a += 0x100)
        pf.train(0x40, a, out);
    ASSERT_FALSE(out.empty());
    // Latest training at 0x1400 predicts 0x1500 and 0x1600.
    EXPECT_EQ(out[out.size() - 2], 0x1500u);
    EXPECT_EQ(out.back(), 0x1600u);
}

TEST(StridePf, NoPrefetchWithoutConfidence)
{
    StridePrefetcher pf(64, 2);
    std::vector<Addr> out;
    pf.train(0x40, 0x1000, out);
    pf.train(0x40, 0x1100, out);
    EXPECT_TRUE(out.empty()); // Needs two matching strides.
}

TEST(StridePf, RandomAddressesStaySilent)
{
    StridePrefetcher pf(64, 2);
    Rng rng(5);
    std::vector<Addr> out;
    for (int i = 0; i < 200; ++i)
        pf.train(0x40, rng.below(1 << 24), out);
    EXPECT_LT(out.size(), 16u);
}

TEST(StridePf, NegativeStrideSupported)
{
    StridePrefetcher pf(64, 1);
    std::vector<Addr> out;
    for (Addr a = 0x10000; a >= 0xf000; a -= 0x200)
        pf.train(0x80, a, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.back(), 0xf000u - 0x200u);
}

TEST(NextLinePf, EmitsSequentialLines)
{
    NextLinePrefetcher pf(2, 64);
    std::vector<Addr> out;
    pf.train(0x1000, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1040u);
    EXPECT_EQ(out[1], 0x1080u);
}

// ---------------------------- Hierarchy -----------------------------

HierarchyParams
tinyParams()
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 2 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 2 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 8 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 32 * 1024, 8, 64};
    hp.enablePrefetch = false;
    return hp;
}

std::unique_ptr<CacheHierarchy>
makeHier(const HierarchyParams &hp)
{
    return std::make_unique<CacheHierarchy>(hp);
}

TEST(Hierarchy, ColdMissGoesToDram)
{
    auto h = makeHier(tinyParams());
    const auto out = h->instFetch(inst(0x1000), 0);
    EXPECT_EQ(out.servedBy, ServedBy::Dram);
    EXPECT_TRUE(out.l2DemandMiss);
    EXPECT_GE(out.latency, 400u);
    EXPECT_EQ(h->dram().reads(), 1u);
}

TEST(Hierarchy, SecondFetchHitsL1)
{
    auto h = makeHier(tinyParams());
    h->instFetch(inst(0x1000), 0);
    const auto out = h->instFetch(inst(0x1000), 100);
    EXPECT_EQ(out.servedBy, ServedBy::L1);
    EXPECT_EQ(out.latency, 0u);
}

TEST(Hierarchy, L1EvictedLineHitsInL2)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    // L1I has 16 sets * 2 ways; blow it out with 3 aliases of set 0.
    const std::uint64_t stride = hp.l1i.numSets() * 64;
    h->instFetch(inst(0x0), 0);
    h->instFetch(inst(stride), 100);
    h->instFetch(inst(2 * stride), 200);
    const auto out = h->instFetch(inst(0x0), 300);
    EXPECT_EQ(out.servedBy, ServedBy::L2);
    EXPECT_FALSE(out.l2DemandMiss);
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    // Fill one L2 set (4 ways) plus one more alias to force an L2
    // eviction; the evicted line must leave the L1 too.
    const std::uint64_t stride = hp.l2.numSets() * 64;
    for (int i = 0; i < 5; ++i)
        h->instFetch(inst(i * stride), i * 1000);
    EXPECT_TRUE(h->checkInclusion());
    // 0x0 was evicted from L2 (SRRIP victimizes aged lines; at least
    // one of the five aliases is gone, and no L1 line may outlive it).
    std::uint64_t resident = 0;
    for (int i = 0; i < 5; ++i)
        resident += h->l2().contains(i * stride) ? 1 : 0;
    EXPECT_EQ(resident, 4u);
}

TEST(Hierarchy, ExclusiveSlcHoldsL2Victims)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    const std::uint64_t stride = hp.l2.numSets() * 64;
    for (int i = 0; i < 5; ++i)
        h->instFetch(inst(i * stride), i * 1000);
    // Exactly one line was evicted from L2 into the SLC.
    std::uint64_t in_slc = 0;
    for (int i = 0; i < 5; ++i) {
        const Addr a = i * stride;
        EXPECT_FALSE(h->l2().contains(a) && h->slc().contains(a))
            << "line in both L2 and exclusive SLC";
        in_slc += h->slc().contains(a) ? 1 : 0;
    }
    EXPECT_EQ(in_slc, 1u);
}

TEST(Hierarchy, SlcHitMovesLineBackToL2)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    const std::uint64_t stride = hp.l2.numSets() * 64;
    for (int i = 0; i < 5; ++i)
        h->instFetch(inst(i * stride), i * 1000);
    Addr victim_addr = ~0ull;
    for (int i = 0; i < 5; ++i) {
        if (h->slc().contains(i * stride))
            victim_addr = i * stride;
    }
    ASSERT_NE(victim_addr, ~0ull);
    const auto out = h->instFetch(inst(victim_addr), 10000);
    EXPECT_EQ(out.servedBy, ServedBy::Slc);
    EXPECT_TRUE(h->l2().contains(victim_addr));
    EXPECT_FALSE(h->slc().contains(victim_addr));
}

TEST(Hierarchy, StoreMakesLineDirtyThroughLevels)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    h->dataAccess(store(0x5000), 0);
    EXPECT_TRUE(h->l1d().peek(0x5000).dirty());
}

TEST(Hierarchy, DirtyDataWritesBackToDramEventually)
{
    auto hp = tinyParams();
    hp.slc = CacheGeometry{"SLC", 2 * 1024, 2, 64};
    auto h = makeHier(hp);
    // Write a line, then stream enough conflicting lines through to
    // push it out of L1D, L2 and the tiny SLC.
    h->dataAccess(store(0x0), 0);
    const std::uint64_t stride = 32 * 1024;
    for (int i = 1; i < 24; ++i)
        h->dataAccess(load(i * stride), i * 1000);
    EXPECT_GE(h->dram().writes(), 1u);
}

TEST(Hierarchy, CompletedPrefetchCoversDemand)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    MemRequest pf = inst(0x9000);
    pf.type = AccessType::InstPrefetch;
    h->instPrefetch(pf, 0);
    // Demand long after the prefetch latency elapsed: L2 hit.
    const auto out = h->instFetch(inst(0x9000), 5000);
    EXPECT_FALSE(out.l2DemandMiss);
    EXPECT_EQ(h->prefetchStats().covered, 1u);
}

TEST(Hierarchy, LatePrefetchStillCountsAsMiss)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    MemRequest pf = inst(0x9000);
    pf.type = AccessType::InstPrefetch;
    h->instPrefetch(pf, 0);
    // Demand while the fill is still in flight: merge with it.
    const auto out = h->instFetch(inst(0x9000), 100);
    EXPECT_TRUE(out.l2DemandMiss);
    EXPECT_EQ(out.servedBy, ServedBy::Inflight);
    EXPECT_EQ(h->prefetchStats().late, 1u);
    // But the exposed latency is smaller than a full DRAM trip.
    EXPECT_LT(out.latency, 400u);
}

TEST(Hierarchy, PrefetchOfResidentLineIsDropped)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    h->instFetch(inst(0x9000), 0);
    MemRequest pf = inst(0x9000);
    pf.type = AccessType::InstPrefetch;
    h->instPrefetch(pf, 100);
    EXPECT_EQ(h->prefetchStats().issued, 0u);
}

TEST(Hierarchy, MarkL2PriorityProtectsLineUnderEmissary)
{
    // The priority bit lives in the Emissary policy's SoA state now;
    // observe it through behavior: a hinted line must survive an
    // eviction round that would have removed it under plain LRU.
    auto hp = tinyParams();
    hp.l2Policy = PolicySpec("Emissary");
    auto h = std::make_unique<CacheHierarchy>(hp);
    const std::uint64_t stride = hp.l2.numSets() * 64;
    h->instFetch(inst(0x0), 0); // Oldest line in its L2 set.
    h->markL2Priority(0x0);
    for (int i = 1; i <= 4; ++i)
        h->instFetch(inst(i * stride), i * 1000); // Set overflows.
    EXPECT_TRUE(h->l2().contains(0x0));
    h->markL2Priority(0xdead000); // Absent: no-op, no crash.

    // Under a policy with no priority notion the hint is inert: the
    // oldest line is evicted as usual.
    auto lru = makeHier(tinyParams());
    lru->instFetch(inst(0x0), 0);
    lru->markL2Priority(0x0);
    for (int i = 1; i <= 4; ++i)
        lru->instFetch(inst(i * stride), i * 1000);
    EXPECT_FALSE(lru->l2().contains(0x0));
}

TEST(Hierarchy, MpkiMath)
{
    auto hp = tinyParams();
    auto h = makeHier(hp);
    for (int i = 0; i < 10; ++i)
        h->instFetch(inst(0x100000 + i * 4096), i * 1000);
    EXPECT_DOUBLE_EQ(h->l2InstMpki(10000), 1.0);
    EXPECT_DOUBLE_EQ(h->l2DataMpki(10000), 0.0);
    EXPECT_DOUBLE_EQ(h->l2InstMpki(0), 0.0);
}

TEST(Hierarchy, ProbeSeesDemandL2Stream)
{
    struct Counter : LaneProbe
    {
        int n = 0;
        void onL2Access(const MemRequest &) override { ++n; }
    } counter;
    auto hp = tinyParams();
    auto h = makeHier(hp);
    h->setProbe(&counter);
    h->instFetch(inst(0x1000), 0);  // L1 miss -> observed.
    h->instFetch(inst(0x1000), 10); // L1 hit -> not observed.
    h->dataAccess(load(0x2000), 20);
    EXPECT_EQ(counter.n, 2);
}

TEST(Hierarchy, DramBandwidthQueuesBackToBackReads)
{
    Dram dram(DramParams{400, 16.8});
    const Cycles first = dram.read(0);
    const Cycles second = dram.read(0);
    EXPECT_EQ(first, 400u);
    EXPECT_GT(second, 400u); // Queued behind the first transfer.
}

// ---------- Randomized cascade / prefetch differential suite ----------

/**
 * Reference reimplementation of the hierarchy's demand, prefetch and
 * eviction sequencing as separate probe-per-step calls on the public
 * Cache API -- the pre-fusion CacheHierarchy of PR 3/4 (two flat-map
 * probes per miss, materialize-then-access, back-invalidate both L1s
 * on every L2 eviction).  The fused single-walk cascades in
 * hierarchy.cc must stay behaviorally identical to this
 * straightforward form on any access stream: same per-access outcome,
 * same counter totals, same in-flight contents.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyParams &params) :
        params_(params),
        l1i_(params.l1i, params.l1iPolicy),
        l1d_(params.l1d, params.l1dPolicy),
        l2_(params.l2, params.l2Policy),
        slc_(params.slc, params.slcPolicy),
        dram_(params.dram),
        l1dStride_(256, params.l1dStrideDegree),
        l2Stride_(256, params.l2StrideDegree),
        instNextLine_(params.instNextLineDegree, params.l2.lineBytes)
    {
        params_.l1i.check();
        params_.l1d.check();
        params_.l2.check();
        params_.slc.check();
    }

    AccessOutcome
    instFetch(const MemRequest &req, Cycles now)
    {
        if (l1i_.access(req))
            return AccessOutcome{};
        return beyondL1(req, now, true);
    }

    AccessOutcome
    dataAccess(const MemRequest &req, Cycles now)
    {
        if (l1d_.access(req, /*mark_dirty_on_write_hit=*/true))
            return AccessOutcome{};
        if (params_.enablePrefetch && !req.isPrefetch()) {
            scratch_.clear();
            l1dStride_.train(req.pc, req.paddr, scratch_);
            for (Addr a : scratch_) {
                MemRequest pf = req;
                pf.vaddr = pf.paddr = a;
                pf.type = AccessType::DataPrefetch;
                issuePrefetch(pf, now);
            }
        }
        return beyondL1(req, now, false);
    }

    void
    instPrefetch(const MemRequest &req, Cycles now)
    {
        issuePrefetch(req, now);
    }

    void markL2Priority(Addr paddr) { l2_.markPriority(paddr); }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &slc() { return slc_; }
    Dram &dram() { return dram_; }
    const PrefetchStats &prefetchStats() const { return pfStats_; }

    /** Sorted (line, ready) snapshot of the in-flight tracker. */
    std::vector<std::pair<Addr, Cycles>>
    inflightSnapshot() const
    {
        std::vector<std::pair<Addr, Cycles>> entries;
        inflight_.forEach([&](Addr line, const Inflight &e) {
            entries.emplace_back(line, e.ready);
        });
        std::sort(entries.begin(), entries.end());
        return entries;
    }

  private:
    struct Inflight
    {
        Cycles ready = 0;
    };

    AccessOutcome
    beyondL1(const MemRequest &req, Cycles now, bool is_inst)
    {
        const Addr line = params_.l2.lineAddr(req.paddr);
        AccessOutcome out;
        out.l1Miss = true;

        materializePrefetch(line, now, req);

        Cache &l1 = is_inst ? l1i_ : l1d_;

        if (l2_.access(req)) {
            out.servedBy = ServedBy::L2;
            out.latency = params_.l2TagLat + params_.l2DataLat;
            fillL1(l1, req);
            return out;
        }

        out.l2DemandMiss = !req.isPrefetch();

        if (const Inflight *entry = inflight_.find(line)) {
            const Cycles ready = entry->ready;
            out.servedBy = ServedBy::Inflight;
            out.latency = ready > now ? ready - now
                                      : params_.l2DataLat;
            ++pfStats_.late;
            inflight_.erase(line);
            slc_.invalidate(line);
            fillL2(req, now);
            fillL1(l1, req);
            return out;
        }

        if (params_.enablePrefetch && !req.isPrefetch()) {
            scratch_.clear();
            if (is_inst)
                instNextLine_.train(line, scratch_);
            else
                l2Stride_.train(req.pc, req.paddr, scratch_);
            for (Addr a : scratch_) {
                MemRequest pf = req;
                pf.vaddr = pf.paddr = a;
                pf.type = is_inst ? AccessType::InstPrefetch
                                  : AccessType::DataPrefetch;
                issuePrefetch(pf, now);
            }
        }

        if (slc_.accessInvalidate(req)) {
            out.servedBy = ServedBy::Slc;
            out.latency = params_.l2TagLat + params_.slcTagLat +
                          params_.slcDataLat;
            fillL2(req, now);
            fillL1(l1, req);
            return out;
        }

        out.servedBy = ServedBy::Dram;
        out.latency =
            params_.l2TagLat + params_.slcTagLat + dram_.read(now);
        fillL2(req, now);
        fillL1(l1, req);
        return out;
    }

    void
    issuePrefetch(const MemRequest &req, Cycles now)
    {
        const Addr line = params_.l2.lineAddr(req.paddr);
        if (l2_.contains(line))
            return;
        if (inflight_.contains(line))
            return;
        Cycles latency = params_.l2TagLat + params_.slcTagLat;
        if (slc_.contains(line)) {
            latency += params_.slcDataLat;
        } else {
            latency += dram_.read(now);
        }
        inflight_[line].ready = now + latency;
        ++pfStats_.issued;
        pruneInflight(now);
    }

    void
    materializePrefetch(Addr line, Cycles now, const MemRequest &demand)
    {
        const Inflight *entry = inflight_.find(line);
        if (!entry || entry->ready > now)
            return;
        inflight_.erase(line);
        ++pfStats_.covered;
        slc_.invalidate(line);
        MemRequest fill = demand;
        fill.vaddr = fill.paddr = line;
        fill.type = demand.isInst() ? AccessType::InstPrefetch
                                    : AccessType::DataPrefetch;
        fillL2(fill, now);
    }

    void
    pruneInflight(Cycles now)
    {
        if (inflight_.size() <= params_.inflightPruneThreshold)
            return;
        const Cycles grace = params_.inflightPruneGraceCycles;
        inflight_.eraseIf([now, grace](Addr, const Inflight &entry) {
            return entry.ready + grace < now;
        });
    }

    void
    fillL2(const MemRequest &req, Cycles now)
    {
        CacheLine victim = l2_.fill(req);
        if (!victim.valid)
            return;
        l1i_.invalidate(victim.addr);
        if (const CacheLine l1line = l1d_.invalidate(victim.addr);
            l1line.valid && l1line.dirty()) {
            victim.meta |= kLineMetaDirty;
        }
        victimToSlc(victim, now);
    }

    void
    victimToSlc(const CacheLine &line, Cycles now)
    {
        MemRequest req;
        req.vaddr = req.paddr = line.addr;
        req.pc = 0;
        req.type = line.isInst() ? AccessType::InstFetch
                                 : AccessType::Load;
        req.temp = line.temp();
        if (line.dirty())
            req.type = AccessType::Store;
        const CacheLine evicted = slc_.fill(req);
        if (evicted.valid && evicted.dirty())
            dram_.write(now);
    }

    void
    fillL1(Cache &l1, const MemRequest &req)
    {
        const CacheLine evicted = l1.fill(req);
        if (evicted.valid && evicted.dirty())
            l2_.markDirty(evicted.addr);
    }

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache slc_;
    Dram dram_;
    StridePrefetcher l1dStride_;
    StridePrefetcher l2Stride_;
    NextLinePrefetcher instNextLine_;
    FlatMap<Inflight> inflight_;
    PrefetchStats pfStats_;
    std::vector<Addr> scratch_;
};

void
expectCacheStatsEq(const char *level, const CacheStats &got,
                   const CacheStats &want, std::uint64_t seed)
{
    const auto tag = [&](const char *f) {
        return std::string(level) + "." + f + " (seed " +
               std::to_string(seed) + ")";
    };
    EXPECT_EQ(got.demandAccesses, want.demandAccesses)
        << tag("demandAccesses");
    EXPECT_EQ(got.demandMisses, want.demandMisses)
        << tag("demandMisses");
    EXPECT_EQ(got.instDemandAccesses, want.instDemandAccesses)
        << tag("instDemandAccesses");
    EXPECT_EQ(got.instDemandMisses, want.instDemandMisses)
        << tag("instDemandMisses");
    EXPECT_EQ(got.dataDemandAccesses, want.dataDemandAccesses)
        << tag("dataDemandAccesses");
    EXPECT_EQ(got.dataDemandMisses, want.dataDemandMisses)
        << tag("dataDemandMisses");
    EXPECT_EQ(got.prefetchFills, want.prefetchFills)
        << tag("prefetchFills");
    EXPECT_EQ(got.fills, want.fills) << tag("fills");
    EXPECT_EQ(got.evictions, want.evictions) << tag("evictions");
    EXPECT_EQ(got.writebacks, want.writebacks) << tag("writebacks");
    EXPECT_EQ(got.invalidations, want.invalidations)
        << tag("invalidations");
    EXPECT_EQ(got.instEvictions, want.instEvictions)
        << tag("instEvictions");
    EXPECT_EQ(got.dataEvictions, want.dataEvictions)
        << tag("dataEvictions");
    EXPECT_EQ(got.evictionsByTemp, want.evictionsByTemp)
        << tag("evictionsByTemp");
}

/**
 * Drive the real and reference hierarchies over one seeded random
 * access stream and require identical outcomes.  The address space is
 * small enough that every structure (both L1s, the L2, the SLC)
 * overflows constantly, so eviction cascades, exclusive-SLC motion,
 * dirty writebacks, in-flight merges and prefetch materialization all
 * fire thousands of times per run.
 */
void
runHierarchyDifferential(const HierarchyParams &hp, std::uint64_t seed,
                         int accesses)
{
    CacheHierarchy real(hp);
    ReferenceHierarchy ref(hp);
    Rng rng(seed);
    Cycles now = 0;

    const Addr code_base = 0x10000;
    const Addr code_bytes = 96 * 1024;
    const Addr data_base = 0x400000;
    const Addr data_bytes = 160 * 1024;

    for (int i = 0; i < accesses; ++i) {
        now += rng.below(120);
        const std::uint64_t kind = rng.below(100);
        MemRequest req;
        if (kind < 55) {
            // Instruction fetch with mild locality + temperature.
            const Addr a = code_base +
                           (rng.chance(0.7)
                                ? rng.below(code_bytes / 8)
                                : rng.below(code_bytes));
            req.vaddr = req.paddr = a;
            req.pc = a;
            req.type = AccessType::InstFetch;
            req.temp = static_cast<Temperature>(rng.below(4));
            const AccessOutcome a_out = real.instFetch(req, now);
            const AccessOutcome b_out = ref.instFetch(req, now);
            ASSERT_EQ(a_out.latency, b_out.latency) << "seed " << seed
                << " access " << i;
            ASSERT_EQ(a_out.servedBy, b_out.servedBy) << "seed " << seed
                << " access " << i;
            ASSERT_EQ(a_out.l1Miss, b_out.l1Miss) << "seed " << seed
                << " access " << i;
            ASSERT_EQ(a_out.l2DemandMiss, b_out.l2DemandMiss)
                << "seed " << seed << " access " << i;
        } else if (kind < 90) {
            // Data access; strided PCs so the stride prefetcher arms.
            const Addr a = data_base +
                           (rng.chance(0.5)
                                ? (i % 64) * 256
                                : rng.below(data_bytes));
            req.vaddr = req.paddr = a;
            req.pc = 0x8000 + (kind % 8) * 4;
            req.type = rng.chance(0.3) ? AccessType::Store
                                       : AccessType::Load;
            const AccessOutcome a_out = real.dataAccess(req, now);
            const AccessOutcome b_out = ref.dataAccess(req, now);
            ASSERT_EQ(a_out.latency, b_out.latency) << "seed " << seed
                << " access " << i;
            ASSERT_EQ(a_out.servedBy, b_out.servedBy) << "seed " << seed
                << " access " << i;
            ASSERT_EQ(a_out.l2DemandMiss, b_out.l2DemandMiss)
                << "seed " << seed << " access " << i;
        } else if (kind < 97) {
            // FDIP-style instruction prefetch.
            const Addr a = code_base + rng.below(code_bytes);
            req.vaddr = req.paddr = hp.l2.lineAddr(a);
            req.pc = req.vaddr;
            req.type = AccessType::InstPrefetch;
            req.temp = static_cast<Temperature>(rng.below(4));
            real.instPrefetch(req, now);
            ref.instPrefetch(req, now);
        } else {
            // Emissary-style priority hint (inert for other policies).
            const Addr a = code_base + rng.below(code_bytes);
            real.markL2Priority(a);
            ref.markL2Priority(a);
        }
    }

    expectCacheStatsEq("l1i", real.l1i().stats(), ref.l1i().stats(),
                       seed);
    expectCacheStatsEq("l1d", real.l1d().stats(), ref.l1d().stats(),
                       seed);
    expectCacheStatsEq("l2", real.l2().stats(), ref.l2().stats(),
                       seed);
    expectCacheStatsEq("slc", real.slc().stats(), ref.slc().stats(),
                       seed);
    EXPECT_EQ(real.prefetchStats().issued, ref.prefetchStats().issued)
        << "seed " << seed;
    EXPECT_EQ(real.prefetchStats().covered,
              ref.prefetchStats().covered) << "seed " << seed;
    EXPECT_EQ(real.prefetchStats().late, ref.prefetchStats().late)
        << "seed " << seed;
    EXPECT_EQ(real.dram().reads(), ref.dram().reads())
        << "seed " << seed;
    EXPECT_EQ(real.dram().writes(), ref.dram().writes())
        << "seed " << seed;
    EXPECT_TRUE(real.checkInclusion()) << "seed " << seed;

    // The in-flight trackers must agree entry for entry.
    std::vector<std::pair<Addr, Cycles>> want = ref.inflightSnapshot();
    std::vector<std::pair<Addr, Cycles>> got =
        real.inflightSnapshot();
    EXPECT_EQ(got, want) << "in-flight contents diverged, seed "
                         << seed;
}

HierarchyParams
diffParams()
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 4 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 4 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 16 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 64 * 1024, 8, 64};
    return hp;
}

TEST(HierarchyDifferential, FusedCascadesMatchReferenceSrrip)
{
    for (const std::uint64_t seed : {11ull, 12ull, 13ull})
        runHierarchyDifferential(diffParams(), seed, 20000);
}

TEST(HierarchyDifferential, FusedCascadesMatchReferenceEmissary)
{
    HierarchyParams hp = diffParams();
    hp.l2Policy = PolicySpec("Emissary");
    runHierarchyDifferential(hp, 21, 20000);
}

TEST(HierarchyDifferential, FusedCascadesMatchReferenceTrrip)
{
    HierarchyParams hp = diffParams();
    hp.l2Policy = PolicySpec("TRRIP-2");
    runHierarchyDifferential(hp, 31, 20000);
}

TEST(HierarchyDifferential, FusedCascadesMatchReferenceTinyPrune)
{
    // A prune threshold small enough that the sweep actually runs,
    // guarding the exactly-at-threshold boundary semantics.
    HierarchyParams hp = diffParams();
    hp.inflightPruneThreshold = 8;
    hp.inflightPruneGraceCycles = 500;
    runHierarchyDifferential(hp, 61, 20000);
}

/**
 * Drive a masked MultiCoreHierarchy and its naive reference (owner
 * masks ignored: every SLC eviction probes every core) over one
 * seeded random multi-core access stream and require identical
 * outcomes and statistics.  The owner masks are conservative
 * supersets of the true private holders and probing an absent line
 * is a stat-free no-op, so the two cascades must be observationally
 * identical -- only the probe work differs.  The shared regions give
 * lines multi-bit owner masks; the per-core private regions give
 * single-bit masks, the case where naive probing visits cores the
 * masked cascade proves it can skip.
 */
void
runMultiCoreDifferential(const MultiCoreParams &mp, std::uint64_t seed,
                         int accesses)
{
    MultiCoreHierarchy masked(mp);
    MultiCoreParams np = mp;
    np.naiveBackInvalidate = true;
    MultiCoreHierarchy naive(np);
    Rng rng(seed);
    Cycles now = 0;

    const Addr code_base = 0x10000;
    const Addr code_bytes = 96 * 1024;
    const Addr data_base = 0x400000;
    const Addr data_bytes = 160 * 1024;
    // Per-core private windows beyond the shared regions.
    const Addr priv_stride = 0x1000000;

    for (int i = 0; i < accesses; ++i) {
        now += rng.below(120);
        const auto c =
            static_cast<unsigned>(rng.below(masked.numCores()));
        const bool shared = rng.chance(0.6);
        const Addr base = shared ? 0 : (1 + c) * priv_stride;
        const std::uint64_t kind = rng.below(100);
        MemRequest req;
        if (kind < 55) {
            const Addr a = base + code_base +
                           (rng.chance(0.7)
                                ? rng.below(code_bytes / 8)
                                : rng.below(code_bytes));
            req.vaddr = req.paddr = a;
            req.pc = a;
            req.type = AccessType::InstFetch;
            req.temp = static_cast<Temperature>(rng.below(4));
            const AccessOutcome a_out =
                masked.core(c).instFetch(req, now);
            const AccessOutcome b_out =
                naive.core(c).instFetch(req, now);
            ASSERT_EQ(a_out.latency, b_out.latency)
                << "seed " << seed << " access " << i << " core " << c;
            ASSERT_EQ(a_out.servedBy, b_out.servedBy)
                << "seed " << seed << " access " << i << " core " << c;
            ASSERT_EQ(a_out.l2DemandMiss, b_out.l2DemandMiss)
                << "seed " << seed << " access " << i << " core " << c;
        } else if (kind < 90) {
            const Addr a = base + data_base +
                           (rng.chance(0.5)
                                ? (i % 64) * 256
                                : rng.below(data_bytes));
            req.vaddr = req.paddr = a;
            req.pc = 0x8000 + (kind % 8) * 4;
            req.type = rng.chance(0.3) ? AccessType::Store
                                       : AccessType::Load;
            const AccessOutcome a_out =
                masked.core(c).dataAccess(req, now);
            const AccessOutcome b_out =
                naive.core(c).dataAccess(req, now);
            ASSERT_EQ(a_out.latency, b_out.latency)
                << "seed " << seed << " access " << i << " core " << c;
            ASSERT_EQ(a_out.servedBy, b_out.servedBy)
                << "seed " << seed << " access " << i << " core " << c;
            ASSERT_EQ(a_out.l2DemandMiss, b_out.l2DemandMiss)
                << "seed " << seed << " access " << i << " core " << c;
        } else if (kind < 97) {
            const Addr a = base + code_base + rng.below(code_bytes);
            req.vaddr = req.paddr = mp.hier.l2.lineAddr(a);
            req.pc = req.vaddr;
            req.type = AccessType::InstPrefetch;
            req.temp = static_cast<Temperature>(rng.below(4));
            masked.core(c).instPrefetch(req, now);
            naive.core(c).instPrefetch(req, now);
        } else {
            const Addr a = base + code_base + rng.below(code_bytes);
            masked.core(c).markL2Priority(a);
            naive.core(c).markL2Priority(a);
        }
    }

    for (unsigned c = 0; c < masked.numCores(); ++c) {
        const std::string lvl = "core" + std::to_string(c);
        expectCacheStatsEq((lvl + ".l1i").c_str(),
                           masked.core(c).l1i().stats(),
                           naive.core(c).l1i().stats(), seed);
        expectCacheStatsEq((lvl + ".l1d").c_str(),
                           masked.core(c).l1d().stats(),
                           naive.core(c).l1d().stats(), seed);
        expectCacheStatsEq((lvl + ".l2").c_str(),
                           masked.core(c).l2().stats(),
                           naive.core(c).l2().stats(), seed);
        EXPECT_EQ(masked.core(c).prefetchStats().issued,
                  naive.core(c).prefetchStats().issued)
            << "seed " << seed << " core " << c;
        EXPECT_EQ(masked.core(c).prefetchStats().covered,
                  naive.core(c).prefetchStats().covered)
            << "seed " << seed << " core " << c;
        EXPECT_EQ(masked.core(c).prefetchStats().late,
                  naive.core(c).prefetchStats().late)
            << "seed " << seed << " core " << c;
    }
    expectCacheStatsEq("slc", masked.slc().stats(),
                       naive.slc().stats(), seed);
    EXPECT_EQ(masked.dram().reads(), naive.dram().reads())
        << "seed " << seed;
    EXPECT_EQ(masked.dram().writes(), naive.dram().writes())
        << "seed " << seed;
    EXPECT_TRUE(masked.checkInclusion()) << "seed " << seed;
    EXPECT_TRUE(naive.checkInclusion()) << "seed " << seed;
}

MultiCoreParams
multiCoreDiffParams(unsigned cores)
{
    MultiCoreParams mp;
    mp.hier = diffParams();
    // Small enough that SLC evictions -- the cascade under test --
    // fire constantly against the combined private footprints.
    mp.hier.slc = CacheGeometry{"SLC", 32 * 1024, 8, 64};
    mp.numCores = cores;
    return mp;
}

TEST(MultiCoreDifferential, MaskedBackInvalidationMatchesNaiveTwoCore)
{
    for (const std::uint64_t seed : {71ull, 72ull, 73ull})
        runMultiCoreDifferential(multiCoreDiffParams(2), seed, 20000);
}

TEST(MultiCoreDifferential, MaskedBackInvalidationMatchesNaiveTrrip)
{
    MultiCoreParams mp = multiCoreDiffParams(3);
    mp.hier.l2Policy = PolicySpec("TRRIP-2");
    runMultiCoreDifferential(mp, 81, 20000);
}

TEST(MultiCoreDifferential, MaskedBackInvalidationMatchesNaiveFourCore)
{
    MultiCoreParams mp = multiCoreDiffParams(4);
    mp.hier.slcPolicy = PolicySpec("SRRIP");
    runMultiCoreDifferential(mp, 91, 20000);
}

TEST(MultiCoreDifferential, MaskedBackInvalidationMatchesNaiveTinySlc)
{
    // An SLC barely bigger than one L2: back-invalidation dominates
    // and nearly every fill displaces someone's private lines.
    MultiCoreParams mp = multiCoreDiffParams(4);
    mp.hier.slc = CacheGeometry{"SLC", 16 * 1024, 4, 64};
    mp.hier.l2Policy = PolicySpec("Emissary");
    runMultiCoreDifferential(mp, 101, 20000);
}

} // namespace
} // namespace trrip
