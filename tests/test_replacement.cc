/**
 * @file
 * Unit tests for the baseline replacement policies (LRU, Random,
 * SRRIP, BRRIP, DRRIP, SHiP, CLIP, Emissary) plus parameterized
 * property tests that every policy (including TRRIP) must satisfy:
 * valid victims, bounded policy state, determinism, and never beating
 * Belady's optimal.
 *
 * Policies own their per-line state in SoA arrays (no line view in the
 * hook API), so the unit tests drive hooks directly with (set, way,
 * request) and observe state through rrpvOf()/victim().  The
 * ReferenceEquivalence suite is the SoA/AoS differential guard and
 * the independent reference for every arm of the cache's PolicyKind
 * switch: a straightforward array-of-structs reimplementation of
 * every policy runs the same randomized operations through a
 * reference cache model, and the production Cache -- through both
 * families of entry points, plus accessInvalidate, invalidate and
 * markPriority with owner masks on -- must produce the same hits,
 * victims, metadata and owner masks, operation for operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "analysis/belady.hh"
#include "cache/cache.hh"
#include "cache/replacement/clip.hh"
#include "cache/replacement/drrip.hh"
#include "cache/replacement/emissary.hh"
#include "cache/replacement/lru.hh"
#include "cache/replacement/random.hh"
#include "cache/replacement/rrip.hh"
#include "cache/replacement/set_dueling.hh"
#include "cache/replacement/ship.hh"
#include "core/policy_registry.hh"
#include "core/trrip_policy.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"

namespace trrip {
namespace {

CacheGeometry
geom4w()
{
    return CacheGeometry{"t", 4 * 1024, 4, 64};
}

std::unique_ptr<ReplacementPolicy>
make(const std::string &spec, const CacheGeometry &geom)
{
    return PolicyRegistry::instance().instantiate(spec, geom);
}

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

// ----------------------------- LRU --------------------------------

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy p(geom4w());
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(0, w, inst(w * 64));
    p.onHit(0, 0, inst(0)); // way 0 becomes MRU.
    EXPECT_EQ(p.victim(0, inst(0x999)), 1u);
}

TEST(Lru, HitRefreshesRecency)
{
    LruPolicy p(geom4w());
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(0, w, inst(w * 64));
    p.onHit(0, 1, inst(64));
    p.onHit(0, 0, inst(0));
    // Ways 2 then 3 are now the oldest.
    EXPECT_EQ(p.victim(0, inst(0x999)), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy p(geom4w());
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(3, w, inst(w * 64));
    // Touching another set must not disturb set 3's order.
    p.onFill(5, 0, inst(0x5000));
    p.onHit(3, 0, inst(0));
    EXPECT_EQ(p.victim(3, inst(0x999)), 1u);
}

// ----------------------------- SRRIP -------------------------------

TEST(Srrip, InsertsAtIntermediate)
{
    SrripPolicy p(geom4w());
    p.onFill(0, 0, inst(0));
    EXPECT_EQ(p.rrpvOf(0, 0), 2);
}

TEST(Srrip, HitPromotesToImmediate)
{
    SrripPolicy p(geom4w());
    p.onFill(0, 0, inst(0)); // rrpv = 2.
    p.onHit(0, 0, inst(0));
    EXPECT_EQ(p.rrpvOf(0, 0), 0);
}

TEST(Srrip, VictimAgingSearch)
{
    SrripPolicy p(geom4w());
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(0, w, inst(w * 64)); // All at Intermediate (2).
    p.onHit(0, 2, inst(2 * 64));      // Way 2 -> Immediate (0).
    // RRPVs {2, 2, 0, 2}: the search picks way 0 (first maximum) and
    // ages the whole set by 3 - 2 = 1 until a Distant line appears.
    EXPECT_EQ(p.victim(0, inst(0x999)), 0u);
    EXPECT_EQ(p.rrpvOf(0, 1), 3);
    EXPECT_EQ(p.rrpvOf(0, 2), 1);
}

TEST(Srrip, VictimAgesUntilDistantAppears)
{
    SrripPolicy p(geom4w());
    for (std::uint32_t w = 0; w < 4; ++w) {
        p.onFill(0, w, inst(w * 64));
        p.onHit(0, w, inst(w * 64)); // Everyone at Immediate (0).
    }
    EXPECT_EQ(p.victim(0, inst(0x999)), 0u);
    for (std::uint32_t w = 1; w < 4; ++w)
        EXPECT_EQ(p.rrpvOf(0, w), 3); // Aged 0 -> 3 in one pass.
}

TEST(Srrip, RrpvLevelsOrdered)
{
    SrripPolicy p(geom4w());
    EXPECT_LT(p.immediate(), p.near());
    EXPECT_LT(p.near(), p.intermediate());
    EXPECT_LT(p.intermediate(), p.distant());
    EXPECT_EQ(p.distant(), 3);
}

TEST(Srrip, WiderRrpvRespected)
{
    SrripPolicy p(geom4w(), 3);
    EXPECT_EQ(p.distant(), 7);
    EXPECT_EQ(p.intermediate(), 6);
}

// ----------------------------- BRRIP -------------------------------

TEST(Brrip, MostFillsDistantSomeIntermediate)
{
    BrripPolicy p(geom4w(), 2, 32);
    int distant = 0, intermediate = 0;
    for (int i = 0; i < 320; ++i) {
        p.onFill(0, 0, inst(0));
        if (p.rrpvOf(0, 0) == 3)
            ++distant;
        else if (p.rrpvOf(0, 0) == 2)
            ++intermediate;
    }
    EXPECT_EQ(intermediate, 10); // Exactly 1 in 32.
    EXPECT_EQ(distant, 310);
}

// ----------------------------- DRRIP -------------------------------

TEST(SetDuelingTest, LeaderAssignmentDisjoint)
{
    SetDueling d(256, 32, 10);
    int p0 = 0, p1 = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        const int leader = d.leaderOf(s);
        p0 += leader == 0;
        p1 += leader == 1;
    }
    EXPECT_EQ(p0, 32);
    EXPECT_EQ(p1, 32);
}

TEST(SetDuelingTest, PselMovesWithLeaderMisses)
{
    SetDueling d(256, 32, 10);
    std::uint32_t p0_leader = 0, p1_leader = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        if (d.leaderOf(s) == 0)
            p0_leader = s;
        if (d.leaderOf(s) == 1)
            p1_leader = s;
    }
    const auto start = d.pselValue();
    d.onMiss(p0_leader);
    EXPECT_EQ(d.pselValue(), start + 1);
    d.onMiss(p1_leader);
    d.onMiss(p1_leader);
    EXPECT_EQ(d.pselValue(), start - 1);
}

TEST(SetDuelingTest, FollowersTrackWinner)
{
    SetDueling d(64, 8, 4);
    std::uint32_t follower = 0;
    for (std::uint32_t s = 0; s < 64; ++s) {
        if (d.leaderOf(s) == -1)
            follower = s;
    }
    // Hammer policy-0 leaders with misses: followers should use 1.
    for (std::uint32_t s = 0; s < 64; ++s) {
        if (d.leaderOf(s) == 0) {
            for (int i = 0; i < 20; ++i)
                d.onMiss(s);
        }
    }
    EXPECT_EQ(d.policyFor(follower), 1);
}

TEST(SetDuelingTest, TinyCacheScalesLeaders)
{
    SetDueling d(4, 32, 10); // Must not crash or overlap.
    int leaders = 0;
    for (std::uint32_t s = 0; s < 4; ++s)
        leaders += d.leaderOf(s) >= 0 ? 1 : 0;
    EXPECT_GE(leaders, 2);
}

TEST(Drrip, LeaderSetsUseOwnPolicy)
{
    const CacheGeometry g{"t", 64 * 1024, 4, 64}; // 256 sets.
    DrripPolicy p(g);
    // Find an SRRIP leader set and check insertion there is always
    // intermediate.
    std::uint32_t srrip_leader = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        if (p.dueling().leaderOf(s) == 0)
            srrip_leader = s;
    }
    for (int i = 0; i < 64; ++i) {
        p.onFill(srrip_leader, 0, inst(0));
        EXPECT_EQ(p.rrpvOf(srrip_leader, 0), 2);
    }
}

TEST(Drrip, PrefetchMissesDoNotTrainDuel)
{
    const CacheGeometry g{"t", 64 * 1024, 4, 64};
    DrripPolicy p(g);
    std::uint32_t leader0 = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        if (p.dueling().leaderOf(s) == 0)
            leader0 = s;
    }
    const auto before = p.dueling().pselValue();
    MemRequest pf = inst(0x40);
    pf.type = AccessType::InstPrefetch;
    p.victim(leader0, pf);
    EXPECT_EQ(p.dueling().pselValue(), before);
    p.victim(leader0, inst(0x40));
    EXPECT_EQ(p.dueling().pselValue(), before + 1);
}

// ----------------------------- SHiP --------------------------------

TEST(Ship, DeadSignatureInsertsDistant)
{
    ShipPolicy p(geom4w(), 2, 10); // 1024-entry SHCT.
    const Addr pc = 0x4000;

    // Train the signature dead: fill + evict without reuse (counter
    // starts at 1, one decrement zeroes it).
    MemRequest r = inst(0x100);
    r.pc = pc;
    p.onFill(0, 0, r);
    p.onEvict(0, 0);
    p.onFill(0, 0, r);
    EXPECT_EQ(p.rrpvOf(0, 0), 3); // Now predicted dead on arrival.
}

TEST(Ship, ReusedSignatureInsertsIntermediate)
{
    ShipPolicy p(geom4w(), 2, 10); // 1024-entry SHCT.
    MemRequest r = inst(0x100);
    r.pc = 0x4000;
    p.onFill(0, 0, r);
    p.onHit(0, 0, r); // Outcome bit set, SHCT incremented.
    p.onEvict(0, 0);
    p.onFill(0, 0, r);
    EXPECT_EQ(p.rrpvOf(0, 0), 2);
}

TEST(Ship, DataLinesFollowSrrip)
{
    ShipPolicy p(geom4w(), 2, 10); // 1024-entry SHCT.
    p.onFill(0, 0, load(0x100));
    EXPECT_EQ(p.rrpvOf(0, 0), 2);
    p.onHit(0, 0, load(0x100));
    EXPECT_EQ(p.rrpvOf(0, 0), 0);
    // Evicting a data line never trains the SHCT: refilling the same
    // PC as an instruction still inserts at Intermediate.
    p.onEvict(0, 0);
    MemRequest r = inst(0x100);
    p.onFill(0, 0, r);
    EXPECT_EQ(p.rrpvOf(0, 0), 2);
}

TEST(Ship, SignatureIsStablePerPc)
{
    EXPECT_EQ(ShipPolicy::signatureOf(0x1234),
              ShipPolicy::signatureOf(0x1234));
    EXPECT_LE(ShipPolicy::signatureOf(0xdeadbeef), 0x3fff);
}

// ----------------------------- CLIP --------------------------------

TEST(Clip, InstructionFillsImmediate)
{
    ClipPolicy p(geom4w());
    p.onFill(0, 0, inst(0x100));
    EXPECT_EQ(p.rrpvOf(0, 0), 0);
    p.onFill(0, 1, load(0x200));
    EXPECT_EQ(p.rrpvOf(0, 1), 2);
}

TEST(Clip, InstructionHitsAlwaysImmediate)
{
    ClipPolicy p(geom4w());
    p.onFill(0, 0, load(0x100)); // rrpv = 2.
    p.onHit(0, 0, inst(0x100));
    EXPECT_EQ(p.rrpvOf(0, 0), 0);
}

// ---------------------------- Emissary -----------------------------

TEST(Emissary, PriorityLinesProtectedFromEviction)
{
    EmissaryPolicy p(geom4w(), 2, 1.0);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onFill(0, w, inst(w * 64));
    p.onPriorityHint(0, 0); // Oldest line, but priority.
    ASSERT_TRUE(p.priorityOf(0, 0));
    const auto victim = p.victim(0, inst(0x999));
    EXPECT_NE(victim, 0u);
    EXPECT_EQ(victim, 1u); // Next oldest non-priority.
}

TEST(Emissary, SaturatedPrioritySetFallsBackToGlobalLru)
{
    EmissaryPolicy p(geom4w(), 2, 1.0);
    for (std::uint32_t w = 0; w < 4; ++w) {
        p.onFill(0, w, inst(w * 64));
        p.onPriorityHint(0, w);
    }
    // More priority lines than priority ways: plain LRU.
    EXPECT_EQ(p.victim(0, inst(0x999)), 0u);
}

TEST(Emissary, FillWithHintSetsPriority)
{
    EmissaryPolicy p(geom4w(), 4, 1.0);
    MemRequest r = inst(0x100);
    r.priority = true;
    p.onFill(0, 0, r);
    EXPECT_TRUE(p.priorityOf(0, 0));
    // Data requests never set priority.
    MemRequest d = load(0x200);
    d.priority = true;
    p.onFill(0, 1, d);
    EXPECT_FALSE(p.priorityOf(0, 1));
}

// ---------------------- Registry and properties ---------------------

TEST(PolicyRegistryCreation, CreatesEveryEvaluatedPolicy)
{
    for (const auto &name : evaluatedPolicyNames()) {
        auto p = make(name, geom4w());
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->describe(), PolicySpec(name).canonical());
    }
    EXPECT_NE(make("Random", geom4w()), nullptr);
}

TEST(PolicyDispatch, EveryKindNamesTheClassItsCaseCastsTo)
{
    // The cache's switch static_casts to the class its case names; a
    // kind passed by the wrong class would run another policy's hooks
    // on foreign state.  dynamic_cast checks each cast.
    std::vector<PolicyKind> kinds;
    for (const auto &name : PolicyRegistry::instance().names()) {
        Cache cache(geom4w(), PolicySpec(name));
        ReplacementPolicy *const policy = &cache.policy();
        cache.dispatch([&](auto &concrete) {
            using Concrete = std::remove_reference_t<decltype(concrete)>;
            EXPECT_EQ(dynamic_cast<Concrete *>(policy), &concrete)
                << name;
        });
        kinds.push_back(policy->kind());
    }
    // Nine classes, one kind each (TRRIP-1/2 share TrripPolicy).
    std::sort(kinds.begin(), kinds.end());
    EXPECT_EQ(std::unique(kinds.begin(), kinds.end()) - kinds.begin(),
              9);
}

TEST(PolicyRegistryCreation, ParameterizedSpecsResolve)
{
    auto p = make("SRRIP(bits=3)", geom4w());
    auto *srrip = dynamic_cast<SrripPolicy *>(p.get());
    ASSERT_NE(srrip, nullptr);
    EXPECT_EQ(srrip->distant(), 7);
    EXPECT_EQ(srrip->describe(), "SRRIP(bits=3)");
}

/** Property harness: run a mixed random workload through a Cache. */
class PolicyProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Random mixed inst/data trace with reuse. */
    static std::vector<MemRequest>
    trace(std::uint64_t seed, std::size_t n)
    {
        Rng rng(seed);
        std::vector<MemRequest> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            MemRequest r;
            const bool is_inst = rng.chance(0.5);
            // Zipf-ish footprint: small hot region + big cold region.
            const Addr base = is_inst ? 0x100000 : 0x800000;
            const Addr addr =
                rng.chance(0.7)
                    ? base + rng.below(8 * 1024)
                    : base + rng.below(256 * 1024);
            r.vaddr = r.paddr = addr;
            r.pc = addr;
            r.type = is_inst ? AccessType::InstFetch : AccessType::Load;
            r.temp = is_inst
                         ? (rng.chance(0.5) ? Temperature::Hot
                                            : Temperature::Warm)
                         : Temperature::None;
            r.priority = rng.chance(0.1);
            out.push_back(r);
        }
        return out;
    }

    static std::uint64_t
    runMisses(const std::string &policy, std::uint64_t seed)
    {
        Cache cache(geom4w(), make(policy, geom4w()));
        for (const auto &req : trace(seed, 30000)) {
            if (!cache.access(req))
                cache.fill(req);
        }
        return cache.stats().demandMisses;
    }
};

TEST_P(PolicyProperty, NeverBeatsBelady)
{
    const auto reqs = trace(99, 30000);
    std::vector<Addr> addrs;
    addrs.reserve(reqs.size());
    for (const auto &r : reqs)
        addrs.push_back(r.paddr);
    const auto optimal = beladyMisses(addrs, geom4w());
    EXPECT_GE(runMisses(GetParam(), 99), optimal);
}

TEST_P(PolicyProperty, Deterministic)
{
    EXPECT_EQ(runMisses(GetParam(), 7), runMisses(GetParam(), 7));
}

TEST_P(PolicyProperty, VictimAlwaysValidWay)
{
    Cache cache(geom4w(), make(GetParam(), geom4w()));
    cache.dispatch([](auto &policy) {
        Rng rng(3);
        for (int i = 0; i < 2000; ++i) {
            MemRequest r = rng.chance(0.5) ? inst(rng.below(1 << 20))
                                           : load(rng.below(1 << 20));
            const auto set = static_cast<std::uint32_t>(rng.below(16));
            const auto way = policy.victim(set, r);
            ASSERT_LT(way, 4u);
            policy.onEvict(set, way);
            policy.onFill(set, way, r);
        }
    });
}

TEST_P(PolicyProperty, CacheInvariantUnderChurn)
{
    Cache cache(geom4w(), make(GetParam(), geom4w()));
    for (const auto &req : trace(21, 20000)) {
        if (!cache.access(req))
            cache.fill(req);
        ASSERT_LE(cache.residentLines(), 64u); // 4 KiB / 64 B.
    }
    // The cache must be full after this much traffic.
    EXPECT_EQ(cache.residentLines(), 64u);
}

TEST_P(PolicyProperty, HitRateBeatsNoReuseFloor)
{
    // With 70% of accesses in an 8 KiB hot region and a 4 KiB cache,
    // any sane policy lands well above a 5% hit rate.
    const auto misses = runMisses(GetParam(), 5);
    EXPECT_LT(misses, 30000u * 95 / 100);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperty,
    ::testing::Values("LRU", "Random", "SRRIP", "BRRIP", "DRRIP",
                      "SHiP", "CLIP", "Emissary", "TRRIP-1",
                      "TRRIP-2"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---------------- SoA vs AoS reference equivalence ------------------

/**
 * Array-of-structs reference model: one struct per line holding the
 * union of all policy state, mutated by per-policy logic transcribed
 * from the paper algorithms (and from the pre-SoA implementations).
 * The production SoA policies must match it access for access.
 */
struct RefLine
{
    std::uint64_t stamp = 0;
    std::uint16_t signature = 0;
    std::uint8_t rrpv = 0;
    bool valid = false;
    bool isInst = false;
    bool outcome = false;
    bool priority = false;
};

enum class RefFamily { Lru, Random, Srrip, Brrip, Drrip, Ship, Clip,
                       Emissary, Trrip1, Trrip2 };

/** AoS reimplementation of every policy family over RefLine. */
class RefPolicy
{
  public:
    RefPolicy(RefFamily family, const CacheGeometry &geom) :
        family_(family), ways_(geom.assoc),
        lines_(static_cast<std::size_t>(geom.numSets()) * geom.assoc),
        dueling_(geom.numSets(), 32, 10),
        shct_(1u << 10, SatCounter(2, 1)),
        randomRng_(0xdecafbadull), emissaryRng_(0xe1155a47ull)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way, const MemRequest &req)
    {
        RefLine &l = lines_[idx(set, way)];
        switch (family_) {
          case RefFamily::Lru:
            l.stamp = ++tick_;
            break;
          case RefFamily::Random:
            break;
          case RefFamily::Emissary:
            l.stamp = ++tick_;
            if (req.priority && req.isInst() && !l.priority)
                l.priority = emissaryRng_.chance(0.5);
            break;
          case RefFamily::Srrip:
          case RefFamily::Brrip:
          case RefFamily::Drrip:
            l.rrpv = 0;
            break;
          case RefFamily::Ship:
            l.rrpv = 0;
            if (l.isInst && !req.isPrefetch()) {
                l.outcome = true;
                shct_[l.signature % shct_.size()].increment();
            }
            break;
          case RefFamily::Clip:
            if (req.isInst() || dueling_.policyFor(set) == 0)
                l.rrpv = 0;
            else if (l.rrpv > 0)
                --l.rrpv;
            break;
          case RefFamily::Trrip1:
          case RefFamily::Trrip2:
            if (req.isInst() && hasTemperature(req.temp)) {
                if (req.temp == Temperature::Hot) {
                    l.rrpv = 0;
                    break;
                }
                if (family_ == RefFamily::Trrip2) {
                    if (l.rrpv > 0)
                        --l.rrpv;
                    break;
                }
            }
            l.rrpv = 0;
            break;
        }
    }

    std::uint32_t
    victim(std::uint32_t set, const MemRequest &req)
    {
        RefLine *set_lines = &lines_[idx(set, 0)];
        switch (family_) {
          case RefFamily::Lru:
            return lruVictim(set_lines);
          case RefFamily::Random:
            return static_cast<std::uint32_t>(
                randomRng_.below(ways_));
          case RefFamily::Emissary:
            return emissaryVictim(set_lines);
          case RefFamily::Drrip:
          case RefFamily::Clip:
            if (!req.isPrefetch())
                dueling_.onMiss(set);
            return rripVictim(set_lines);
          default:
            return rripVictim(set_lines);
        }
    }

    void
    onFill(std::uint32_t set, std::uint32_t way, const MemRequest &req)
    {
        RefLine &l = lines_[idx(set, way)];
        // What Cache::fill() used to establish before the policy hook.
        l.valid = true;
        l.isInst = req.isInst();
        l.rrpv = 0;
        l.stamp = 0;
        l.signature = 0;
        l.outcome = false;
        l.priority = false;
        switch (family_) {
          case RefFamily::Lru:
            l.stamp = ++tick_;
            break;
          case RefFamily::Random:
            break;
          case RefFamily::Srrip:
            l.rrpv = 2;
            break;
          case RefFamily::Brrip:
            ++brripFills_;
            l.rrpv = (brripFills_ % 32 == 0) ? 2 : 3;
            break;
          case RefFamily::Drrip:
            if (dueling_.policyFor(set) == 0) {
                l.rrpv = 2;
            } else {
                ++brripFills_;
                l.rrpv = (brripFills_ % 32 == 0) ? 2 : 3;
            }
            break;
          case RefFamily::Ship:
            if (req.isInst()) {
                l.signature = ShipPolicy::signatureOf(req.pc);
                l.rrpv = shct_[l.signature % shct_.size()].isZero()
                             ? 3 : 2;
            } else {
                l.rrpv = 2;
            }
            break;
          case RefFamily::Clip:
            l.rrpv = req.isInst() ? 0 : 2;
            break;
          case RefFamily::Emissary:
            l.stamp = ++tick_;
            l.priority = req.priority && req.isInst() &&
                         emissaryRng_.chance(0.5);
            break;
          case RefFamily::Trrip1:
          case RefFamily::Trrip2:
            if (req.isInst() && hasTemperature(req.temp)) {
                if (req.temp == Temperature::Hot) {
                    l.rrpv = 0;
                    break;
                }
                if (family_ == RefFamily::Trrip2 &&
                    req.temp == Temperature::Warm) {
                    l.rrpv = 1;
                    break;
                }
            }
            l.rrpv = 2;
            break;
        }
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        RefLine &l = lines_[idx(set, way)];
        if (family_ == RefFamily::Ship && l.isInst && !l.outcome)
            shct_[l.signature % shct_.size()].decrement();
        l.valid = false;
    }

    /** Decode starvation flagged (set, way): Emissary's priority bit. */
    void
    onPriorityHint(std::uint32_t set, std::uint32_t way)
    {
        if (family_ == RefFamily::Emissary)
            lines_[idx(set, way)].priority = true;
    }

  private:
    std::size_t
    idx(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    std::uint32_t
    lruVictim(const RefLine *l) const
    {
        std::uint32_t best = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (l[w].stamp < l[best].stamp)
                best = w;
        }
        return best;
    }

    std::uint32_t
    rripVictim(RefLine *l)
    {
        // Literal form of the RRIP search: re-scan, ageing everyone,
        // until a Distant line appears (the production code runs the
        // closed single-pass form -- that is exactly the equivalence
        // this test pins).
        for (;;) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (l[w].rrpv >= 3)
                    return w;
            }
            for (std::uint32_t w = 0; w < ways_; ++w)
                ++l[w].rrpv;
        }
    }

    std::uint32_t
    emissaryVictim(const RefLine *l) const
    {
        std::uint32_t prio = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            prio += l[w].priority ? 1 : 0;
        const bool protect = prio > 0 && prio <= 4;
        std::uint32_t best = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (protect && l[w].priority)
                continue;
            if (best == ways_ || l[w].stamp < l[best].stamp)
                best = w;
        }
        if (best == ways_)
            return lruVictim(l);
        return best;
    }

    RefFamily family_;
    std::uint32_t ways_;
    std::vector<RefLine> lines_;
    SetDueling dueling_;
    std::vector<SatCounter> shct_;
    std::uint64_t tick_ = 0;
    std::uint64_t brripFills_ = 0;
    Rng randomRng_;
    Rng emissaryRng_;
};

struct RefCase
{
    const char *spec;   //!< Production registry spec.
    RefFamily family;   //!< Reference reimplementation to diff against.
};

class ReferenceEquivalence : public ::testing::TestWithParam<RefCase>
{};

/**
 * The differential harness: a reference tag model (line address, meta
 * byte and owner mask per way) plus RefPolicy runs next to the
 * production Cache on the same randomized operations.  Every demand
 * probe and fill picks its entry point at random from the two
 * families -- the default access/accessProbe/fill (the inline LRU arm
 * or the out-of-line switch) and accessProbeInline/fillInline (the
 * inline switch) -- and accessInvalidate, invalidate and markPriority
 * run between them, with owner masks on.  Every operation must agree
 * on hit/miss and way, every eviction and invalidation on the line's
 * address, meta byte and owner mask, so each arm of every entry point
 * is pinned against the AoS reference decision for decision.
 */
TEST_P(ReferenceEquivalence, SameHitsAndVictimsOnRandomTrace)
{
    const RefCase c = GetParam();
    const CacheGeometry geom{"ref", 8 * 1024, 4, 64}; // 32 sets.
    geom.check();

    Cache cache(geom, make(c.spec, geom));
    cache.enableOwnerMasks();
    RefPolicy ref(c.family, geom);

    // Reference residency model.
    const std::uint32_t sets = geom.numSets(), ways = geom.assoc;
    std::vector<Addr> refAddr(static_cast<std::size_t>(sets) * ways, 0);
    std::vector<std::uint8_t> refValid(refAddr.size(), 0);
    std::vector<std::uint8_t> refMeta(refAddr.size(), 0);
    std::vector<std::uint32_t> refOwner(refAddr.size(), 0);
    std::uint64_t refEvictions = 0, refInvalidations = 0;

    Rng rng(0x5eed);
    for (int i = 0; i < 60000; ++i) {
        MemRequest r;
        const bool is_inst = rng.chance(0.5);
        r.vaddr = r.paddr = rng.below(64 * 1024);
        r.pc = r.vaddr;
        // One request in ten is a prefetch; half the rest of the data
        // requests are stores.
        const auto type = rng.below(10);
        if (is_inst)
            r.type = type == 0 ? AccessType::InstPrefetch
                               : AccessType::InstFetch;
        else
            r.type = type == 0 ? AccessType::DataPrefetch
                               : (type < 5 ? AccessType::Store
                                           : AccessType::Load);
        if (is_inst && rng.chance(0.6)) {
            const auto t = rng.below(3);
            r.temp = t == 0 ? Temperature::Hot
                            : (t == 1 ? Temperature::Warm
                                      : Temperature::Cold);
        }
        r.priority = rng.chance(0.2);

        const std::uint32_t set = geom.setIndex(r.paddr);
        const Addr line = geom.lineAddr(r.paddr);

        // Reference lookup.
        std::uint32_t way = ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::size_t j =
                static_cast<std::size_t>(set) * ways + w;
            if (refValid[j] && refAddr[j] == line)
                way = w;
        }
        const bool ref_hit = way < ways;
        const std::size_t hit_j = static_cast<std::size_t>(set) * ways +
                                  (ref_hit ? way : 0);
        const auto expect_line = [&](const CacheLine &got,
                                     const char *op) {
            ASSERT_EQ(got.valid, ref_hit) << c.spec << ": " << op
                                          << " presence at op " << i;
            if (!ref_hit)
                return;
            ASSERT_EQ(got.addr, line) << c.spec << ": " << op << " " << i;
            ASSERT_EQ(got.meta, refMeta[hit_j])
                << c.spec << ": " << op << " meta at op " << i;
            ASSERT_EQ(got.owner, refOwner[hit_j])
                << c.spec << ": " << op << " owner at op " << i;
        };

        const auto op = rng.below(20);
        if (op == 0) {
            // Back-invalidation: no policy hook, the line just leaves.
            ASSERT_NO_FATAL_FAILURE(
                expect_line(cache.invalidate(r.paddr), "invalidate"));
            if (ref_hit) {
                refValid[hit_j] = 0;
                ++refInvalidations;
            }
            continue;
        }
        if (op == 1) {
            // The exclusive-SLC hit: the hit hook runs, then the line
            // leaves.
            ASSERT_EQ(cache.accessInvalidate(r), ref_hit)
                << c.spec << ": accessInvalidate at op " << i;
            if (ref_hit) {
                ref.onHit(set, way, r);
                refValid[hit_j] = 0;
                ++refInvalidations;
            }
            continue;
        }
        if (op == 2) {
            cache.markPriority(r.paddr);
            if (ref_hit)
                ref.onPriorityHint(set, way);
            continue;
        }

        const bool mark = rng.chance(0.5);
        const Cache::Probe probe = rng.chance(0.5)
                                       ? cache.accessProbeInline(r, mark)
                                       : cache.accessProbe(r, mark);
        ASSERT_EQ(probe.hit, ref_hit)
            << c.spec << ": hit/miss diverged at op " << i;
        ASSERT_EQ(probe.set, set) << c.spec << ": set at op " << i;

        if (probe.hit) {
            ASSERT_EQ(probe.way, way) << c.spec << ": way at op " << i;
            ref.onHit(set, way, r);
            if (mark && r.isWrite())
                refMeta[hit_j] |= kLineMetaDirty;
            continue;
        }

        // Reference fill: first invalid way, else the policy victim.
        std::uint32_t fill_way = ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::size_t j =
                static_cast<std::size_t>(set) * ways + w;
            if (!refValid[j]) {
                fill_way = w;
                break;
            }
        }
        CacheLine ref_evicted;
        if (fill_way == ways) {
            fill_way = ref.victim(set, r);
            ASSERT_LT(fill_way, ways);
            ref.onEvict(set, fill_way);
            const std::size_t j =
                static_cast<std::size_t>(set) * ways + fill_way;
            ref_evicted = CacheLine{true, refAddr[j], refMeta[j],
                                    refOwner[j]};
            ++refEvictions;
        }
        const std::size_t j =
            static_cast<std::size_t>(set) * ways + fill_way;
        const auto extra =
            static_cast<std::uint8_t>(rng.chance(0.5) ? kLineMetaInL1I : 0);
        const auto owner = static_cast<std::uint32_t>(rng.below(16));
        refAddr[j] = line;
        refValid[j] = 1;
        refMeta[j] = packLineMeta(r.isWrite(), r.isInst(),
                                  r.isInst() ? r.temp : Temperature::None) |
                     extra;
        refOwner[j] = owner;
        ref.onFill(set, fill_way, r);

        const CacheLine evicted = rng.chance(0.5)
                                      ? cache.fillInline(r, extra, owner)
                                      : cache.fill(r, extra, owner);
        ASSERT_EQ(evicted.valid, ref_evicted.valid)
            << c.spec << ": eviction presence diverged at op " << i;
        if (evicted.valid) {
            ASSERT_EQ(evicted.addr, ref_evicted.addr)
                << c.spec << ": victim diverged at op " << i;
            ASSERT_EQ(evicted.meta, ref_evicted.meta)
                << c.spec << ": victim meta at op " << i;
            ASSERT_EQ(evicted.owner, ref_evicted.owner)
                << c.spec << ": victim owner at op " << i;
        }
    }
    // End state: same resident lines, evictions and invalidations.
    std::uint64_t ref_resident = 0;
    for (const auto v : refValid)
        ref_resident += v;
    EXPECT_EQ(cache.residentLines(), ref_resident);
    EXPECT_EQ(cache.stats().evictions, refEvictions);
    EXPECT_EQ(cache.stats().invalidations, refInvalidations);
    EXPECT_GT(refEvictions, 10000u);
    EXPECT_GT(refInvalidations, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReferenceEquivalence,
    ::testing::Values(
        RefCase{"LRU", RefFamily::Lru},
        RefCase{"Random", RefFamily::Random},
        RefCase{"SRRIP", RefFamily::Srrip},
        RefCase{"BRRIP", RefFamily::Brrip},
        RefCase{"DRRIP", RefFamily::Drrip},
        RefCase{"SHiP(shct_bits=10)", RefFamily::Ship},
        RefCase{"CLIP", RefFamily::Clip},
        RefCase{"Emissary", RefFamily::Emissary},
        RefCase{"TRRIP-1", RefFamily::Trrip1},
        RefCase{"TRRIP-2", RefFamily::Trrip2}),
    [](const ::testing::TestParamInfo<RefCase> &info) {
        std::string name = info.param.spec;
        std::string out;
        for (char ch : name) {
            if (std::isalnum(static_cast<unsigned char>(ch)))
                out += ch;
            else if (ch == '-' || ch == '(')
                out += '_';
        }
        return out;
    });

} // namespace
} // namespace trrip
