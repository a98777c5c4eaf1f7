/**
 * @file
 * A single set-associative cache level with a pluggable replacement
 * policy and instrumentation counters.
 *
 * Storage is fully structure-of-arrays: a packed per-set array of
 * (tag << 1) | valid words (so findWay() is a tight scan over
 * contiguous 8-byte words), one metadata byte per way holding the
 * dirty/isInst flags and the 2-bit instrumentation temperature, and a
 * per-set free-way count so fill() skips the invalid-way scan when
 * the set is full.  Replacement state is SoA too, owned by the policy
 * (see replacement/policy.hh).  There is no array of CacheLine
 * structs at all: the full line address is derivable from (set, tag),
 * so CacheLine (line.hh) exists only as the *value type* of the
 * query/eviction API -- address, meta byte and owner mask as stored.
 * A 1 MB 16-way SLC thus costs ~160 kB of host memory instead of
 * ~650 kB, which keeps the whole simulated hierarchy's metadata
 * resident in the host cache during the miss / eviction cascades.
 *
 * The access/fill/accessInvalidate bodies are member templates
 * defined in this header and instantiated once per concrete policy
 * class, in which the policy hooks are inlined calls (the hooks are
 * not virtual).  The constructor reads ReplacementPolicy::kind(), and
 * dispatch() -- one switch over PolicyKind, with a case per built-in
 * and no fallback -- is the only way from a level to its policy's
 * hooks.  The default entry points (access, accessProbe,
 * accessInvalidate, fill) carry an inline LRU arm, since the L1I, L1D
 * and SLC run LRU in every paper configuration; any other kind takes
 * one out-of-line copy of the switch (cache.cc).  accessProbeInline
 * and fillInline inline the whole switch into the caller: the L2's
 * demand probe and fill, where every policy lane runs a different
 * policy.  test_replacement's AoS references pin every arm.
 */

#ifndef TRRIP_CACHE_CACHE_HH
#define TRRIP_CACHE_CACHE_HH

#include <array>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "cache/geometry.hh"
#include "cache/line.hh"
#include "cache/replacement/clip.hh"
#include "cache/replacement/drrip.hh"
#include "cache/replacement/emissary.hh"
#include "cache/replacement/lru.hh"
#include "cache/replacement/policy.hh"
#include "cache/replacement/random.hh"
#include "cache/replacement/rrip.hh"
#include "cache/replacement/ship.hh"
#include "core/policy_registry.hh"
#include "core/trrip_policy.hh"
#include "mem/request.hh"
#include "util/logging.hh"

namespace trrip {

/** Hit/miss/eviction counters for one cache. */
struct CacheStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t instDemandAccesses = 0;
    std::uint64_t instDemandMisses = 0;
    std::uint64_t dataDemandAccesses = 0;
    std::uint64_t dataDemandMisses = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0;
    /** Evictions by instrumentation temperature (hot evictions etc.). */
    std::array<std::uint64_t, 4> evictionsByTemp{};
    /** Evictions of instruction vs data lines. */
    std::uint64_t instEvictions = 0;
    std::uint64_t dataEvictions = 0;
};

/**
 * Call @p f(name, counter...) once per counter of CacheStats, with
 * that counter of each of @p stats, in the golden fingerprint's fold
 * order: the eleven scalars, instEvictions, dataEvictions, then
 * evictionsByTemp.0 to .3.  The SimResult overload
 * (sim/core_model.hh) runs this list once per cache level.
 */
template <typename F, typename... Stats>
    requires(std::same_as<std::remove_const_t<Stats>, CacheStats> && ...)
void
forEachCounter(F &&f, Stats &...stats)
{
    f("demandAccesses", stats.demandAccesses...);
    f("demandMisses", stats.demandMisses...);
    f("instDemandAccesses", stats.instDemandAccesses...);
    f("instDemandMisses", stats.instDemandMisses...);
    f("dataDemandAccesses", stats.dataDemandAccesses...);
    f("dataDemandMisses", stats.dataDemandMisses...);
    f("prefetchFills", stats.prefetchFills...);
    f("fills", stats.fills...);
    f("evictions", stats.evictions...);
    f("writebacks", stats.writebacks...);
    f("invalidations", stats.invalidations...);
    f("instEvictions", stats.instEvictions...);
    f("dataEvictions", stats.dataEvictions...);
    static constexpr const char *kByTemp[] = {
        "evictionsByTemp.0", "evictionsByTemp.1", "evictionsByTemp.2",
        "evictionsByTemp.3"};
    static_assert(std::size(kByTemp) ==
                  std::tuple_size_v<decltype(CacheStats::evictionsByTemp)>);
    for (std::size_t t = 0; t < std::size(kByTemp); ++t)
        f(kByTemp[t], stats.evictionsByTemp[t]...);
}
static_assert(sizeof(CacheStats) == 17 * sizeof(std::uint64_t),
              "a CacheStats field is missing from forEachCounter: list "
              "it in fold order, then update this count");

/**
 * One cache level.  The cache is functional: it tracks contents and
 * the policy tracks replacement state; the hierarchy layer adds
 * timing.
 */
class Cache
{
  public:
    Cache(const CacheGeometry &geom,
          std::unique_ptr<ReplacementPolicy> policy);

    /** Build the policy from a registry spec ("SRRIP(bits=3)"). */
    Cache(const CacheGeometry &geom, const PolicySpec &policy);

    const CacheGeometry &geometry() const { return geom_; }
    ReplacementPolicy &policy() { return *policy_; }
    const ReplacementPolicy &policy() const { return *policy_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Result of one access probe: hit plus the (set, way) the probe
     * bound, so the caller can follow up on the same slot (metadata
     * stamps, priority hints) without re-walking the tags.
     */
    struct Probe
    {
        bool hit = false;
        std::uint32_t set = 0;
        std::uint32_t way = 0;
    };

    /**
     * Look up @p req; on hit run the policy hit handler and return
     * true.  Never fills.  Demand accesses update the counters.
     * @p mark_dirty_on_write_hit folds the store-hit markDirty()
     * into the same tag probe (the L1D demand path).
     */
    bool
    access(const MemRequest &req, bool mark_dirty_on_write_hit = false)
    {
        return accessProbe(req, mark_dirty_on_write_hit).hit;
    }

    /**
     * access() that also reports which (set, way) hit, so the caller
     * can reuse the bound slot.  Identical stats and policy effects.
     * LRU runs inline; any other kind takes the out-of-line switch.
     */
    [[gnu::always_inline]] Probe
    accessProbe(const MemRequest &req,
                bool mark_dirty_on_write_hit = false)
    {
        if (kind_ == PolicyKind::Lru) [[likely]]
            return accessWith(lru(), req, mark_dirty_on_write_hit);
        return accessProbeSwitch(req, mark_dirty_on_write_hit);
    }

    /**
     * accessProbe() with the switch over every policy kind inlined
     * into the caller, for a level whose policy is not known to be
     * LRU.
     */
    [[gnu::always_inline]] Probe
    accessProbeInline(const MemRequest &req,
                      bool mark_dirty_on_write_hit = false)
    {
        return dispatch([&](auto &pol) __attribute__((always_inline)) {
            return accessWith(pol, req, mark_dirty_on_write_hit);
        });
    }

    /**
     * OR @p bits into the packed metadata byte of (set, way) -- the
     * follow-up write on a slot bound by accessProbe() (the
     * hierarchy's residency hints).  No tag walk, no policy effect.
     */
    void
    orMeta(std::uint32_t set, std::uint32_t way, std::uint8_t bits)
    {
        meta_[static_cast<std::size_t>(set) * assoc_ + way] |= bits;
    }

    /**
     * access() immediately followed by invalidate() of the hit line,
     * in one tag probe -- the exclusive-SLC hit path, where a hit
     * always moves the line back up to the L2.  Stats and policy
     * effects are identical to the two separate calls.
     */
    [[gnu::always_inline]] bool
    accessInvalidate(const MemRequest &req)
    {
        if (kind_ == PolicyKind::Lru) [[likely]]
            return accessInvalidateWith(lru(), req);
        return accessInvalidateSwitch(req);
    }

    /** True if the line holding @p paddr is present. */
    bool
    contains(Addr paddr) const
    {
        return findWay(setOf(paddr), tagOf(paddr)) >= 0;
    }

    /** The line holding @p paddr; CacheLine{} when absent. */
    CacheLine peek(Addr paddr) const;

    /** The line in (set, way), valid or not -- inclusion checks, tests. */
    CacheLine lineAt(std::uint32_t set, std::uint32_t way) const;

    /** Mark the line holding @p paddr dirty; no-op when absent. */
    void markDirty(Addr paddr);

    /**
     * Forward a fetch-criticality hint for the line holding @p paddr
     * to the policy's onPriorityHint(); no-op when the line is absent.
     * The Emissary priority-bit path.
     */
    void markPriority(Addr paddr);

    /**
     * Install the line for @p req, evicting if necessary, and return
     * the displaced line (CacheLine{} when a free way took it).  The
     * new line's metadata is OR-ed with @p extra_meta (residency hints
     * stamped in the same probe that installs the line), and
     * @p owner_bits seeds its per-core owner mask when owner tracking
     * is enabled (ignored otherwise).  The displaced line carries its
     * meta byte and owner mask, so the eviction cascade reuses its
     * identity with no second probe.  LRU runs inline; any other kind
     * takes the out-of-line switch.
     */
    [[gnu::always_inline]] CacheLine
    fill(const MemRequest &req, std::uint8_t extra_meta = 0,
         std::uint32_t owner_bits = 0)
    {
        if (kind_ == PolicyKind::Lru) [[likely]]
            return fillWith(lru(), req, extra_meta, owner_bits);
        return fillSwitch(req, extra_meta, owner_bits);
    }

    /**
     * fill() with the switch over every policy kind inlined into the
     * caller, for a level whose policy is not known to be LRU.
     */
    [[gnu::always_inline]] CacheLine
    fillInline(const MemRequest &req, std::uint8_t extra_meta = 0,
               std::uint32_t owner_bits = 0)
    {
        return dispatch([&](auto &pol) __attribute__((always_inline)) {
            return fillWith(pol, req, extra_meta, owner_bits);
        });
    }

    /**
     * Remove the line holding @p paddr (inclusive back-invalidation)
     * and return it: its meta byte keeps the residency hints and its
     * owner mask names the owning cores, so a multi-core back-
     * invalidation cascade walks the private levels of exactly those
     * cores.  CacheLine{} when the line was absent (absent lines bump
     * no counters).
     */
    CacheLine invalidate(Addr paddr);

    /**
     * @name Per-core owner masks (the shared-SLC role)
     * The multi-core generalization of the kLineMetaInL1I/D residency
     * hints: one bit per core, kept in a side SoA array allocated only
     * by enableOwnerMasks() (the meta byte has just two spare bits).
     * Bit c set means core c's private L2 *may* hold the line; a clear
     * bit proves absence, so SLC eviction back-invalidates only the
     * owning cores.  Single-core caches never enable the array and pay
     * nothing (the maintenance hooks are guarded on owners_.empty()).
     */
    /** @{ */

    /** Allocate the owner-mask array (idempotent). */
    void enableOwnerMasks();

    /**
     * OR @p bits into the owner mask of (set, way) -- the follow-up
     * write on a slot bound by accessProbe().  No tag walk.
     */
    void
    orOwner(std::uint32_t set, std::uint32_t way, std::uint32_t bits)
    {
        if (!owners_.empty())
            owners_[static_cast<std::size_t>(set) * assoc_ + way] |=
                bits;
    }

    /**
     * OR @p bits into the owner mask of the line holding @p paddr.
     * One tag probe; no stats, no policy effect.
     * @return true when the line was present.
     */
    bool stampOwner(Addr paddr, std::uint32_t bits);

    /**
     * Clear @p bits from the owner mask of the line holding @p paddr
     * and, when @p dirty, fold a writeback into its meta byte -- the
     * inclusive-SLC form of an L2 victim "moving down" (the data is
     * already here; only ownership and dirtiness change).  One tag
     * probe; no stats, no policy effect.
     * @return true when the line was present.
     */
    bool releaseOwner(Addr paddr, std::uint32_t bits, bool dirty);

    /** Owner mask of the line holding @p paddr (0 if absent). */
    std::uint32_t ownerOf(Addr paddr) const;

    /** @} */

    /** Number of valid lines currently resident. */
    std::uint64_t residentLines() const;

    /**
     * Run @p fn with the policy downcast to its concrete class: the
     * one switch over PolicyKind.  The callers' lambdas carry the GNU
     * spelling of always_inline: in that position the standard
     * spelling would name the lambda's type, which GCC ignores.
     */
    template <class Fn>
    [[gnu::always_inline]] std::invoke_result_t<Fn, LruPolicy &>
    dispatch(Fn &&fn);

  private:
    /**
     * Way holding (set, tag), or -1.  Branchless scan of the packed
     * tag words of the set (a way matches when its word equals
     * (tag << 1) | 1): no early exit, so the compiler turns the loop
     * into compare+select over contiguous words -- faster than a
     * branchy scan when the hit way is unpredictable, and at most one
     * way can match.
     */
    int
    findWay(std::uint32_t set, Addr tag) const
    {
        const std::uint64_t *words =
            &tags_[static_cast<std::size_t>(set) * assoc_];
        const std::uint64_t want = (tag << 1) | 1;
        int way = -1;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (words[w] == want)
                way = static_cast<int>(w);
        }
        return way;
    }

    /**
     * Demand hit/miss counter updates shared by the access paths:
     * branch-free, since hit and inst/data are unpredictable per
     * access.
     */
    void
    countDemand(const MemRequest &req, bool hit)
    {
        const std::uint64_t inst = req.isInst();
        const std::uint64_t miss = !hit;
        ++stats_.demandAccesses;
        stats_.instDemandAccesses += inst;
        stats_.dataDemandAccesses += inst ^ 1;
        stats_.demandMisses += miss;
        stats_.instDemandMisses += miss & inst;
        stats_.dataDemandMisses += miss & (inst ^ 1);
    }

    /** Address decomposition on cached constants (geom_.check()ed). */
    std::uint32_t
    setOf(Addr paddr) const
    {
        return static_cast<std::uint32_t>(paddr >> lineShift_) &
               setMask_;
    }
    Addr tagOf(Addr paddr) const { return paddr >> tagShift_; }

    /**
     * @name Policy-specialized hot paths
     * One instantiation per concrete policy class, forced inline so
     * every caller -- an entry point's LRU arm, an inline switch, the
     * out-of-line switch -- gets its own copy with the hooks inlined.
     */
    /** @{ */
    template <class Policy>
    [[gnu::always_inline]] Probe
    accessWith(Policy &pol, const MemRequest &req,
               bool mark_dirty_on_write_hit);
    template <class Policy>
    [[gnu::always_inline]] bool
    accessInvalidateWith(Policy &pol, const MemRequest &req);
    template <class Policy>
    [[gnu::always_inline]] CacheLine
    fillWith(Policy &pol, const MemRequest &req, std::uint8_t extra_meta,
             std::uint32_t owner_bits);

    /** The policy as LruPolicy; only valid when kind_ is Lru. */
    LruPolicy &lru() { return static_cast<LruPolicy &>(*policy_); }

    /**
     * The entry points' fallback for every kind but LRU: one
     * out-of-line switch each (cache.cc), never inlined, so a non-LRU
     * L1 or SLC costs a call instead of a switch copy per call site.
     */
    [[gnu::noinline]] Probe
    accessProbeSwitch(const MemRequest &req,
                      bool mark_dirty_on_write_hit);
    [[gnu::noinline]] bool accessInvalidateSwitch(const MemRequest &req);
    [[gnu::noinline]] CacheLine
    fillSwitch(const MemRequest &req, std::uint8_t extra_meta,
               std::uint32_t owner_bits);
    /** @} */

    CacheGeometry geom_;
    std::uint32_t assoc_;   //!< Cached geom_.assoc for the tag scan.
    std::uint32_t lineShift_ = 6, setMask_ = 0, tagShift_ = 6;
    std::unique_ptr<ReplacementPolicy> policy_;
    PolicyKind kind_;
    /** Packed (tag << 1) | valid per way, set-major (the scan path). */
    std::vector<std::uint64_t> tags_;
    /** Per-way dirty/isInst/temp byte (see kMeta constants). */
    std::vector<std::uint8_t> meta_;
    /** Invalid ways per set; fill() skips its scan when zero. */
    std::vector<std::uint32_t> freeWays_;
    /** Per-way owner mask; empty unless enableOwnerMasks() ran. */
    std::vector<std::uint32_t> owners_;
    CacheStats stats_;
};

/**
 * Every case instantiates the caller's template body once; inside it
 * the hooks are direct calls on a final class, so the optimizer
 * inlines the SoA state updates straight into the cache loop.  The
 * switch has no default: -Wswitch flags a PolicyKind without a case.
 */
template <class Fn>
inline std::invoke_result_t<Fn, LruPolicy &>
Cache::dispatch(Fn &&fn)
{
    switch (kind_) {
      case PolicyKind::Lru:
        return fn(static_cast<LruPolicy &>(*policy_));
      case PolicyKind::Random:
        return fn(static_cast<RandomPolicy &>(*policy_));
      case PolicyKind::Srrip:
        return fn(static_cast<SrripPolicy &>(*policy_));
      case PolicyKind::Brrip:
        return fn(static_cast<BrripPolicy &>(*policy_));
      case PolicyKind::Drrip:
        return fn(static_cast<DrripPolicy &>(*policy_));
      case PolicyKind::Ship:
        return fn(static_cast<ShipPolicy &>(*policy_));
      case PolicyKind::Clip:
        return fn(static_cast<ClipPolicy &>(*policy_));
      case PolicyKind::Emissary:
        return fn(static_cast<EmissaryPolicy &>(*policy_));
      case PolicyKind::Trrip:
        return fn(static_cast<TrripPolicy &>(*policy_));
    }
    __builtin_unreachable();
}

template <class Policy>
inline Cache::Probe
Cache::accessWith(Policy &pol, const MemRequest &req,
                  bool mark_dirty_on_write_hit)
{
    const std::uint32_t set = setOf(req.paddr);
    const Addr tag = tagOf(req.paddr);
    const int way = findWay(set, tag);
    const bool hit = way >= 0;

    if (!req.isPrefetch())
        countDemand(req, hit);

    if (hit) {
        pol.onHit(set, static_cast<std::uint32_t>(way), req);
        if (mark_dirty_on_write_hit && req.isWrite()) {
            meta_[static_cast<std::size_t>(set) * assoc_ +
                  static_cast<std::uint32_t>(way)] |= kLineMetaDirty;
        }
    }
    return Probe{hit, set, hit ? static_cast<std::uint32_t>(way) : 0};
}

template <class Policy>
inline bool
Cache::accessInvalidateWith(Policy &pol, const MemRequest &req)
{
    const std::uint32_t set = setOf(req.paddr);
    const Addr tag = tagOf(req.paddr);
    const int way = findWay(set, tag);
    const bool hit = way >= 0;

    if (!req.isPrefetch())
        countDemand(req, hit);

    if (hit) {
        const std::size_t idx =
            static_cast<std::size_t>(set) * assoc_ +
            static_cast<std::uint32_t>(way);
        // The policy hit handler still runs (its state -- the LRU
        // order, SHiP outcome bits -- must advance exactly as in
        // access()), then the line leaves the cache.
        pol.onHit(set, static_cast<std::uint32_t>(way), req);
        tags_[idx] = 0;
        meta_[idx] = 0;
        if (!owners_.empty())
            owners_[idx] = 0;
        ++freeWays_[set];
        ++stats_.invalidations;
    }
    return hit;
}

template <class Policy>
inline CacheLine
Cache::fillWith(Policy &pol, const MemRequest &req,
                std::uint8_t extra_meta, std::uint32_t owner_bits)
{
    const std::uint32_t set = setOf(req.paddr);
    const Addr tag = tagOf(req.paddr);
    assert(findWay(set, tag) < 0 &&
           "fill of already-present line");
    // The packed word stores (tag << 1) | valid: decomposed tags must
    // leave the top bit free (physical addresses stay below 2^63).
    assert((tag >> 63) == 0 && "tag too wide for the packed tag word");

    const std::size_t base = static_cast<std::size_t>(set) * assoc_;

    std::uint32_t way;
    CacheLine evicted;
    if (freeWays_[set] > 0) {
        // First invalid way, in way order (one bit test per word).
        way = 0;
        while ((tags_[base + way] & 1) != 0)
            ++way;
        --freeWays_[set];
    } else {
        way = pol.victim(set, req);
        panic_if(way >= assoc_,
                 geom_.name, ": policy returned invalid victim way");
        pol.onEvict(set, way);
        const std::uint8_t vmeta = meta_[base + way];
        ++stats_.evictions;
        ++stats_.evictionsByTemp[(vmeta >> kLineMetaTempShift) & 0x3];
        if (vmeta & kLineMetaInst)
            ++stats_.instEvictions;
        else
            ++stats_.dataEvictions;
        if (vmeta & kLineMetaDirty)
            ++stats_.writebacks;
        evicted.valid = true;
        evicted.addr = ((tags_[base + way] >> 1) << tagShift_) |
                       (static_cast<Addr>(set) << lineShift_);
        evicted.meta = vmeta;
        if (!owners_.empty())
            evicted.owner = owners_[base + way];
    }

    // The policy re-initializes its own per-way state in onFill().
    tags_[base + way] = (tag << 1) | 1;
    meta_[base + way] =
        packLineMeta(req.isWrite(), req.isInst(),
                     req.isInst() ? req.temp : Temperature::None) |
        extra_meta;
    if (!owners_.empty())
        owners_[base + way] = owner_bits;

    ++stats_.fills;
    if (req.isPrefetch())
        ++stats_.prefetchFills;
    pol.onFill(set, way, req);
    return evicted;
}

} // namespace trrip

#endif // TRRIP_CACHE_CACHE_HH
