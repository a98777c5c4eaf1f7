/**
 * @file
 * The simulated memory hierarchy of the paper's Table 1: private L1-I
 * and L1-D, a unified inclusive L2 running the replacement policy under
 * test, an exclusive system-level cache (SLC), and DRAM, with stride /
 * next-line prefetchers and an in-flight (MSHR-like) tracker so
 * prefetch timeliness is modeled.  The multi-core form shares one
 * inclusive SLC and one DRAM channel between per-core stacks.
 */

#ifndef TRRIP_CACHE_HIERARCHY_HH
#define TRRIP_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "core/policy_registry.hh"
#include "mem/dram.hh"
#include "mem/request.hh"
#include "util/flat_map.hh"

namespace trrip {

/** Which level ultimately supplied the data. */
enum class ServedBy : std::uint8_t {
    L1,         //!< L1 hit (pipelined, no stall).
    L2,         //!< L2 hit.
    Slc,        //!< System-level cache hit.
    Dram,       //!< Main memory.
    Inflight,   //!< Merged with an outstanding prefetch.
};

/** Timing/level outcome of one demand access. */
struct AccessOutcome
{
    Cycles latency = 0;         //!< Exposed cycles beyond an L1 hit.
    ServedBy servedBy = ServedBy::L1;
    bool l1Miss = false;
    bool l2DemandMiss = false;  //!< Counted in L2 MPKI.
};

/** Full hierarchy configuration (defaults = paper Table 1). */
struct HierarchyParams
{
    CacheGeometry l1i{"L1I", 64 * 1024, 4, 64};
    CacheGeometry l1d{"L1D", 64 * 1024, 4, 64};
    /**
     * The paper's L2 is 512 kB shared by a 4-core cluster; we simulate
     * one core against its 128 kB slice.
     */
    CacheGeometry l2{"L2", 128 * 1024, 8, 64};
    CacheGeometry slc{"SLC", 1024 * 1024, 16, 64};

    /**
     * Replacement policy of each level as a registry spec (any
     * registered policy, with parameters: "TRRIP-2(bits=3)").  The
     * paper's configuration runs the mechanism under test in the L2
     * with LRU everywhere else, but every level is assignable -- e.g.
     * a TRRIP L1-I for the per-level sweeps.
     */
    PolicySpec l1iPolicy{"LRU"};
    PolicySpec l1dPolicy{"LRU"};
    PolicySpec l2Policy{"SRRIP"};
    PolicySpec slcPolicy{"LRU"};

    // An L1 hit is pipelined: AccessOutcome::latency counts only the
    // cycles beyond it, so the L1s carry no latency of their own.
    Cycles l2TagLat = 8, l2DataLat = 12;
    Cycles slcTagLat = 10, slcDataLat = 30;
    DramParams dram{};

    bool enablePrefetch = true;
    unsigned l1dStrideDegree = 4;
    unsigned l2StrideDegree = 4;
    unsigned instNextLineDegree = 1;

    /**
     * In-flight (MSHR-like) tracker hygiene: once the tracker holds
     * this many entries, prefetches that were never demanded and
     * whose fill completed more than the grace period ago are swept.
     */
    std::size_t inflightPruneThreshold = 65536;
    Cycles inflightPruneGraceCycles = 100000;
};

/** Aggregate prefetch statistics. */
struct PrefetchStats
{
    std::uint64_t issued = 0;
    std::uint64_t covered = 0;  //!< Demand found a completed prefetch.
    std::uint64_t late = 0;     //!< Demand merged with one in flight.
};

/**
 * The instrumentation of one policy lane: every event the lane
 * reports, each a no-op unless overridden.  Fig. 3's
 * ReuseDistanceProfiler and Fig. 7's CostlyMissTracker are probes.
 * runBundle() attaches a lane's probe (LaneSpec, sim/multicore.hh) to
 * every core's hierarchy of that lane, so one probe sees one policy's
 * streams and no other.
 */
class LaneProbe
{
  public:
    virtual ~LaneProbe() = default;
    /** A demand request (instruction or data) reached the L2 lookup. */
    virtual void onL2Access(const MemRequest &) {}
    /**
     * An L2 instruction demand miss at virtual line address `line`
     * stalled fetch for at least the core's starvation threshold
     * (CoreModel); `exposed` is its stall beyond the fetch queue's
     * slack, in cycles.
     */
    virtual void onCostlyMiss(Addr /*line*/, double /*exposed*/) {}
};

class MultiCoreHierarchy;

/**
 * The four-level hierarchy.  Functional content is tracked exactly;
 * timing is analytic per access.  Prefetches are recorded in an
 * in-flight map and materialize into the L2 when first demanded
 * (completed prefetches become L2 hits; late ones become reduced-
 * latency misses), which keeps demand-MPKI accounting faithful.
 *
 * A hierarchy owns its SLC and DRAM by default (the single-core
 * engine).  The multi-core form (MultiCoreHierarchy) instead passes a
 * shared SLC + DRAM into N private stacks; each stack stamps its core
 * bit into the SLC's per-line owner mask and SLC evictions back-
 * invalidate through MultiCoreHierarchy::dropFromOwners().
 */
class CacheHierarchy
{
  public:
    /** Build every level's policy from the params' per-level specs. */
    explicit CacheHierarchy(const HierarchyParams &params);

    /**
     * Private per-core stack over an externally owned shared SLC and
     * DRAM (the multi-core form), which runs the inclusive protocol:
     * the SLC holds a superset of every private L2's contents, demand
     * hits keep their SLC copy, DRAM-served fills install into the SLC
     * on the way up, and L2 victims only release ownership.  The stack
     * stamps (1u << core_id) into the SLC owner masks and routes
     * SLC-eviction back-invalidations through @p fabric.
     */
    CacheHierarchy(const HierarchyParams &params, Cache &shared_slc,
                   Dram &shared_dram, unsigned core_id,
                   MultiCoreHierarchy *fabric);

    /** Demand instruction fetch at cycle @p now. */
    AccessOutcome instFetch(const MemRequest &req, Cycles now);

    /** Demand data load/store at cycle @p now. */
    AccessOutcome dataAccess(const MemRequest &req, Cycles now);

    /**
     * FDIP-style instruction prefetch (type must be InstPrefetch);
     * fills the L2 once it materializes.
     */
    void instPrefetch(const MemRequest &req, Cycles now);

    /** Attach the lane's probe (nullptr detaches). */
    void setProbe(LaneProbe *probe) { probe_ = probe; }
    LaneProbe *probe() const { return probe_; }

    /**
     * Set the Emissary priority bit on the L2 line holding @p paddr
     * (no-op if absent).  Called by the core when the miss that
     * fetched the line starved decode; the bit lives and dies with
     * the line, as in the original hardware proposal.
     */
    void markL2Priority(Addr paddr);

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &slc() { return *slc_; }
    Dram &dram() { return *dram_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &slc() const { return *slc_; }
    const Dram &dram() const { return *dram_; }
    const HierarchyParams &params() const { return params_; }
    const PrefetchStats &prefetchStats() const { return pfStats_; }

    /**
     * Drop the line holding @p addr from this core's private levels
     * (L2 plus the L1s its residency bits implicate) -- the receiving
     * end of a shared-SLC back-invalidation.  No stats beyond the
     * levels' invalidation counters, no SLC traffic.
     * @return true when any dropped copy was dirty.
     */
    bool dropLine(Addr addr);

    /** L2 demand misses per kilo-instruction, instruction side. */
    double l2InstMpki(InstCount instructions) const;
    /** L2 demand misses per kilo-instruction, data side. */
    double l2DataMpki(InstCount instructions) const;

    /** Verify the L2-includes-L1 invariant (test hook). */
    bool checkInclusion() const;

    /**
     * Sorted (line, ready) snapshot of the in-flight prefetch tracker
     * (test hook for the cascade differential suite).
     */
    std::vector<std::pair<Addr, Cycles>> inflightSnapshot() const;

  private:
    struct Inflight
    {
        Cycles ready = 0;
    };

    /**
     * Fill L2 for @p req with the fused eviction cascade: the victim
     * comes back from the same probe that installed the new line
     * (address + meta byte, no second probe), the L1
     * back-invalidations run only when the victim's residency bits
     * say a copy can exist, and the surviving victim walks straight
     * into victimToSlc.  @p l1_residency is OR-ed into the new line's
     * metadata (kLineMetaInL1I/D) when the caller is about to install
     * the same line into an L1.
     */
    void fillL2(const MemRequest &req, Cycles now,
                std::uint8_t l1_residency);
    /** Fill an L1 for @p req, handling dirty eviction into L2. */
    void fillL1(Cache &l1, const MemRequest &req);
    /** Move an evicted L2 line (address + meta form) into the SLC. */
    void victimToSlc(Addr addr, bool dirty, std::uint8_t meta,
                     Cycles now);
    /**
     * Shared-SLC form: guarantee the line for @p req is resident
     * in the shared SLC with this core's owner bit set, installing it
     * (and back-invalidating the displaced line's owners) when absent.
     * Runs before every fillL2 on a path where the data bypassed the
     * SLC (DRAM fill, prefetch materialization).
     */
    void ensureSlcInclusion(const MemRequest &req, Cycles now);
    /** Issue one prefetch toward the L2. */
    void issuePrefetch(const MemRequest &req, Cycles now);
    /** Occasional cleanup of expired never-demanded entries. */
    void pruneInflight(Cycles now);

    /** Shared post-L1 path for demand requests. */
    AccessOutcome beyondL1(const MemRequest &req, Cycles now,
                           bool is_inst);

    /** The multi-core form: a shared SLC under the inclusive protocol. */
    bool sharedSlc() const { return slcOwnerBit_ != 0; }

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    /** Own SLC/DRAM (single-core); null when externally shared. */
    std::unique_ptr<Cache> ownSlc_;
    std::unique_ptr<Dram> ownDram_;
    Cache *slc_ = nullptr;
    Dram *dram_ = nullptr;
    /** (1u << core_id) when sharing the SLC; 0 single-core. */
    std::uint32_t slcOwnerBit_ = 0;
    MultiCoreHierarchy *fabric_ = nullptr;  //!< Null single-core.
    StridePrefetcher l1dStride_;
    StridePrefetcher l2Stride_;
    NextLinePrefetcher instNextLine_;
    FlatMap<Inflight> inflight_;
    PrefetchStats pfStats_;
    std::vector<Addr> pfScratch_;
    LaneProbe *probe_ = nullptr;
};

/** Configuration of a multi-core hierarchy. */
struct MultiCoreParams
{
    /**
     * Per-core private geometry + the shared SLC/DRAM.  The cores run
     * the inclusive shared-SLC protocol over it (see the per-core
     * CacheHierarchy constructor).
     */
    HierarchyParams hier;
    unsigned numCores = 2;
    /**
     * Test hook: ignore the per-line owner masks and probe every
     * core's private levels on an SLC eviction -- the naive reference
     * the randomized differential compares the masked cascade against
     * (masks are conservative, so outcomes and stats must be
     * identical; only probe work differs).
     */
    bool naiveBackInvalidate = false;
};

/**
 * N private {L1I, L1D, L2} stacks over one shared SLC and one shared
 * DRAM channel.  The SLC runs with per-line owner masks (bit c =
 * core c); this class is the owner directory resolving SLC evictions
 * back to exactly the owning cores' private levels.  The shared DRAM
 * is the deterministic bandwidth-contention point: cores occupy the
 * same channel timeline, so a streaming neighbor visibly delays an
 * instruction-hot core (bench/multicore's noisy-neighbor study).
 */
class MultiCoreHierarchy
{
  public:
    explicit MultiCoreHierarchy(const MultiCoreParams &params);

    unsigned
    numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    CacheHierarchy &core(unsigned i) { return *cores_[i]; }
    const CacheHierarchy &core(unsigned i) const { return *cores_[i]; }
    Cache &slc() { return slc_; }
    const Cache &slc() const { return slc_; }
    Dram &dram() { return dram_; }
    const MultiCoreParams &params() const { return params_; }

    /**
     * Remove @p addr from the private levels of every core in
     * @p owners (bit c = core c): a shared-SLC eviction's
     * back-invalidation.
     * @return true when any dropped private copy was dirty.
     */
    bool dropFromOwners(Addr addr, std::uint32_t owners);

    /**
     * Verify every invariant the protocol promises (test hook):
     * per-core L2-includes-L1, every private L2 line present in the
     * shared SLC, and each such line's SLC owner mask covering its
     * holder.
     */
    bool checkInclusion() const;

  private:
    MultiCoreParams params_;
    Cache slc_;
    Dram dram_;
    std::vector<std::unique_ptr<CacheHierarchy>> cores_;
};

} // namespace trrip

#endif // TRRIP_CACHE_HIERARCHY_HH
