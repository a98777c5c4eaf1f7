/**
 * @file
 * Interval-style out-of-order core model (the Sniper substitute; see
 * the README's "Architecture" section).  The model consumes basic-block
 * events, drives the MMU, branch unit and cache hierarchy, performs
 * the pseudo-FDIP lookahead of paper section 4.1, and accounts cycles
 * into Top-Down buckets.
 *
 * Timing approximations (all parameters below):
 *  - retire cost is instrs / dispatch width;
 *  - instruction fetch stalls expose hierarchy latency beyond a small
 *    fetch-queue slack; FDIP prefetches issued `lookahead` blocks
 *    ahead hide latency when the intervening branches are predictable;
 *  - load miss latency is partially hidden by the OOO window
 *    (loadExposedFraction) and overlapping misses share the window
 *    (overlapMlp); stores retire through the store buffer;
 *  - branch mispredicts cost a fixed penalty, BTB misses on taken
 *    branches a smaller redirect bubble.
 *
 * Frontend and policy lanes.  Only the cache hierarchy depends on the
 * L2 policy under test: the event stream, the FDIP lookahead, the MMU
 * and the branch unit never read simulated time or cache state.  So
 * one model runs K policies over one event stream.  The frontend
 * turns a batch of events into a batch record -- translated fetch
 * and FDIP lines, branch-penalty indices and translated data
 * accesses, in engine order -- and each lane (one CacheHierarchy,
 * which carries the lane's probe, plus its own clock, Top-Down
 * buckets, miss shadow and Emissary alternator) then consumes the
 * whole batch before the next lane starts.  Every lane issues
 * exactly the hierarchy calls, with exactly the arguments, that a solo
 * model would, so each lane's result is bit-identical to running its
 * policy alone.  A one-lane model is the single-policy engine; there
 * is no other path.
 *
 * Event flow is batched (see BBEventSource in workloads/executor.hh):
 * the source fills a frontend-owned power-of-two ring tens of events
 * at a time -- one virtual call per batch -- and the frontend walks
 * the ring with masked indices.  A lookahead cursor stamps
 * fdipMispredict exactly when an event enters the FDIP window, so
 * predictor state is sampled at the same instant as in an
 * event-at-a-time engine.  The branch penalty feeding the cycle count
 * is a LUT indexed by (mispredict, redirect) -- the no-penalty entry
 * adds 0.0, which is bit-exact -- and the mispred Top-Down bucket is
 * reconstructed at end of run from integer counters (integer-weighted
 * sums reorder exactly).  The fractional backend buckets stay in
 * event order: reassociating their sums would drift by ulps, visible
 * in the byte-reproducible BENCH files.
 */

#ifndef TRRIP_SIM_CORE_MODEL_HH
#define TRRIP_SIM_CORE_MODEL_HH

#include <array>
#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "branch/predictors.hh"
#include "cache/hierarchy.hh"
#include "sim/topdown.hh"
#include "sw/mmu.hh"
#include "util/error.hh"
#include "workloads/executor.hh"

namespace trrip {

/**
 * @name Stub-attribution levers
 * Bits of CoreParams::stubMask.  Each lever replaces one engine layer
 * with a no-op so bench/perf's traced run (`trrip_perf --trace`) can
 * time the difference and attribute per-instruction cost to that
 * layer.  Stubbed runs are NOT behavior-preserving -- they exist
 * only for wall-clock attribution and never feed BENCH files.  The
 * run loop is instantiated per mask, so the default (zero) hot path
 * carries no stub checks at all.
 */
/** @{ */
constexpr unsigned kStubNone = 0;
/** Skip every cache-hierarchy call (fetch/data/prefetch). */
constexpr unsigned kStubHier = 1;
/** Skip branch-unit resolution and the FDIP lookahead scan. */
constexpr unsigned kStubBranch = 2;
/** Skip MMU translation (paddr = vaddr, no temperature, no walks). */
constexpr unsigned kStubMmu = 4;
/**
 * Producer-only: events are produced normally but consumed by a
 * no-op core (no lookahead scan, no MMU/branch/hierarchy work, only
 * instruction counting).  Unlike the other levers, this run's own
 * ns/instr IS the executor layer's cost.
 */
constexpr unsigned kStubExec = 8;
/** @} */

/** Core model parameters (defaults = paper Table 1). */
struct CoreParams
{
    unsigned dispatchWidth = 6;
    Cycles mispredictPenalty = 8;
    Cycles btbRedirectPenalty = 3;

    bool fdipEnabled = true;
    unsigned fdipLookahead = 8;     //!< Blocks of run-ahead.

    Cycles fetchQueueSlack = 4;     //!< Fetch latency hidden for free.
    double loadExposedFraction = 0.3;
    double dependentExposedFraction = 0.55;
    double overlapMlp = 3.0;
    double storeExposedFraction = 0.04;
    Cycles tlbWalkPenalty = 3;

    /** Exposed stall that can mark a miss costly. */
    Cycles starvationThreshold = 28;
    /**
     * Decode starvation requires clustered misses: a second L2
     * instruction miss within this window of the previous one (a
     * lone miss drains the fetch/decode queues without starving).
     */
    double starvationBurstWindow = 150.0;

    /** Stub-attribution mask (kStub*); 0 for every real simulation. */
    unsigned stubMask = kStubNone;
};

/** Synthetic backend stall components, copied from the workload. */
struct BackendParams
{
    double dependStallPerInstr = 0.0;
    double issueStallPerInstr = 0.0;
    double otherStallPerInstr = 0.0;
};

/** Everything a simulation run produces. */
struct SimResult
{
    InstCount instructions = 0;
    double cycles = 0.0;
    TopDown topdown;

    double l2InstMpki = 0.0;
    double l2DataMpki = 0.0;
    CacheStats l1i, l1d, l2, slc;
    PrefetchStats prefetch;
    BranchStats branch;
    TlbStats tlb;
    std::uint64_t l2HotEvictions = 0;

    double ipc() const
    { return cycles > 0.0 ? static_cast<double>(instructions) / cycles
                          : 0.0; }
};

/**
 * Call @p f(name, counter...) once per counter of SimResult, with that
 * counter of each of @p results, in the golden fingerprint's fold
 * order: instructions, cycles (the one double), the l1i, l1d, l2 and
 * slc CacheStats lists ("l2.demandMisses"), then the prefetch, tlb and
 * branch counters.  The Top-Down buckets have their own list
 * (forEachBucket); the MPKI rates and l2HotEvictions are derived from
 * these counters and are not listed.
 */
template <typename F, typename... Results>
    requires(std::same_as<std::remove_const_t<Results>, SimResult> && ...)
void
forEachCounter(F &&f, Results &...results)
{
    f("instructions", results.instructions...);
    f("cycles", results.cycles...);
    std::string name;
    const auto level = [&](const char *prefix, auto &...stats) {
        forEachCounter(
            [&](const char *counter, auto &...c) {
                name.assign(prefix).append(".").append(counter);
                f(name.c_str(), c...);
            },
            stats...);
    };
    level("l1i", results.l1i...);
    level("l1d", results.l1d...);
    level("l2", results.l2...);
    level("slc", results.slc...);
    f("prefetch.issued", results.prefetch.issued...);
    f("prefetch.covered", results.prefetch.covered...);
    f("prefetch.late", results.prefetch.late...);
    f("tlb.accesses", results.tlb.accesses...);
    f("tlb.misses", results.tlb.misses...);
    f("branch.branches", results.branch.branches...);
    f("branch.mispredicts", results.branch.mispredicts...);
    f("branch.btbMisses", results.branch.btbMisses...);
}
static_assert(sizeof(SimResult) == 704,
              "SimResult changed: list a new counter in forEachCounter "
              "(or name a new derived field in its comment), then "
              "update this size");

/**
 * The interval core: one frontend driving K policy lanes (see the
 * file comment).  Lane k runs over hierarchy k; every lane retires
 * the same instructions, so retired() is the group's.
 */
class CoreModel
{
  public:
    /** The one-lane model. */
    CoreModel(BBEventSource &events, CacheHierarchy &hierarchy,
              Mmu &mmu, BranchUnit &branch, const CoreParams &params,
              const BackendParams &backend);

    /** One lane per hierarchy in @p lanes (at least one). */
    CoreModel(BBEventSource &events,
              const std::vector<CacheHierarchy *> &lanes, Mmu &mmu,
              BranchUnit &branch, const CoreParams &params,
              const BackendParams &backend);

    /**
     * Optional cooperative cancellation (the watchdog's deadline
     * path).  Polled at event-ring refills -- every few dozen
     * events, so cancellation lands within microseconds without a
     * per-event branch -- and surfaces as a thrown
     * SimError(Timeout) unwinding out of run()/step().
     */
    void setCancelToken(const CancelToken *cancel) { cancel_ = cancel; }

    /** One-lane form: run for @p max_instructions, return the result. */
    SimResult run(InstCount max_instructions);

    /**
     * @name Incremental stepping (grouped runs and the multi-core
     * round-robin driver)
     * run(n) == { step(n); finalize(); } bit for bit: every piece of
     * loop state lives in members, so cutting the run into quanta
     * changes nothing about this core's own trajectory -- only the
     * interleaving of its shared-resource (SLC/DRAM) traffic with
     * other cores', which is exactly what the driver schedules.
     */
    /** @{ */

    /** Advance every lane until at least @p target_instructions have
     *  retired. */
    void step(InstCount target_instructions);

    /** Instructions retired so far. */
    InstCount retired() const { return instructions_; }

    /** Lane @p lane's result once the final step() has run. */
    SimResult finalize(std::size_t lane = 0) const;

    /** @} */

  private:
    /**
     * One batch of frontend-resolved events, in engine order.  Each
     * event record says how many entries of `lines` (its FDIP
     * prefetches, then its newly touched fetch lines) and of `data`
     * belong to it.
     */
    struct Batch
    {
        struct Event
        {
            std::uint32_t instrs = 0;
            std::uint32_t prefetches = 0;
            std::uint32_t fetches = 0;
            std::uint8_t data = 0;
            /** Branch penalty index: mispredicted | redirect << 1. */
            std::uint8_t branch = 0;
        };
        /** One translated instruction line (FDIP prefetch or fetch). */
        struct Line
        {
            Addr vaddr = 0;
            Addr paddr = 0;
            Temperature temp = Temperature::None;
            bool tlbMiss = false;
        };
        /** One translated data access. */
        struct Data
        {
            Addr vaddr = 0;
            Addr paddr = 0;
            Addr pc = 0;
            bool isStore = false;
            bool dependent = false;
            bool tlbMiss = false;
        };

        std::vector<Event> events;
        std::vector<Line> lines;
        std::vector<Data> data;
    };

    /** One policy's hierarchy and timing state. */
    struct Lane
    {
        CacheHierarchy *hier = nullptr;
        double now = 0.0;
        TopDown td;
        double missShadowEnd = 0.0;
        /** Alternator implementing Emissary's 1/2 marking
         *  probability. */
        std::uint64_t starvationEvents = 0;
        double lastInstL2Miss = -1e18;
    };

    /** The batched outer loop, instantiated per stub mask. */
    template <unsigned Stub>
    void stepLoop(InstCount target_instructions);

    /** Frontend: fill batch_ until the target or kBatchEvents. */
    template <unsigned Stub>
    void resolveBatch(InstCount target_instructions);

    /** Top the ring up to full when fewer than a window is ahead. */
    void refill();

    /** Frontend: translate the FDIP window tail's lines. */
    template <unsigned Stub>
    void fdipLines(const BBEvent &tail, Batch::Event &rec);

    /** Frontend: resolve one event's fetch, branch and data. */
    template <unsigned Stub>
    void resolveEvent(const BBEvent &ev, Batch::Event &rec);

    /** Lane: simulate batch_ against one hierarchy. */
    template <unsigned Stub>
    void consumeBatch(Lane &lane) const;

    /** Exact instrs / dispatchWidth, memoized for small sizes. */
    double
    retireCycles(std::uint32_t instrs) const
    {
        if (instrs < retireMemo_.size())
            return retireMemo_[instrs];
        return static_cast<double>(instrs) / params_.dispatchWidth;
    }

    /** Events per frontend batch: each lane consumes a whole batch
     *  before the next lane starts, keeping one hierarchy's working
     *  set hot at a time. */
    static constexpr std::uint32_t kBatchEvents = 256;

    BBEventSource &events_;
    Mmu &mmu_;
    BranchUnit &branch_;
    CoreParams params_;
    BackendParams backend_;

    /**
     * Event ring: power-of-two capacity, at least one whole produce
     * batch beyond the FDIP window.  head_/scanned_/produced_ are
     * absolute event counts (index = count & mask_):
     *   [head_, scanned_)   events inside the FDIP lookahead window
     *                       (fdipMispredict stamped),
     *   [scanned_, produced_) produced, not yet visible to FDIP.
     * BBEvent is several hundred bytes, so the slots are reused for
     * the whole run; the source overwrites every live field.
     */
    std::vector<BBEvent> ring_;
    std::uint32_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t scanned_ = 0;
    std::uint64_t produced_ = 0;
    /** FDIP window size in events (fdipLookahead + 1). */
    std::uint32_t window_ = 0;
    unsigned windowMispredicts_ = 0;
    /** Lookahead scan enabled (FDIP on and window deep enough). */
    bool fdipScan_ = false;

    /** Cached L2 line mask/size (constants for the whole run). */
    Addr lineMask_ = ~static_cast<Addr>(63);
    std::uint32_t lineBytes_ = 64;

    /** Precomputed backend stall sum (same double every event). */
    double backendStallPerInstr_ = 0.0;
    /** instrs / dispatchWidth for instrs in [0, 256). */
    std::array<double, 256> retireMemo_{};
    /**
     * Branch penalty by (mispredicted | redirect << 1): {0, P, R, P}.
     * Added per event; the no-penalty entry adds 0.0, which leaves
     * the cycle count bit-identical to not adding.
     */
    std::array<double, 4> branchPenalty_{};

    InstCount instructions_ = 0;
    Addr lastFetchLine_ = ~0ull;

    /**
     * @name Integer event counters behind the hoisted mispred bucket
     * The mispredict / redirect Top-Down contributions are integer
     * multiples of their fixed penalties, so the bucket is
     * reconstructed exactly at end of run as count * penalty
     * (integer-valued doubles: no rounding, identical bits to a
     * per-event accumulation).  They depend only on the frontend, so
     * every lane shares them.
     */
    /** @{ */
    std::uint64_t mispredEvents_ = 0;
    std::uint64_t redirectEvents_ = 0;
    /** @} */

    Batch batch_;
    std::vector<Lane> lanes_;
    const CancelToken *cancel_ = nullptr;
};

} // namespace trrip

#endif // TRRIP_SIM_CORE_MODEL_HH
