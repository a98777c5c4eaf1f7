/**
 * @file
 * Deterministic fault injection for the experiment stack.
 *
 * The correctness tool behind the failure-containment layer: with
 * `TRRIP_FAULT="trace_read:1/64,build:1/16,seed=7"` in the
 * environment, instrumented sites call maybeInject() and a
 * counter-based RNG decides -- reproducibly -- whether that particular
 * evaluation throws SimError(Injected).  bench/chaos drives grids
 * under injection and proves the containment contract: no crash,
 * every firing accounted for in an error row, retried cells converge
 * to the fault-free BENCH bytes.
 *
 * Grammar (comma-separated, no whitespace):
 *
 *     spec     := entry ("," entry)*
 *     entry    := site ":" num "/" denom | "seed=" N
 *     site     := trace_read | build | cell | sink_write
 *
 * A site fires with probability num/denom per evaluation.  Sites not
 * named never fire; an empty/absent spec disables injection entirely
 * (the instrumented sites cost one relaxed atomic load).
 *
 * Determinism across retries and schedules: firings are decided by a
 * splitmix-style hash of (seed, site, scope key, attempt, per-site
 * counter within the scope), where the scope is established by the
 * runner around each cell attempt (FaultInjector::Scope, thread
 * local).  The same cell on the same attempt therefore sees the same
 * faults regardless of which worker runs it or what else is in
 * flight, while a *retry* of the cell (attempt+1) re-rolls -- so
 * finite fault rates converge under OnError retry.  The runner makes
 * every draw inside a scope.  A draw outside any scope (a direct
 * runMultiCore() or trace replay) keys on 0 with the calling thread's
 * own per-site ordinals, counted since the thread started or since
 * its last scope ended, so it depends only on that thread's own
 * order of draws.
 *
 * Work whose result outlives the scope that happens to run it -- the
 * exp::ProfileCache builds a workload, a training profile or a trace
 * index once for every row that asks -- runs under a
 * FaultInjector::Pause and draws nothing, so no row's faults depend
 * on whether that row or another built the shared input.
 */

#ifndef TRRIP_UTIL_FAULT_HH
#define TRRIP_UTIL_FAULT_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace trrip {

/** Named injection points wired through the stack. */
enum class FaultSite : std::uint8_t
{
    TraceRead,  //!< TraceReader chunk load.
    Build,      //!< Proxy workload build (runMultiCore, per core).
    Cell,       //!< Cell compute entry (runGroupGuarded).
    SinkWrite,  //!< Run-journal line append.
    NumSites,
};

constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::NumSites);

/** Stable lower-snake name used in the TRRIP_FAULT grammar. */
const char *faultSiteName(FaultSite site);

class FaultInjector
{
  public:
    /** Process-wide injector, configured from $TRRIP_FAULT once. */
    static FaultInjector &instance();

    /**
     * (Re)configure from a spec string; empty disables all sites.
     * Throws SimError(Internal) on a malformed spec.  Also resets
     * the fired/checked counters.
     */
    void configure(const std::string &spec);

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Decide whether @p site fails at this evaluation.  Counts the
     * check, and the firing if any.  Cheap no-op when disabled.
     */
    bool shouldFail(FaultSite site);

    /** shouldFail(), throwing SimError(Injected) when it fires. */
    void maybeInject(FaultSite site);

    /** Zero the fired/checked tallies (tests). */
    void resetCounts();

    std::uint64_t firedCount(FaultSite site) const;
    std::uint64_t checkedCount(FaultSite site) const;
    std::uint64_t totalFired() const;

    /**
     * RAII injection scope tying firings to one (cell item, attempt)
     * pair on the current thread; see the file comment.  Scopes do
     * not nest.
     */
    class Scope
    {
      public:
        Scope(std::uint64_t key, unsigned attempt);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
    };

    /**
     * RAII guard: while it lives, no site fires or counts on the
     * current thread, and the thread's scope and per-site ordinals
     * stay as they were.  Pauses nest.
     */
    class Pause
    {
      public:
        Pause();
        ~Pause();

        Pause(const Pause &) = delete;
        Pause &operator=(const Pause &) = delete;
    };

  private:
    FaultInjector() = default;

    struct SiteRate { std::uint32_t num = 0; std::uint32_t denom = 1; };

    std::atomic<bool> enabled_{false};
    std::uint64_t seed_ = 0;
    std::array<SiteRate, kNumFaultSites> rates_{};
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> fired_{};
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> checked_{};
};

} // namespace trrip

#endif // TRRIP_UTIL_FAULT_HH
