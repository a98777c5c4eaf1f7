/**
 * @file
 * The one engine loop: every run -- one proxy, one trace, or an
 * `mc:a+b+...` bundle -- is a list of cores (proxy executors or trace
 * replays) stepped round-robin over one set of hierarchies per policy
 * lane, plus the `mc:` workload-name scheme the experiment layer
 * resolves.
 *
 * Determinism contract: the schedule is a fixed round-robin over core
 * ids in quanta of `quantum` retired instructions, every core's own
 * trajectory is governed by CoreModel's `run(n) == { step(n);
 * finalize(); }` identity, and the only cross-core coupling is the
 * shared SLC content / owner masks and the shared DRAM channel
 * timeline -- all deterministic state.  The same spec therefore
 * produces bit-identical results on any thread of any run.  One core
 * runs over a plain single-core CacheHierarchy (no shared-SLC
 * protocol), so its quanta change nothing and a one-core bundle is
 * the single-core run: runWorkload(), trace::runTrace() and
 * CoDesignPipeline::run() are one-core calls of runBundle().
 */

#ifndef TRRIP_SIM_MULTICORE_HH
#define TRRIP_SIM_MULTICORE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/replay.hh"

namespace trrip {

/** Workload-axis prefix naming a multi-core bundle. */
constexpr const char *kMultiCorePrefix = "mc:";

/** True when @p name is an `mc:a+b+...` workload label. */
bool isMultiCoreName(const std::string &name);

/**
 * The per-core workload labels of an `mc:` label, in core order.
 * Each element is a proxy name or a `trace:<path>` label; empty when
 * @p name is not a multi-core label.
 */
std::vector<std::string> multiCoreWorkloadsOf(const std::string &name);

/**
 * One policy lane of a run: the L2 policy under test and the lane's
 * optional probe (caller-owned; a probe given to two lanes would mix
 * their streams).
 */
struct LaneSpec
{
    PolicySpec l2Policy;
    LaneProbe *probe = nullptr;
};

/**
 * What one core runs: a proxy -- a caller-owned workload, which must
 * outlive the run, plus optionally its training profile -- or a trace
 * file plus optionally its shared index.
 */
struct CoreInput
{
    // Every member has an initializer, so designated initializers
    // may name any subset without -Wmissing-field-initializers.
    const SyntheticWorkload *workload = nullptr;  //!< Null: a trace.
    /** Proxy: the training profile; null = collect one. */
    std::shared_ptr<const Profile> profile{};
    std::string tracePath{};
    /** Trace: the pre-pass index; null = build a private one. */
    std::shared_ptr<const trace::TraceIndex> traceIndex{};
};

/** Options for one run of a list of cores. */
struct MultiCoreOptions
{
    /**
     * Per-core SimOptions template (budget, hierarchy
     * geometry/policies, classifier, ...).  Each lane's L2 policy is
     * applied on top of base.hier.
     */
    SimOptions base;

    /**
     * Retired-instruction quantum of the round-robin schedule.  Any
     * positive value is deterministic; smaller quanta interleave
     * shared-resource traffic more finely.
     */
    InstCount quantum = 10'000;

    /**
     * Per-core instruction budgets; empty = every core runs
     * resolveBudget(base).  Shorter-budget cores simply drop out of
     * the rotation early (the one-core-stalls-others-progress test).
     */
    std::vector<InstCount> coreBudgets;

    /** Forwarded to MultiCoreParams (the differential's reference). */
    bool naiveBackInvalidate = false;

    /** @name Label resolution (runMultiCore() only) */
    /** @{ */
    /**
     * Workload-name -> parameters; defaults to proxyParams().  Called
     * once per proxy core per call.
     */
    std::function<WorkloadParams(const std::string &)> paramsFor;

    /**
     * Optional shared workload provider (exp::ProfileCache), given
     * each proxy core's parameters; null = the call builds its own
     * proxy workloads and frees them when it returns.
     */
    std::function<std::shared_ptr<const SyntheticWorkload>(
        const WorkloadParams &)> workloadProvider;

    /**
     * Optional shared training-profile provider (exp::ProfileCache);
     * null = each core collects its own profile.
     */
    std::function<std::shared_ptr<const Profile>(
        const SyntheticWorkload &, InstCount)> profileProvider;

    /** Optional shared trace-index provider (exp::ProfileCache). */
    std::function<std::shared_ptr<const trace::TraceIndex>(
        const std::string &)> traceIndexProvider;
    /** @} */
};

/** Everything one lane of a run of a list of cores produces. */
struct MultiCoreResult
{
    /** Per-core artifacts, in core order.  Every core's result.slc is
     *  the end-of-run shared-SLC snapshot (cores are finalized only
     *  after all stepping completes, so the snapshot is
     *  schedule-position-independent). */
    std::vector<RunArtifacts> cores;
    CacheStats slc;                 //!< Shared-SLC stats.
    std::uint64_t dramReads = 0;    //!< Shared-channel totals.
    std::uint64_t dramWrites = 0;
};

/**
 * Run @p cores under every lane.  Every core is set up once --
 * prepare step, event source, MMU, branch unit and one CoreModel
 * over one hierarchy per lane -- then the cores are stepped
 * round-robin to their budgets and finalized; the result is one
 * MultiCoreResult per lane, in lane order, each bit-identical to
 * running its lane alone.  One core runs over a plain
 * CacheHierarchy per lane (the single-core exclusive SLC); N > 1
 * cores share one MultiCoreHierarchy per lane (an inclusive SLC with
 * owner masks).  A lane's probe is attached to every core's
 * hierarchy of that lane.
 */
std::vector<MultiCoreResult>
runBundle(const std::vector<CoreInput> &cores,
          const std::vector<LaneSpec> &lanes,
          const MultiCoreOptions &options);

/**
 * runBundle() over @p core_workloads (proxy names / `trace:<path>`
 * labels, one per core): each proxy core draws the `build` fault site
 * (util/fault.hh), then resolves its options.paramsFor parameters to
 * a workload; workloads, profiles and trace indexes come from the
 * providers.
 */
std::vector<MultiCoreResult>
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::vector<LaneSpec> &lanes,
             const MultiCoreOptions &options);

/** The one-lane form: every core's L2 runs @p policy_spec. */
MultiCoreResult runMultiCore(
    const std::vector<std::string> &core_workloads,
    const std::string &policy_spec, const MultiCoreOptions &options);

/**
 * Fold every core's goldenFingerprint() plus the shared DRAM totals
 * into one FNV-1a fingerprint (the multi-core golden-table value).
 * The shared-SLC snapshot is already inside each core's fingerprint.
 */
std::uint64_t multiCoreFingerprint(const MultiCoreResult &result);

/**
 * Collapse a multi-core run into one SimResult for the generic metric
 * sinks: every counter forEachCounter lists, every Top-Down bucket and
 * l2HotEvictions sum across cores in core order, except that cycles
 * is the slowest core's (the bundle's makespan) and the SLC block is
 * the shared snapshot; the MPKI rates are recomputed from the sums.
 */
SimResult aggregateMultiCore(const MultiCoreResult &result);

} // namespace trrip

#endif // TRRIP_SIM_MULTICORE_HH
