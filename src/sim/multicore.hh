/**
 * @file
 * Multi-core simulation driver: N per-core event streams (proxy
 * executors or trace replays) round-robin-interleaved over one
 * MultiCoreHierarchy, plus the `mc:a+b+...` workload-name scheme the
 * experiment layer resolves.
 *
 * Determinism contract: the schedule is a fixed round-robin over core
 * ids in quanta of `quantum` retired instructions, every core's own
 * trajectory is governed by CoreModel's `run(n) == { step(n);
 * finalize(); }` identity, and the only cross-core coupling is the
 * shared SLC content / owner masks and the shared DRAM channel
 * timeline -- all deterministic state.  The same spec therefore
 * produces bit-identical results on any thread of any run, and a
 * one-core multi-core spec is construction-for-construction the
 * single-core pipeline (prepareWorkload / prepareTrace are shared),
 * so its fingerprints match the pinned single-core goldens exactly.
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

/** Options for one multi-core run. */
struct MultiCoreOptions
{
    /**
     * Per-core SimOptions template (budget, hierarchy
     * geometry/policies, classifier, ...).  base.hier seeds
     * MultiCoreParams::hier; each lane's L2 policy is applied on top,
     * mirroring runTrace().
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

    /** Workload-name -> parameters; defaults to proxyParams(). */
    std::function<WorkloadParams(const std::string &)> paramsFor;

    /**
     * Optional shared training-profile provider (exp::ProfileCache);
     * null = each core collects its own profile.
     */
    std::function<std::shared_ptr<const Profile>(
        const SyntheticWorkload &, InstCount)> profileProvider;

    /** Optional shared trace-index provider (exp::ProfileCache). */
    std::function<std::shared_ptr<const trace::TraceIndex>(
        const std::string &)> traceIndexProvider;
};

/** Everything one multi-core run produces. */
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
 * Run @p core_workloads (proxy names / `trace:<path>` labels, one per
 * core) once for every lane (every core's L2 policy plus the lane's
 * observers, mirroring CoDesignPipeline::run) under @p options.  Each
 * core is built once -- workload, profile, prepare step, event
 * stream, MMU and branch unit -- and drives one shared-SLC fabric per
 * lane; the result is one bundle result per lane, in lane order.
 * One core bypasses MultiCoreHierarchy entirely -- the plain
 * single-core CacheHierarchy runs, so N=1 is bit-identical to
 * runWorkload()/runTrace().
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
 * sinks: counters sum across cores, cycles is the slowest core (the
 * bundle's makespan), the SLC block is the shared snapshot, and the
 * MPKI rates are recomputed from the summed counters.
 */
SimResult aggregateMultiCore(const MultiCoreResult &result);

} // namespace trrip

#endif // TRRIP_SIM_MULTICORE_HH
