/**
 * @file
 * Declarative description of one experiment grid.
 *
 * The paper's evaluation (Figs. 6-9, Tables 3-5) is a family of
 * (workload x policy x configuration) sweeps.  An ExperimentSpec names
 * the three axes once; the ExperimentRunner expands them into cells,
 * executes each row's cells (one workload and config, every policy)
 * as the policy lanes of one engine on a thread pool with a shared
 * ProfileCache, and hands the records to pluggable ResultSinks in
 * deterministic order.
 */

#ifndef TRRIP_EXP_SPEC_HH
#define TRRIP_EXP_SPEC_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/codesign.hh"
#include "util/error.hh"
#include "workloads/proxies.hh"

namespace trrip::exp {

class ProfileCache;

/**
 * What the runner does when a cell fails with a contained SimError.
 *
 *  - Abort: record the error, skip every not-yet-started cell, and
 *    make ExperimentRunner::run() rethrow it without feeding the
 *    sinks -- no partial BENCH files (the strict mode, and the
 *    default).
 *  - Skip: the cell becomes a schema-stable error row; the rest of
 *    the grid is unaffected.
 *  - Retry: re-run the failed cell (with its deadline re-armed and a
 *    fresh fault-injection attempt number) up to maxAttempts total
 *    attempts, back to back; still-failing cells then degrade to Skip
 *    behavior.
 */
struct OnError
{
    enum class Mode { Abort, Skip, Retry };

    Mode mode = Mode::Abort;
    unsigned maxAttempts = 3;  //!< Total attempts (Retry mode).
};

/** Position of one cell in the (workload, policy, config) grid. */
struct CellId
{
    std::size_t workload = 0;
    std::size_t policy = 0;
    std::size_t config = 0;
};

/** A named variant of the base SimOptions (one config-axis point). */
struct ConfigVariant
{
    std::string label;
    std::function<void(SimOptions &)> apply; //!< May be null (= base).
};

/** What executing one cell produces. */
struct CellOutcome
{
    RunArtifacts artifacts;
    /** Machine-readable metrics for the JSON/CSV sinks. */
    std::map<std::string, double> metrics;
};

/** Everything a cell executor may need. */
struct CellContext
{
    CellId id;
    std::string workload;   //!< Axis labels, resolved.
    std::string policy;
    SimOptions options;     //!< Base options + config variant applied.
    ProfileCache *profiles = nullptr;
    /** Stable id of the pool worker executing this cell. */
    unsigned worker = 0;
};

/** One experiment grid. */
struct ExperimentSpec
{
    /** File-name stem for machine-readable sinks (BENCH_<name>.json). */
    std::string name = "experiment";
    /** Human-readable banner, e.g. the paper figure being reproduced. */
    std::string title;

    /**
     * Workload axis labels.  Three schemes resolve per cell: a bare
     * proxy name ("gcc", via paramsFor), a `trace:<path>` replay
     * label (trace::runTrace), and an `mc:a+b+...` multi-core bundle
     * (sim/multicore.hh: one core per '+'-separated element, each a
     * proxy name or trace label, over one shared SLC).  The bundle
     * label carries both grid axes of a multi-core sweep -- the core
     * count and the core->workload assignment.
     */
    std::vector<std::string> workloads;
    /**
     * L2 policy axis as PolicyRegistry spec strings -- bare names
     * ("SRRIP") or parameterized specs ("TRRIP-2(bits=3)",
     * "SHiP(shct_bits=14)").  Each cell parses its entry and assigns
     * it to the cell's options.hier.l2Policy, so parameter sweeps are
     * just more axis entries.  (Custom-runCell specs may use
     * free-form labels instead.)  Other levels are swept through
     * ConfigVariants mutating the per-level specs in SimOptions.
     */
    std::vector<std::string> policies;
    /** Option variants; empty means one implicit base config. */
    std::vector<ConfigVariant> configs;

    /** Base options every cell starts from. */
    SimOptions options;

    /**
     * Workload-name -> parameters; defaults to proxyParams().  Called
     * once per proxy core per row attempt, possibly concurrently from
     * several workers.
     */
    std::function<WorkloadParams(const std::string &)> paramsFor;

    /**
     * Optional per-cell probe factory (ReuseDistanceProfiler,
     * CostlyMissTracker, ...): called once per attempt of each
     * simulated cell with its row's options, it returns the probe of
     * the cell's lane, or null.  The runner keeps the probe in the
     * CellRecord for post-run inspection.  Custom runCell cells take
     * no probe.
     */
    std::function<std::shared_ptr<LaneProbe>(const SimOptions &,
                                             const CellId &)>
        probes;

    /** Optional predicate: return false to skip a cell entirely. */
    std::function<bool(const CellId &)> filter;

    /**
     * Optional custom executor replacing the default profile-cached
     * simulation run (used by cells that are not simulations, e.g. the
     * McPAT table or the policy-churn microbenchmark).  Custom cells
     * run one cell per pool item; they never form lanes.
     */
    std::function<CellOutcome(const CellContext &)> runCell;

    /** Failure policy for cells that throw SimError. */
    OnError onError;

    /**
     * Optional run-journal path (JSONL).  Completed cells stream to
     * it as they finish; resubmitting the same spec with the same
     * path skips cells the journal already holds and re-emits their
     * recorded rows, byte-identical to a clean run.  Empty disables
     * journaling.
     */
    std::string journal;

    std::size_t
    configCount() const
    {
        return configs.empty() ? 1 : configs.size();
    }

    std::size_t
    cellCount() const
    {
        return workloads.size() * policies.size() * configCount();
    }

    /** Deterministic linear index of a cell (workload-major). */
    std::size_t
    cellIndex(const CellId &id) const
    {
        return (id.workload * policies.size() + id.policy) *
                   configCount() +
               id.config;
    }

    CellId
    cellIdAt(std::size_t index) const
    {
        CellId id;
        id.config = index % configCount();
        index /= configCount();
        id.policy = index % policies.size();
        id.workload = index / policies.size();
        return id;
    }

    std::string
    configLabel(std::size_t config) const
    {
        return configs.empty() ? std::string() : configs[config].label;
    }
};

/** The record the runner keeps per cell and feeds to the sinks. */
struct CellRecord
{
    CellId id;
    bool valid = false; //!< False for cells the spec filtered out.
    std::string workload;
    std::string policy;
    std::string config;
    RunArtifacts artifacts;
    std::map<std::string, double> metrics;
    /** The cell's probe from ExperimentSpec::probes, if any. */
    std::shared_ptr<LaneProbe> probe;

    /**
     * @name Failure outcome (the success-or-error cell contract)
     * A failed cell stays valid (the sinks emit it as an error row);
     * errorCategory/errorMessage carry the final attempt's SimError.
     */
    /** @{ */
    bool failed = false;
    std::string errorCategory;
    std::string errorMessage;
    /** @} */
    /** Attempts actually executed (0 for resumed/skipped cells). */
    unsigned attempts = 0;

    const SimResult &result() const { return artifacts.result; }

    /** The probe as a @p T; null when it is absent or not a @p T. */
    template <typename T>
    T *
    probeAs() const
    {
        return dynamic_cast<T *>(probe.get());
    }
};

/** Default metrics extracted from a simulation cell. */
std::map<std::string, double> defaultMetrics(const SimResult &result);

} // namespace trrip::exp

#endif // TRRIP_EXP_SPEC_HH
