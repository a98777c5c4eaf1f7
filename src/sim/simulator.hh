/**
 * @file
 * End-to-end simulation assembly: profile collection, temperature
 * classification, layout, loading, and the timed run -- the numbered
 * flow of paper Fig. 4.
 */

#ifndef TRRIP_SIM_SIMULATOR_HH
#define TRRIP_SIM_SIMULATOR_HH

#include <memory>

#include "branch/predictors.hh"
#include "cache/hierarchy.hh"
#include "sim/core_model.hh"
#include "sw/layout.hh"
#include "sw/loader.hh"
#include "workloads/executor.hh"

namespace trrip {

/** Options for one simulation run. */
struct SimOptions
{
    /** Instructions to simulate; 0 = defaultInstrBudget(). */
    InstCount maxInstructions = 0;
    /** Instrumented training-run length; 0 = budget / 4. */
    InstCount profileInstructions = 0;

    HierarchyParams hier;
    CoreParams core;
    BranchParams branch;

    bool pgo = true;                 //!< Use the PGO layout + sections.
    ClassifierOptions classifier;
    /** Pad the evaluation image's temperature sections to page
     *  boundaries (LayoutOptions::padSectionsToPage). */
    bool padSectionsToPage = false;
    MixedPagePolicy pagePolicy = MixedPagePolicy::DisableMark;
    std::uint32_t pageSize = 4096;

    /**
     * Optional cooperative-cancellation token (deadline enforcement:
     * the training-profile run and CoreModel::setCancelToken poll
     * it).  Caller-owned; the experiment layer wires the worker's
     * token in per cell.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Optional precomputed training profile (the profile depends only
     * on the workload and profile budget, so pipelines cache it across
     * policy runs).  Shared, never deep-copied: concurrent runs of the
     * same workload all reference one immutable Profile.
     */
    std::shared_ptr<const Profile> precomputedProfile;
};

/** Everything one run produces, including the software artifacts. */
struct RunArtifacts
{
    /** The training profile used (shared when precomputed). */
    std::shared_ptr<const Profile> profile;
    Classification classification;
    ElfImage image;
    LoadStats loadStats;
    SimResult result;
    /**
     * Level label -> ReplacementPolicy::describe() of the policy that
     * actually ran there ({"L1I", "LRU"}, {"L2", "TRRIP-2(bits=2)"},
     * ...), recorded so result sinks can emit the fully resolved
     * configuration alongside every row.
     */
    std::vector<std::pair<std::string, std::string>> resolvedPolicies;
};

/**
 * Default per-run instruction budget: TRRIP_INSTR_MILLIONS million
 * instructions from the environment, else -- or when that is not a
 * finite count of at least one instruction that fits InstCount -- 6
 * million (the paper runs 400M per benchmark on a cluster; this is the
 * laptop-scale default).
 */
InstCount defaultInstrBudget();

/** The evaluation budget @p options resolves to. */
InstCount resolveBudget(const SimOptions &options);

/**
 * The training budget @p options resolves to (paper Fig. 4 step 2).
 * This is the single source of the fallback rule: profile caches key
 * on it and runWorkload() collects with it.
 */
InstCount resolveProfileBudget(const SimOptions &options);

/**
 * Run the instrumentation (training) execution and collect the PGO
 * profile (paper Fig. 4, steps 2-3).  Uses the non-PGO layout, the
 * training seed and the training Zipf skew.  Polls @p cancel (if any)
 * once per produce batch and throws SimError(Timeout) once it fires,
 * so a cell's deadline covers its training run too.
 */
Profile collectProfile(const SyntheticWorkload &workload,
                       InstCount instructions,
                       const CancelToken *cancel = nullptr);

/**
 * The software half of a proxy run: artifacts plus the page table they
 * were loaded into -- everything before the engine
 * (Mmu/BranchUnit/CacheHierarchy/Executor/CoreModel) exists.
 */
struct WorkloadRuntime
{
    RunArtifacts art;
    std::unique_ptr<PageTable> pageTable;
};

/**
 * Steps (2)-(8) of the Fig. 4 flow: profile (or adopt the
 * precomputed one), classify, lay out, load.  runBundle()
 * (sim/multicore.hh) sets up every proxy core with it.
 */
WorkloadRuntime prepareWorkload(const SyntheticWorkload &workload,
                                const SimOptions &options);

/**
 * Run the whole pipeline for one workload with options.hier.l2Policy:
 * a one-core, one-lane runBundle() (sim/multicore.hh) with no probe.
 */
RunArtifacts runWorkload(const SyntheticWorkload &workload,
                         const SimOptions &options);

} // namespace trrip

#endif // TRRIP_SIM_SIMULATOR_HH
