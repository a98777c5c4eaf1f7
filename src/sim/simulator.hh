/**
 * @file
 * End-to-end simulation assembly: profile collection, temperature
 * classification, layout, loading, and the timed run -- the numbered
 * flow of paper Fig. 4.
 */

#ifndef TRRIP_SIM_SIMULATOR_HH
#define TRRIP_SIM_SIMULATOR_HH

#include <memory>

#include "analysis/costly_miss.hh"
#include "analysis/reuse_distance.hh"
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
    LayoutOptions layout;
    MixedPagePolicy pagePolicy = MixedPagePolicy::DisableMark;
    std::uint32_t pageSize = 4096;

    /** Optional caller-owned instrumentation hooks. */
    ReuseDistanceProfiler *reuse = nullptr;
    CostlyMissTracker *costly = nullptr;

    /**
     * Optional cooperative-cancellation token (deadline enforcement;
     * see CoreModel::setCancelToken).  Caller-owned; the experiment
     * layer wires the worker's token in per cell.
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
 * instructions from the environment, else 6 million (the paper runs
 * 400M per benchmark on a cluster; this is the laptop-scale default).
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
 * training seed and the training Zipf skew.
 */
Profile collectProfile(const SyntheticWorkload &workload,
                       InstCount instructions);

/**
 * The software half of a run: artifacts plus the page table they were
 * loaded into -- everything runWorkload() builds before the engine
 * (Mmu/BranchUnit/CacheHierarchy/Executor/CoreModel) exists.  Split
 * out so drivers that own their engine loop (the multi-core
 * round-robin in sim/multicore.hh) share one construction path with
 * the single-core pipeline.
 */
struct WorkloadRuntime
{
    RunArtifacts art;
    std::unique_ptr<PageTable> pageTable;
};

/**
 * Steps (2)-(8) of the Fig. 4 flow: profile (or adopt the
 * precomputed one), classify, lay out, load.  runWorkload() is
 * exactly prepareWorkload() followed by the engine run.
 */
WorkloadRuntime prepareWorkload(const SyntheticWorkload &workload,
                                const SimOptions &options);

/**
 * One policy lane of a grouped run: the L2 policy under test and the
 * lane's own optional observers (the per-lane counterparts of
 * SimOptions::reuse / SimOptions::costly).
 */
struct LaneSpec
{
    PolicySpec l2Policy;
    ReuseDistanceProfiler *reuse = nullptr;
    CostlyMissTracker *costly = nullptr;
};

/**
 * Level label -> describe() of the policy @p hier runs there: the
 * RunArtifacts::resolvedPolicies of a run on @p hier.
 */
std::vector<std::pair<std::string, std::string>>
resolvedPolicies(const CacheHierarchy &hier);

/**
 * The engine of one group, built the same way for every entry point:
 * the frontend's MMU and branch unit over a prepared page table, one
 * CacheHierarchy per lane and the CoreModel driving them, with each
 * lane's observers attached and options.cancel wired in.
 */
class LaneEngine
{
  public:
    /**
     * Own one CacheHierarchy per lane: options.hier with the lane's
     * L2 policy.
     */
    LaneEngine(BBEventSource &source, PageTable &page_table,
               const std::vector<LaneSpec> &lanes,
               const SimOptions &options, const BackendParams &backend);

    /**
     * Drive caller-owned hierarchies (@p hiers[k] runs lane k): the
     * per-core stacks of the multi-core bundles.
     */
    LaneEngine(BBEventSource &source, PageTable &page_table,
               const std::vector<CacheHierarchy *> &hiers,
               const std::vector<LaneSpec> &lanes,
               const SimOptions &options, const BackendParams &backend);

    CoreModel &core() { return core_; }
    const CacheHierarchy &hierarchy(std::size_t lane) const
    { return *hiers_.at(lane); }

    /** Lane @p lane's result and resolved policies, into @p art. */
    void finish(std::size_t lane, RunArtifacts &art) const;

    /**
     * Run every lane to @p budget; one copy of the shared software
     * artifacts @p shared per lane, each finished with its lane.
     */
    std::vector<RunArtifacts> run(const RunArtifacts &shared,
                                  InstCount budget);

  private:
    /** Attach each lane's observers and the cancel token. */
    void attach(const std::vector<LaneSpec> &lanes,
                const SimOptions &options);

    std::vector<std::unique_ptr<CacheHierarchy>> owned_;
    std::vector<CacheHierarchy *> hiers_;
    Mmu mmu_;
    BranchUnit branch_;
    CoreModel core_;
};

/**
 * Run the whole pipeline for one workload, once per lane: one
 * prepareWorkload() and one event stream, MMU and branch unit shared
 * by every lane, one result per lane in lane order (each
 * bit-identical to running its policy alone).  The other levels'
 * policies come from the per-level specs in options.hier; observers
 * come from the lanes, so options.reuse / options.costly must be
 * null.
 */
std::vector<RunArtifacts> runWorkload(const SyntheticWorkload &workload,
                                      const std::vector<LaneSpec> &lanes,
                                      const SimOptions &options);

/**
 * The one-lane form: options.hier.l2Policy with options.reuse and
 * options.costly as the lane.
 */
RunArtifacts runWorkload(const SyntheticWorkload &workload,
                         const SimOptions &options);

/** The one lane @p options describe, and @p options without it. */
LaneSpec soloLane(SimOptions &options);

} // namespace trrip

#endif // TRRIP_SIM_SIMULATOR_HH
