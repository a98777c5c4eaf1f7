#include "sim/simulator.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace trrip {

InstCount
defaultInstrBudget()
{
    if (const char *env = std::getenv("TRRIP_INSTR_MILLIONS")) {
        const double millions = std::atof(env);
        if (millions > 0.0)
            return static_cast<InstCount>(millions * 1e6);
    }
    return 6'000'000;
}

Profile
collectProfile(const SyntheticWorkload &workload,
               InstCount instructions)
{
    // Instrumented binaries are the pre-PGO layout (Fig. 4, ELF1).
    LayoutOptions layout_opts;
    const ElfImage image =
        layoutProgram(workload.program, nullptr, nullptr, layout_opts);

    ExecOptions exec_opts;
    exec_opts.seed = workload.params.trainSeed;
    exec_opts.handlerZipfSkew = workload.params.trainZipfSkew;
    Executor exec(workload, image, exec_opts);

    // Batched consumption (BBEventSource contract): events beyond the
    // budget boundary are produced and discarded, which is free --
    // the executor is a pure generator and this instance dies here.
    Profile profile(workload.program.numBlocks());
    constexpr std::uint32_t kBatch = 64;
    std::vector<BBEvent> ring(kBatch);
    InstCount done = 0;
    while (done < instructions) {
        exec.produce(ring.data(), kBatch - 1, 0, kBatch);
        for (std::uint32_t i = 0; i < kBatch && done < instructions;
             ++i) {
            profile.record(ring[i].bb);
            done += ring[i].instrs;
        }
    }
    return profile;
}

InstCount
resolveBudget(const SimOptions &options)
{
    return options.maxInstructions > 0 ? options.maxInstructions
                                       : defaultInstrBudget();
}

InstCount
resolveProfileBudget(const SimOptions &options)
{
    // PGO profiles need comparable coverage to the evaluation run or
    // the tail of the count distribution degenerates (every executed
    // block looks equally rare); default to the evaluation budget.
    return options.profileInstructions > 0
               ? options.profileInstructions
               : resolveBudget(options);
}

WorkloadRuntime
prepareWorkload(const SyntheticWorkload &workload,
                const SimOptions &options)
{
    WorkloadRuntime rt;
    RunArtifacts &art = rt.art;

    const InstCount profile_budget = resolveProfileBudget(options);

    // (2)-(3) Instrumented run producing the profile.  A precomputed
    // profile is shared by reference, not copied: a policy sweep keeps
    // one immutable Profile alive across all of its runs.
    if (options.precomputedProfile)
        art.profile = options.precomputedProfile;
    else
        art.profile = std::make_shared<Profile>(
            collectProfile(workload, profile_budget));

    // (4)-(5) Re-optimization: classify temperature, lay out ELF2.
    LayoutOptions layout_opts = options.layout;
    layout_opts.pageSize = options.pageSize;
    layout_opts.extraColdTextBytes = workload.params.extraColdTextBytes;
    layout_opts.extraBinaryBytes = workload.params.extraBinaryBytes;
    if (options.pgo) {
        art.classification = classifyTemperature(
            workload.program, *art.profile, options.classifier);
        art.image = layoutProgram(workload.program,
                                  &art.classification,
                                  art.profile.get(), layout_opts);
    } else {
        art.image = layoutProgram(workload.program, nullptr, nullptr,
                                  layout_opts);
    }

    // (6)-(8) Loader populates PTE temperature attribute bits.
    rt.pageTable = std::make_unique<PageTable>(options.pageSize);
    art.loadStats =
        loadImage(art.image, *rt.pageTable, options.pagePolicy);
    return rt;
}

std::vector<std::pair<std::string, std::string>>
resolvedPolicies(const CacheHierarchy &hier)
{
    return {
        {"L1I", hier.l1i().policy().describe()},
        {"L1D", hier.l1d().policy().describe()},
        {"L2", hier.l2().policy().describe()},
        {"SLC", hier.slc().policy().describe()},
    };
}

namespace {

/** One CacheHierarchy per lane: @p hier with the lane's L2 policy. */
std::vector<std::unique_ptr<CacheHierarchy>>
laneHierarchies(const std::vector<LaneSpec> &lanes,
                const HierarchyParams &hier)
{
    std::vector<std::unique_ptr<CacheHierarchy>> out;
    for (const LaneSpec &lane : lanes) {
        HierarchyParams params = hier;
        params.l2Policy = lane.l2Policy;
        out.push_back(std::make_unique<CacheHierarchy>(params));
    }
    return out;
}

std::vector<CacheHierarchy *>
pointersTo(const std::vector<std::unique_ptr<CacheHierarchy>> &owned)
{
    std::vector<CacheHierarchy *> out;
    for (const auto &hier : owned)
        out.push_back(hier.get());
    return out;
}

} // namespace

LaneEngine::LaneEngine(BBEventSource &source, PageTable &page_table,
                       const std::vector<LaneSpec> &lanes,
                       const SimOptions &options,
                       const BackendParams &backend) :
    owned_(laneHierarchies(lanes, options.hier)),
    hiers_(pointersTo(owned_)), mmu_(page_table),
    branch_(options.branch),
    core_(source, hiers_, mmu_, branch_, options.core, backend)
{
    attach(lanes, options);
}

LaneEngine::LaneEngine(BBEventSource &source, PageTable &page_table,
                       const std::vector<CacheHierarchy *> &hiers,
                       const std::vector<LaneSpec> &lanes,
                       const SimOptions &options,
                       const BackendParams &backend) :
    hiers_(hiers), mmu_(page_table), branch_(options.branch),
    core_(source, hiers_, mmu_, branch_, options.core, backend)
{
    attach(lanes, options);
}

void
LaneEngine::attach(const std::vector<LaneSpec> &lanes,
                   const SimOptions &options)
{
    panic_if(hiers_.size() != lanes.size(), "LaneEngine: ",
             hiers_.size(), " hierarchies for ", lanes.size(),
             " lanes");
    // Observers ride the lanes: one shared by every lane would
    // aggregate several policies' streams.
    panic_if(options.reuse || options.costly,
             "grouped runs take observers per lane (LaneSpec), not "
             "from the shared options");
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        if (lanes[k].reuse)
            hiers_[k]->setL2Observer(lanes[k].reuse);
        core_.setCostlyTracker(lanes[k].costly, k);
    }
    core_.setCancelToken(options.cancel);
}

void
LaneEngine::finish(std::size_t lane, RunArtifacts &art) const
{
    art.result = core_.finalize(lane);
    art.resolvedPolicies = resolvedPolicies(*hiers_[lane]);
}

std::vector<RunArtifacts>
LaneEngine::run(const RunArtifacts &shared, InstCount budget)
{
    core_.step(budget);
    std::vector<RunArtifacts> out(hiers_.size(), shared);
    for (std::size_t k = 0; k < out.size(); ++k)
        finish(k, out[k]);
    return out;
}

LaneSpec
soloLane(SimOptions &options)
{
    LaneSpec lane{options.hier.l2Policy, options.reuse, options.costly};
    options.reuse = nullptr;
    options.costly = nullptr;
    return lane;
}

std::vector<RunArtifacts>
runWorkload(const SyntheticWorkload &workload,
            const std::vector<LaneSpec> &lanes, const SimOptions &options)
{
    const WorkloadRuntime rt = prepareWorkload(workload, options);

    // (9)-(11) Execute: MMU stamps temperatures onto fetch requests.
    ExecOptions exec_opts;
    exec_opts.seed = workload.params.seed;
    exec_opts.handlerZipfSkew = workload.params.zipfSkew;
    Executor exec(workload, rt.art.image, exec_opts);

    BackendParams backend;
    backend.dependStallPerInstr = workload.params.dependStallPerInstr;
    backend.issueStallPerInstr = workload.params.issueStallPerInstr;
    backend.otherStallPerInstr = workload.params.otherStallPerInstr;

    LaneEngine engine(exec, *rt.pageTable, lanes, options, backend);
    return engine.run(rt.art, resolveBudget(options));
}

RunArtifacts
runWorkload(const SyntheticWorkload &workload, const SimOptions &options)
{
    SimOptions shared = options;
    const LaneSpec lane = soloLane(shared);
    return std::move(runWorkload(workload, {lane}, shared).front());
}

} // namespace trrip
