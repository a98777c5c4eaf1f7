#include "sim/multicore.hh"

#include <algorithm>
#include <optional>

#include "core/policy_registry.hh"
#include "trace/source.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

namespace trrip {

bool
isMultiCoreName(const std::string &name)
{
    return name.rfind(kMultiCorePrefix, 0) == 0;
}

std::vector<std::string>
multiCoreWorkloadsOf(const std::string &name)
{
    std::vector<std::string> out;
    if (!isMultiCoreName(name))
        return out;
    const std::string body =
        name.substr(std::string(kMultiCorePrefix).size());
    std::size_t start = 0;
    while (start <= body.size()) {
        const std::size_t plus = body.find('+', start);
        const std::size_t end =
            plus == std::string::npos ? body.size() : plus;
        if (end > start)
            out.push_back(body.substr(start, end - start));
        if (plus == std::string::npos)
            break;
        start = plus + 1;
    }
    return out;
}

namespace {

/**
 * Everything one core owns.  Set up in place and never moved: the
 * event source holds references into the record (an Executor to
 * art.image) and the CoreModel to the source, MMU and branch unit.
 */
struct Core
{
    RunArtifacts art;
    std::unique_ptr<PageTable> pageTable;
    std::unique_ptr<BBEventSource> source;
    BackendParams backend;
    std::optional<Mmu> mmu;
    std::optional<BranchUnit> branch;
    std::optional<CoreModel> model;
    InstCount budget = 0;
};

/**
 * Steps (2)-(8) of the Fig. 4 flow for @p in, then its event source:
 * a proxy is prepared from its workload and profile and runs an
 * Executor with the workload's backend stall model; a trace is
 * prepared from its index and replays through a TraceEventSource
 * with no synthetic stall model.
 */
void
setUpCore(Core &core, const CoreInput &in, const SimOptions &options)
{
    if (!in.workload) {
        trace::TraceRuntime rt =
            trace::prepareTrace(in.tracePath, options, in.traceIndex);
        core.art = std::move(rt.art);
        core.pageTable = std::move(rt.pageTable);
        core.source =
            std::make_unique<trace::TraceEventSource>(in.tracePath);
        return;
    }
    const WorkloadParams &params = in.workload->params;
    SimOptions wopts = options;
    wopts.precomputedProfile = in.profile;
    WorkloadRuntime rt = prepareWorkload(*in.workload, wopts);
    core.art = std::move(rt.art);
    core.pageTable = std::move(rt.pageTable);
    ExecOptions exec;
    exec.seed = params.seed;
    exec.handlerZipfSkew = params.zipfSkew;
    core.source =
        std::make_unique<Executor>(*in.workload, core.art.image, exec);
    core.backend.dependStallPerInstr = params.dependStallPerInstr;
    core.backend.issueStallPerInstr = params.issueStallPerInstr;
    core.backend.otherStallPerInstr = params.otherStallPerInstr;
}

/** Level label -> describe() of the policy @p hier runs there. */
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

} // namespace

std::vector<MultiCoreResult>
runBundle(const std::vector<CoreInput> &inputs,
          const std::vector<LaneSpec> &lanes,
          const MultiCoreOptions &options)
{
    const auto n = static_cast<unsigned>(inputs.size());
    panic_if(n == 0, "runBundle: no cores");
    panic_if(options.quantum == 0, "runBundle: zero quantum");
    panic_if(!options.coreBudgets.empty() &&
                 options.coreBudgets.size() != inputs.size(),
             "runBundle: ", options.coreBudgets.size(), " budgets for ",
             n, " cores");
    const SimOptions &opts = options.base;

    // Every core is prepared before any hierarchy exists, so the
    // prepare steps' temporaries never pile onto the lanes'
    // hierarchies (peak memory).  The hierarchies are declared first
    // all the same: they outlive the cores' models that reference
    // them.
    std::vector<std::unique_ptr<CacheHierarchy>> solo;
    std::vector<std::unique_ptr<MultiCoreHierarchy>> fabrics;
    std::vector<Core> cores(n);
    for (unsigned c = 0; c < n; ++c) {
        setUpCore(cores[c], inputs[c], opts);
        cores[c].budget =
            options.coreBudgets.empty() ? 0 : options.coreBudgets[c];
        if (cores[c].budget == 0)
            cores[c].budget = resolveBudget(opts);
    }

    // One hierarchy set per lane.  One core bypasses
    // MultiCoreHierarchy: its inclusive shared-SLC protocol and owner
    // masks are not the single-core exclusive SLC.
    for (const LaneSpec &lane : lanes) {
        HierarchyParams hier = opts.hier;
        hier.l2Policy = lane.l2Policy;
        if (n == 1) {
            solo.push_back(std::make_unique<CacheHierarchy>(hier));
            continue;
        }
        MultiCoreParams mp;
        mp.hier = hier;
        mp.numCores = n;
        mp.naiveBackInvalidate = options.naiveBackInvalidate;
        fabrics.push_back(std::make_unique<MultiCoreHierarchy>(mp));
    }
    const auto stack = [&](std::size_t lane,
                           unsigned c) -> CacheHierarchy & {
        return n == 1 ? *solo[lane] : fabrics[lane]->core(c);
    };

    for (unsigned c = 0; c < n; ++c) {
        Core &core = cores[c];
        std::vector<CacheHierarchy *> hiers;
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            hiers.push_back(&stack(k, c));
            hiers[k]->setProbe(lanes[k].probe);
        }
        core.mmu.emplace(*core.pageTable);
        core.branch.emplace(opts.branch);
        core.model.emplace(*core.source, hiers, *core.mmu, *core.branch,
                           opts.core, core.backend);
        core.model->setCancelToken(opts.cancel);
    }

    // Deterministic round-robin: each rotation advances every
    // unfinished core by one quantum in core-id order.  A finished
    // core drops out; the others keep rotating (per-core budgets are
    // independent).  Each step runs all of the core's lanes, and a
    // lane only touches its own hierarchies, so every lane sees
    // exactly the traffic order of a solo run.
    for (bool stepped = true; stepped;) {
        stepped = false;
        for (Core &core : cores) {
            const InstCount retired = core.model->retired();
            if (retired >= core.budget)
                continue;
            stepped = true;
            core.model->step(std::min<InstCount>(
                core.budget, retired + options.quantum));
        }
    }

    // Finalize only after ALL stepping: every core's result.slc is
    // then the same end-of-run shared snapshot, independent of the
    // core's position in the rotation.
    std::vector<MultiCoreResult> results(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        MultiCoreResult &result = results[k];
        result.cores.reserve(n);
        for (unsigned c = 0; c < n; ++c) {
            RunArtifacts &art =
                result.cores.emplace_back(cores[c].art);
            art.result = cores[c].model->finalize(k);
            art.resolvedPolicies = resolvedPolicies(stack(k, c));
        }
        const Cache &slc =
            n == 1 ? solo[k]->slc() : fabrics[k]->slc();
        const Dram &dram =
            n == 1 ? solo[k]->dram() : fabrics[k]->dram();
        result.slc = slc.stats();
        result.dramReads = dram.reads();
        result.dramWrites = dram.writes();
    }
    return results;
}

std::vector<MultiCoreResult>
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::vector<LaneSpec> &lanes,
             const MultiCoreOptions &options)
{
    // The workloads outlive the run: executors reference them.
    std::vector<std::shared_ptr<const SyntheticWorkload>> built;
    std::vector<CoreInput> cores;
    for (const std::string &label : core_workloads) {
        CoreInput &core = cores.emplace_back();
        if (trace::isTraceName(label)) {
            core.tracePath = trace::tracePathOf(label);
            if (options.traceIndexProvider)
                core.traceIndex =
                    options.traceIndexProvider(core.tracePath);
            continue;
        }
        // The build injection site: one draw per proxy core per call,
        // whether or not the provider has the workload already.
        FaultInjector::instance().maybeInject(FaultSite::Build);
        const WorkloadParams params = options.paramsFor
                                          ? options.paramsFor(label)
                                          : proxyParams(label);
        built.push_back(options.workloadProvider
                            ? options.workloadProvider(params)
                            : std::make_shared<const SyntheticWorkload>(
                                  buildWorkload(params)));
        core.workload = built.back().get();
        if (options.profileProvider) {
            core.profile = options.profileProvider(
                *core.workload, resolveProfileBudget(options.base));
        }
    }
    return runBundle(cores, lanes, options);
}

MultiCoreResult
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::string &policy_spec,
             const MultiCoreOptions &options)
{
    return std::move(
        runMultiCore(core_workloads, {{PolicySpec(policy_spec)}}, options)
            .front());
}

SimResult
aggregateMultiCore(const MultiCoreResult &result)
{
    const auto add = [](const char *, auto &sum, auto v) { sum += v; };
    SimResult sum;
    double makespan = 0.0;
    for (const RunArtifacts &core : result.cores) {
        const SimResult &r = core.result;
        forEachCounter(add, sum, r);
        forEachBucket(add, sum.topdown, r.topdown);
        sum.l2HotEvictions += r.l2HotEvictions;
        makespan = std::max(makespan, r.cycles);
    }
    sum.cycles = makespan;
    sum.slc = result.slc;
    // Not finalize()'s misses * 1000 / instructions: the two round
    // differently, and the mc: rows' BENCH bytes pin this one.
    if (sum.instructions > 0) {
        const double kilo =
            static_cast<double>(sum.instructions) / 1000.0;
        sum.l2InstMpki =
            static_cast<double>(sum.l2.instDemandMisses) / kilo;
        sum.l2DataMpki =
            static_cast<double>(sum.l2.dataDemandMisses) / kilo;
    }
    return sum;
}

} // namespace trrip
