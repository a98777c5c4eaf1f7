#include "sim/multicore.hh"

#include <algorithm>

#include "core/policy_registry.hh"
#include "sim/golden.hh"
#include "trace/source.hh"
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
 * Everything one core's lane owns: the software artifacts, the event
 * source feeding it, and the stepped CoreModel.  Construction mirrors
 * runWorkload()/runTrace() exactly (both share prepareWorkload /
 * prepareTrace), so a one-core bundle is the single-core pipeline.
 */
struct CoreRuntime
{
    RunArtifacts art;
    std::unique_ptr<SyntheticWorkload> workload;  //!< Proxy lanes only.
    std::unique_ptr<PageTable> pageTable;
    std::unique_ptr<Mmu> mmu;
    std::unique_ptr<BranchUnit> branch;
    /** Own stack for the N=1 bypass; null when sharing the SLC. */
    std::unique_ptr<CacheHierarchy> ownHier;
    CacheHierarchy *hier = nullptr;
    std::unique_ptr<Executor> exec;
    std::unique_ptr<trace::TraceEventSource> traceSource;
    std::unique_ptr<CoreModel> core;
    InstCount budget = 0;
};

void
sumCacheStats(CacheStats &into, const CacheStats &from)
{
    into.demandAccesses += from.demandAccesses;
    into.demandMisses += from.demandMisses;
    into.instDemandAccesses += from.instDemandAccesses;
    into.instDemandMisses += from.instDemandMisses;
    into.dataDemandAccesses += from.dataDemandAccesses;
    into.dataDemandMisses += from.dataDemandMisses;
    into.prefetchFills += from.prefetchFills;
    into.fills += from.fills;
    into.evictions += from.evictions;
    into.writebacks += from.writebacks;
    into.invalidations += from.invalidations;
    for (std::size_t t = 0; t < from.evictionsByTemp.size(); ++t)
        into.evictionsByTemp[t] += from.evictionsByTemp[t];
    into.instEvictions += from.instEvictions;
    into.dataEvictions += from.dataEvictions;
}

void
foldBytes(std::uint64_t &h, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (value >> (i * 8)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

} // namespace

MultiCoreResult
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::string &policy_spec,
             const MultiCoreOptions &options)
{
    const unsigned n = static_cast<unsigned>(core_workloads.size());
    panic_if(n == 0, "runMultiCore: no core workloads");
    panic_if(options.quantum == 0, "runMultiCore: zero quantum");
    panic_if(!options.coreBudgets.empty() &&
                 options.coreBudgets.size() != core_workloads.size(),
             "runMultiCore: ", options.coreBudgets.size(),
             " budgets for ", n, " cores");

    SimOptions opts = options.base;
    opts.hier.l2Policy = PolicySpec(policy_spec);

    // The shared fabric.  One core bypasses MultiCoreHierarchy: the
    // plain single-core CacheHierarchy runs, so N=1 is bit-identical
    // to runWorkload()/runTrace() (the inclusive shared-SLC protocol
    // and owner masks never even construct).
    std::unique_ptr<MultiCoreHierarchy> shared;
    if (n > 1) {
        MultiCoreParams mp;
        mp.hier = opts.hier;
        mp.numCores = n;
        mp.naiveBackInvalidate = options.naiveBackInvalidate;
        shared = std::make_unique<MultiCoreHierarchy>(mp);
    }

    std::vector<CoreRuntime> lanes(n);
    for (unsigned c = 0; c < n; ++c) {
        CoreRuntime &rt = lanes[c];
        const std::string &label = core_workloads[c];
        rt.budget = options.coreBudgets.empty()
                        ? resolveBudget(opts)
                        : options.coreBudgets[c];
        if (rt.budget == 0)
            rt.budget = resolveBudget(opts);

        BackendParams backend;
        BBEventSource *source = nullptr;
        if (trace::isTraceName(label)) {
            const std::string path = trace::tracePathOf(label);
            std::shared_ptr<const trace::TraceIndex> index;
            if (options.traceIndexProvider)
                index = options.traceIndexProvider(path);
            trace::TraceRuntime trt =
                trace::prepareTrace(path, opts, std::move(index));
            rt.art = std::move(trt.art);
            rt.pageTable = std::move(trt.pageTable);
            rt.traceSource =
                std::make_unique<trace::TraceEventSource>(path);
            source = rt.traceSource.get();
            // Traces carry no synthetic stall model (runTrace()).
        } else {
            const WorkloadParams params = options.paramsFor
                                              ? options.paramsFor(label)
                                              : proxyParams(label);
            rt.workload = std::make_unique<SyntheticWorkload>(
                buildWorkload(params));
            SimOptions wopts = opts;
            if (options.profileProvider) {
                wopts.precomputedProfile = options.profileProvider(
                    *rt.workload, resolveProfileBudget(wopts));
            }
            WorkloadRuntime wrt = prepareWorkload(*rt.workload, wopts);
            rt.art = std::move(wrt.art);
            rt.pageTable = std::move(wrt.pageTable);

            ExecOptions exec_opts;
            exec_opts.seed = rt.workload->params.seed;
            exec_opts.handlerZipfSkew = rt.workload->params.zipfSkew;
            rt.exec = std::make_unique<Executor>(
                *rt.workload, rt.art.image, exec_opts);
            source = rt.exec.get();

            backend.dependStallPerInstr =
                rt.workload->params.dependStallPerInstr;
            backend.issueStallPerInstr =
                rt.workload->params.issueStallPerInstr;
            backend.otherStallPerInstr =
                rt.workload->params.otherStallPerInstr;
        }

        rt.mmu = std::make_unique<Mmu>(*rt.pageTable);
        rt.branch = std::make_unique<BranchUnit>(opts.branch);
        if (shared) {
            rt.hier = &shared->core(c);
        } else {
            rt.ownHier = std::make_unique<CacheHierarchy>(opts.hier);
            rt.hier = rt.ownHier.get();
        }
        rt.art.resolvedPolicies = {
            {"L1I", rt.hier->l1i().policy().describe()},
            {"L1D", rt.hier->l1d().policy().describe()},
            {"L2", rt.hier->l2().policy().describe()},
            {"SLC", rt.hier->slc().policy().describe()},
        };
        if (opts.reuse)
            rt.hier->setL2Observer(opts.reuse);

        rt.core = std::make_unique<CoreModel>(
            *source, *rt.hier, *rt.mmu, *rt.branch, opts.core, backend);
        rt.core->setCostlyTracker(opts.costly);
        rt.core->setCancelToken(opts.cancel);
    }

    // Deterministic round-robin: each rotation advances every
    // unfinished core by one quantum in core-id order.  A finished
    // core drops out; the others keep rotating (per-core budgets are
    // independent).
    while (true) {
        bool all_done = true;
        for (CoreRuntime &rt : lanes) {
            if (rt.core->retired() >= rt.budget)
                continue;
            all_done = false;
            rt.core->step(std::min<InstCount>(
                rt.budget, rt.core->retired() + options.quantum));
        }
        if (all_done)
            break;
    }

    // Finalize only after ALL stepping: every core's result.slc is
    // then the same end-of-run shared snapshot, independent of the
    // core's position in the rotation.
    MultiCoreResult result;
    result.cores.reserve(n);
    for (CoreRuntime &rt : lanes) {
        rt.art.result = rt.core->finalize();
        result.cores.push_back(std::move(rt.art));
    }
    if (shared) {
        result.slc = shared->slc().stats();
        result.dramReads = shared->dram().reads();
        result.dramWrites = shared->dram().writes();
    } else {
        result.slc = lanes[0].hier->slc().stats();
        result.dramReads = lanes[0].hier->dram().reads();
        result.dramWrites = lanes[0].hier->dram().writes();
    }
    return result;
}

std::uint64_t
multiCoreFingerprint(const MultiCoreResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const RunArtifacts &core : result.cores)
        foldBytes(h, goldenFingerprint(core.result));
    foldBytes(h, result.dramReads);
    foldBytes(h, result.dramWrites);
    return h;
}

SimResult
aggregateMultiCore(const MultiCoreResult &result)
{
    SimResult sum;
    for (const RunArtifacts &core : result.cores) {
        const SimResult &r = core.result;
        sum.instructions += r.instructions;
        sum.cycles = std::max(sum.cycles, r.cycles);
        sum.topdown.retire += r.topdown.retire;
        sum.topdown.ifetch += r.topdown.ifetch;
        sum.topdown.mispred += r.topdown.mispred;
        sum.topdown.depend += r.topdown.depend;
        sum.topdown.issue += r.topdown.issue;
        sum.topdown.mem += r.topdown.mem;
        sum.topdown.other += r.topdown.other;
        sumCacheStats(sum.l1i, r.l1i);
        sumCacheStats(sum.l1d, r.l1d);
        sumCacheStats(sum.l2, r.l2);
        sum.prefetch.issued += r.prefetch.issued;
        sum.prefetch.covered += r.prefetch.covered;
        sum.prefetch.late += r.prefetch.late;
        sum.branch.branches += r.branch.branches;
        sum.branch.mispredicts += r.branch.mispredicts;
        sum.branch.btbMisses += r.branch.btbMisses;
        sum.tlb.accesses += r.tlb.accesses;
        sum.tlb.misses += r.tlb.misses;
        sum.l2HotEvictions += r.l2HotEvictions;
    }
    sum.slc = result.slc;
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
