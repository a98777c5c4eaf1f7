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
 * Everything one core owns: the software artifacts, the event source
 * feeding it, and the LaneEngine stepping every policy lane over it.
 * Construction mirrors runWorkload()/runTrace() exactly (all share
 * prepareWorkload / prepareTrace and LaneEngine), so a one-core
 * bundle is the single-core pipeline.
 */
struct CoreRuntime
{
    RunArtifacts art;
    std::unique_ptr<SyntheticWorkload> workload;  //!< Proxy cores only.
    std::unique_ptr<PageTable> pageTable;
    std::unique_ptr<Executor> exec;
    std::unique_ptr<trace::TraceEventSource> traceSource;
    std::unique_ptr<LaneEngine> engine;
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

std::vector<MultiCoreResult>
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::vector<LaneSpec> &lanes,
             const MultiCoreOptions &options)
{
    const unsigned n = static_cast<unsigned>(core_workloads.size());
    panic_if(n == 0, "runMultiCore: no core workloads");
    panic_if(options.quantum == 0, "runMultiCore: zero quantum");
    panic_if(!options.coreBudgets.empty() &&
                 options.coreBudgets.size() != core_workloads.size(),
             "runMultiCore: ", options.coreBudgets.size(),
             " budgets for ", n, " cores");
    const SimOptions &opts = options.base;

    // One shared fabric per lane.  One core bypasses
    // MultiCoreHierarchy: the engine owns a plain single-core
    // CacheHierarchy per lane, so N=1 is bit-identical to
    // runWorkload()/runTrace() (the inclusive shared-SLC protocol and
    // owner masks never even construct).
    std::vector<std::unique_ptr<MultiCoreHierarchy>> fabrics;
    if (n > 1) {
        for (const LaneSpec &lane : lanes) {
            MultiCoreParams mp;
            mp.hier = opts.hier;
            mp.hier.l2Policy = lane.l2Policy;
            mp.numCores = n;
            mp.naiveBackInvalidate = options.naiveBackInvalidate;
            fabrics.push_back(std::make_unique<MultiCoreHierarchy>(mp));
        }
    }

    std::vector<CoreRuntime> cores(n);
    for (unsigned c = 0; c < n; ++c) {
        CoreRuntime &rt = cores[c];
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

        if (fabrics.empty()) {
            rt.engine = std::make_unique<LaneEngine>(
                *source, *rt.pageTable, lanes, opts, backend);
        } else {
            std::vector<CacheHierarchy *> stacks;
            for (const auto &fabric : fabrics)
                stacks.push_back(&fabric->core(c));
            rt.engine = std::make_unique<LaneEngine>(
                *source, *rt.pageTable, stacks, lanes, opts, backend);
        }
    }

    // Deterministic round-robin: each rotation advances every
    // unfinished core by one quantum in core-id order.  A finished
    // core drops out; the others keep rotating (per-core budgets are
    // independent).  Each step runs all of the core's lanes, and a
    // lane only touches its own fabric, so every fabric sees exactly
    // the traffic order of a solo run.
    while (true) {
        bool all_done = true;
        for (CoreRuntime &rt : cores) {
            CoreModel &core = rt.engine->core();
            if (core.retired() >= rt.budget)
                continue;
            all_done = false;
            core.step(std::min<InstCount>(
                rt.budget, core.retired() + options.quantum));
        }
        if (all_done)
            break;
    }

    // Finalize only after ALL stepping: every core's result.slc is
    // then the same end-of-run shared snapshot, independent of the
    // core's position in the rotation.
    std::vector<MultiCoreResult> results(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        MultiCoreResult &result = results[k];
        result.cores.reserve(n);
        for (const CoreRuntime &rt : cores) {
            RunArtifacts art = rt.art;
            rt.engine->finish(k, art);
            result.cores.push_back(std::move(art));
        }
        if (!fabrics.empty()) {
            result.slc = fabrics[k]->slc().stats();
            result.dramReads = fabrics[k]->dram().reads();
            result.dramWrites = fabrics[k]->dram().writes();
        } else {
            const CacheHierarchy &solo = cores[0].engine->hierarchy(k);
            result.slc = solo.slc().stats();
            result.dramReads = solo.dram().reads();
            result.dramWrites = solo.dram().writes();
        }
    }
    return results;
}

MultiCoreResult
runMultiCore(const std::vector<std::string> &core_workloads,
             const std::string &policy_spec,
             const MultiCoreOptions &options)
{
    MultiCoreOptions shared = options;
    shared.base.hier.l2Policy = PolicySpec(policy_spec);
    const LaneSpec lane = soloLane(shared.base);
    return std::move(
        runMultiCore(core_workloads, {lane}, shared).front());
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
