/**
 * @file
 * The traced run: spans, the traced cell executor with its
 * event-source and sink decorators, stub-lever attribution, and the
 * per-layer metrics built from them.  Nothing here runs during the
 * untraced timed passes.
 */

#include <algorithm>
#include <chrono>
#include <limits>

#include "perf.hh"
#include "sim/multicore.hh"
#include "trace/replay.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace trrip::perf {

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::int64_t
SpanLog::open(std::string name, std::int64_t parent, std::int64_t cell)
{
    const double start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent, cell});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
SpanLog::close(std::int64_t id)
{
    const double end = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
}

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Scope::Scope(SpanLog *log, std::string name, std::int64_t parent,
             std::int64_t cell) :
    log_(log), start_(now())
{
    if (log_)
        id_ = log_->open(std::move(name), parent, cell);
}

Scope::~Scope() { stop(); }

double
Scope::stop()
{
    if (seconds_ < 0.0) {
        seconds_ = now() - start_;
        if (log_)
            log_->close(id_);
    }
    return seconds_;
}

void
TimedSink::begin(const exp::ExperimentSpec &spec)
{
    const double t0 = now();
    inner_.begin(spec);
    seconds_ += now() - t0;
}

void
TimedSink::cell(const exp::CellRecord &record)
{
    const double t0 = now();
    inner_.cell(record);
    seconds_ += now() - t0;
}

void
TimedSink::end(const exp::ExperimentResults &results)
{
    const double t0 = now();
    inner_.end(results);
    seconds_ += now() - t0;
}

namespace {

/** Decorator summing the time spent in the wrapped event source. */
class TimedSource final : public BBEventSource
{
  public:
    explicit TimedSource(BBEventSource &inner) : inner_(inner) {}

    void
    produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
            std::uint32_t count) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        inner_.produce(ring, mask, pos, count);
        elapsed_ += std::chrono::steady_clock::now() - t0;
    }

    double
    seconds() const
    {
        return std::chrono::duration<double>(elapsed_).count();
    }

  private:
    BBEventSource &inner_;
    std::chrono::steady_clock::duration elapsed_{};
};

/**
 * The engine half of a single-core cell, exactly as runWorkload() and
 * runTrace() build it, with @p source behind the timing decorator.
 */
void
runEngine(RunArtifacts &art, PageTable &page_table, BBEventSource &source,
          const SimOptions &opts, const BackendParams &backend,
          SpanLog *log, std::int64_t cell_span, std::int64_t cell,
          CellTrace &t)
{
    Scope construct(log, "construct", cell_span, cell);
    Mmu mmu(page_table);
    BranchUnit branch(opts.branch);
    CacheHierarchy hier(opts.hier);
    art.resolvedPolicies = {
        {"L1I", hier.l1i().policy().describe()},
        {"L1D", hier.l1d().policy().describe()},
        {"L2", hier.l2().policy().describe()},
        {"SLC", hier.slc().policy().describe()},
    };
    TimedSource timed(source);
    CoreModel core(timed, hier, mmu, branch, opts.core, backend);
    core.setCancelToken(opts.cancel);
    construct.stop();

    Scope engine(log, "engine", cell_span, cell);
    art.result = core.run(resolveBudget(opts));
    t.engine = engine.stop();
    t.produce = timed.seconds();
    if (log) {
        // The decorator's per-batch calls, summed into one child span
        // so the engine's self time excludes the event source.
        log->add({"produce_sum", engine.start(),
                  engine.start() + t.produce, engine.id(), cell});
    }
    t.dramReads = hier.dram().reads();
    t.dramWrites = hier.dram().writes();
}

} // namespace

TracedExecutor::TracedExecutor(const exp::ExperimentSpec &spec,
                               SpanLog *log, std::int64_t parent_span) :
    paramsFor_(spec.paramsFor),
    labels_(spec.workloads),
    policies_(spec.policies.size()),
    configs_(spec.configCount()),
    log_(log),
    parent_(parent_span),
    cells_(spec.cellCount()),
    buildOnce_(std::make_unique<std::once_flag[]>(spec.workloads.size())),
    pipelines_(spec.workloads.size())
{}

exp::ExperimentSpec
TracedExecutor::traced(const exp::ExperimentSpec &spec,
                       TracedExecutor &executor)
{
    exp::ExperimentSpec out = spec;
    out.runCell = [&executor](const exp::CellContext &ctx) {
        return executor.run(ctx);
    };
    return out;
}

const CoDesignPipeline &
TracedExecutor::pipeline(std::size_t workload, std::int64_t cell_span)
{
    std::call_once(buildOnce_[workload], [&] {
        Scope build(log_, "build", cell_span);
        pipelines_[workload] = std::make_unique<CoDesignPipeline>(
            paramsFor_(labels_[workload]));
    });
    return *pipelines_[workload];
}

exp::CellOutcome
TracedExecutor::run(const exp::CellContext &ctx)
{
    const std::size_t index =
        (ctx.id.workload * policies_ + ctx.id.policy) * configs_ +
        ctx.id.config;
    const auto cell = static_cast<std::int64_t>(index);
    CellTrace &t = cells_[index];
    t = CellTrace{};
    Scope span(log_, "cell", parent_, cell);
    t.start = span.start();

    SimOptions opts = ctx.options;
    exp::CellOutcome out;
    if (isMultiCoreName(ctx.workload)) {
        MultiCoreOptions mo;
        mo.base = opts;
        mo.paramsFor = paramsFor_;
        exp::ProfileCache *cache = ctx.profiles;
        mo.profileProvider = [cache](const SyntheticWorkload &w,
                                     InstCount budget) {
            return cache->get(w, budget);
        };
        mo.traceIndexProvider = [cache](const std::string &path) {
            return cache->traceIndex(path);
        };
        Scope mc_span(log_, "multicore", span.id(), cell);
        MultiCoreResult mc = runMultiCore(
            multiCoreWorkloadsOf(ctx.workload), ctx.policy, mo);
        t.engine = mc_span.stop();
        t.multicore = true;
        t.dramReads = mc.dramReads;
        t.dramWrites = mc.dramWrites;

        // The same metric map the runner's default path builds.
        const SimResult agg = aggregateMultiCore(mc);
        out.metrics = exp::defaultMetrics(agg);
        for (std::size_t core = 0; core < mc.cores.size(); ++core) {
            const std::string prefix =
                "core" + std::to_string(core) + "_";
            for (const auto &[key, value] :
                 exp::defaultMetrics(mc.cores[core].result)) {
                out.metrics[prefix + key] = value;
            }
        }
        out.metrics["dram_reads"] = static_cast<double>(mc.dramReads);
        out.metrics["dram_writes"] = static_cast<double>(mc.dramWrites);
        out.artifacts = std::move(mc.cores[0]);
        out.artifacts.result = agg;
    } else if (trace::isTraceName(ctx.workload)) {
        const std::string path = trace::tracePathOf(ctx.workload);
        std::shared_ptr<const trace::TraceIndex> index_ptr;
        {
            Scope profile(log_, "profile", span.id(), cell);
            index_ptr = ctx.profiles->traceIndex(path);
        }
        opts.hier.l2Policy = PolicySpec(ctx.policy);
        Scope prepare(log_, "prepare", span.id(), cell);
        trace::TraceRuntime rt =
            trace::prepareTrace(path, opts, std::move(index_ptr));
        trace::TraceEventSource source(path);
        t.prepare = prepare.stop();
        // Traces carry no synthetic stall model (runTrace()).
        runEngine(rt.art, *rt.pageTable, source, opts, BackendParams{},
                  log_, span.id(), cell, t);
        out.metrics = exp::defaultMetrics(rt.art.result);
        out.artifacts = std::move(rt.art);
    } else {
        const CoDesignPipeline &pipe =
            pipeline(ctx.id.workload, span.id());
        const SyntheticWorkload &workload = pipe.workload();
        {
            Scope profile(log_, "profile", span.id(), cell);
            opts.precomputedProfile = ctx.profiles->get(
                workload, resolveProfileBudget(opts));
        }
        opts.hier.l2Policy = PolicySpec(ctx.policy);
        Scope prepare(log_, "prepare", span.id(), cell);
        WorkloadRuntime rt = prepareWorkload(workload, opts);
        ExecOptions exec_opts;
        exec_opts.seed = workload.params.seed;
        exec_opts.handlerZipfSkew = workload.params.zipfSkew;
        Executor exec(workload, rt.art.image, exec_opts);
        t.prepare = prepare.stop();

        BackendParams backend;
        backend.dependStallPerInstr = workload.params.dependStallPerInstr;
        backend.issueStallPerInstr = workload.params.issueStallPerInstr;
        backend.otherStallPerInstr = workload.params.otherStallPerInstr;
        runEngine(rt.art, *rt.pageTable, exec, opts, backend, log_,
                  span.id(), cell, t);
        out.metrics = exp::defaultMetrics(rt.art.result);
        out.artifacts = std::move(rt.art);
    }
    t.instructions = out.artifacts.result.instructions;
    t.end = t.start + span.stop();
    return out;
}

LayerTimes
attributeLayers(const Context &ctx, exp::ExperimentRunner &runner,
                InstCount budget, unsigned rounds, SpanLog *log)
{
    struct Lever
    {
        const char *name;
        unsigned mask;
        InstCount budget;   //!< 0 = the attribution budget.
        double engine = std::numeric_limits<double>::infinity();
        double produce = std::numeric_limits<double>::infinity();
        std::uint64_t instructions = 0;
        std::size_t cells = 0;
    };
    bool bundles = false;
    for (const std::string &label : ctx.spec.workloads)
        bundles = bundles || isMultiCoreName(label);

    std::vector<Lever> levers = {{"full", kStubNone, 0},
                                 {"cache", kStubHier, 0},
                                 {"branch", kStubBranch, 0},
                                 {"mmu", kStubMmu, 0}};
    if (bundles) {
        // runMultiCore is one span: the event source is timed by the
        // producer-only lever, and the bundle's own set-up (workload
        // builds, prepare, construction) by a one-instruction run that
        // every lever's span is net of.
        levers.push_back({"exec", kStubExec, 0});
        levers.push_back({"setup", kStubNone, 1});
    }

    exp::ExperimentSpec spec = ctx.spec;
    spec.name += "_stub";
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = budget;
    // Classify from the timed passes' (already cached) profiles.
    spec.options.profileInstructions =
        resolveProfileBudget(ctx.spec.options);
    for (const Lever &lever : levers) {
        const unsigned mask = lever.mask;
        const InstCount lever_budget = lever.budget;
        spec.configs.push_back({lever.name, [=](SimOptions &o) {
                                    o.core.stubMask = mask;
                                    if (lever_budget > 0)
                                        o.maxInstructions = lever_budget;
                                }});
    }

    TracedExecutor executor(spec, log, -1);
    const exp::ExperimentSpec traced =
        TracedExecutor::traced(spec, executor);
    for (unsigned round = 0; round < rounds; ++round) {
        Scope round_span(log, "stub_round");
        executor.setParent(round_span.id());
        runner.run(traced, {});
        round_span.stop();
        std::vector<Lever> sums = levers;
        for (Lever &s : sums) {
            s.engine = s.produce = 0.0;
            s.instructions = 0;
            s.cells = 0;
        }
        for (std::size_t i = 0; i < executor.cells().size(); ++i) {
            const CellTrace &t = executor.cells()[i];
            Lever &s = sums[spec.cellIdAt(i).config];
            s.engine += t.engine;
            s.produce += t.produce;
            s.instructions += t.instructions;
            ++s.cells;
        }
        for (std::size_t l = 0; l < levers.size(); ++l) {
            levers[l].engine = std::min(levers[l].engine, sums[l].engine);
            levers[l].produce =
                std::min(levers[l].produce, sums[l].produce);
            levers[l].instructions = sums[l].instructions;
            levers[l].cells = sums[l].cells;
        }
    }

    const double setup = bundles ? levers.back().engine : 0.0;
    const auto ns = [&](const Lever &lever, double seconds) {
        return lever.instructions > 0
                   ? seconds * 1e9 /
                         static_cast<double>(lever.instructions)
                   : 0.0;
    };
    const auto engine_ns = [&](std::size_t l) {
        return ns(levers[l], levers[l].engine - setup);
    };
    LayerTimes out;
    out.engine = engine_ns(0);
    out.cache = out.engine - engine_ns(1);
    out.branch = out.engine - engine_ns(2);
    out.mmu = out.engine - engine_ns(3);
    out.produce = bundles ? engine_ns(4) : ns(levers[0], levers[0].produce);
    out.core = out.engine - out.cache - out.branch - out.mmu - out.produce;
    if (bundles)
        out.bundleSetupPerCell =
            setup / static_cast<double>(levers.back().cells);
    return out;
}

std::vector<Metric>
layerMetrics(const std::vector<PassOutcome> &traced,
             const std::vector<std::vector<CellTrace>> &cells,
             const std::vector<double> &untraced_walls,
             const std::vector<SetupSample> &setups,
             const LayerTimes &layers)
{
    // Simulated counts repeat exactly in every pass (the gate checks
    // the BENCH bytes), so the first traced pass stands for all.
    double instr = 0, l1i_acc = 0, l1i_miss = 0, l1d_acc = 0;
    double l1d_miss = 0, l2i_miss = 0, l2d_miss = 0, slc_acc = 0;
    double slc_miss = 0, pf_issued = 0, pf_useful = 0, hot_evict = 0;
    double mispred = 0, btb = 0, tlb_acc = 0, tlb_miss = 0;
    double dram_reads = 0, dram_writes = 0;
    for (const SimResult &r : traced.front().results) {
        instr += static_cast<double>(r.instructions);
        l1i_acc += static_cast<double>(r.l1i.demandAccesses);
        l1i_miss += static_cast<double>(r.l1i.demandMisses);
        l1d_acc += static_cast<double>(r.l1d.demandAccesses);
        l1d_miss += static_cast<double>(r.l1d.demandMisses);
        l2i_miss += static_cast<double>(r.l2.instDemandMisses);
        l2d_miss += static_cast<double>(r.l2.dataDemandMisses);
        slc_acc += static_cast<double>(r.slc.demandAccesses);
        slc_miss += static_cast<double>(r.slc.demandMisses);
        pf_issued += static_cast<double>(r.prefetch.issued);
        pf_useful +=
            static_cast<double>(r.prefetch.covered + r.prefetch.late);
        hot_evict += static_cast<double>(r.l2HotEvictions);
        mispred += static_cast<double>(r.branch.mispredicts);
        btb += static_cast<double>(r.branch.btbMisses);
        tlb_acc += static_cast<double>(r.tlb.accesses);
        tlb_miss += static_cast<double>(r.tlb.misses);
    }
    for (const CellTrace &t : cells.front()) {
        dram_reads += static_cast<double>(t.dramReads);
        dram_writes += static_cast<double>(t.dramWrites);
    }
    const auto pki = [&](double v) {
        return instr > 0 ? v * 1000.0 / instr : 0.0;
    };
    const auto rate = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };

    std::vector<double> prepare, cell_s, wait_s, busy, hits, sink;
    double cells_run = 0, cells_failed = 0;
    for (std::size_t p = 0; p < traced.size(); ++p) {
        const PassOutcome &pass = traced[p];
        double prep = 0, busy_s = 0;
        bool bundles = false;
        for (const CellTrace &t : cells[p]) {
            prep += t.prepare;
            busy_s += t.end - t.start;
            cell_s.push_back(t.end - t.start);
            wait_s.push_back(t.start - pass.submit);
            bundles = bundles || t.multicore;
        }
        // Bundle cells prepare inside runMultiCore; the attribution's
        // one-instruction run stands in for it.
        prepare.push_back(bundles ? layers.bundleSetupPerCell *
                                        static_cast<double>(pass.cells)
                                  : prep);
        busy.push_back(busy_s / (pass.threads * pass.wall));
        hits.push_back(rate(
            static_cast<double>(pass.profileHits),
            static_cast<double>(pass.profileHits +
                                pass.profileCollections)));
        sink.push_back(pass.sink);
        cells_run += static_cast<double>(pass.cells);
        cells_failed += static_cast<double>(pass.failed);
    }
    std::vector<double> build, profile, traced_walls;
    for (const SetupSample &s : setups) {
        build.push_back(s.build);
        profile.push_back(s.profile);
    }
    for (const PassOutcome &pass : traced)
        traced_walls.push_back(pass.wall);
    const double overhead =
        (summarize(traced_walls).median /
             summarize(untraced_walls).median -
         1.0) *
        100.0;

    return {
        {"cache.ns_per_instr", "ns/instr", {layers.cache}},
        {"cache.l1i_miss_rate", "ratio", {rate(l1i_miss, l1i_acc)}},
        {"cache.l1d_miss_rate", "ratio", {rate(l1d_miss, l1d_acc)}},
        {"cache.l2_inst_mpki", "pki", {pki(l2i_miss)}},
        {"cache.l2_data_mpki", "pki", {pki(l2d_miss)}},
        {"cache.slc_accesses_pki", "pki", {pki(slc_acc)}},
        {"cache.slc_miss_rate", "ratio", {rate(slc_miss, slc_acc)}},
        {"cache.prefetch_issued_pki", "pki", {pki(pf_issued)}},
        {"cache.prefetch_useful_frac", "ratio",
         {rate(pf_useful, pf_issued)}},
        {"cache.l2_hot_evictions_pki", "pki", {pki(hot_evict)}},
        {"branch.ns_per_instr", "ns/instr", {layers.branch}},
        {"branch.mispredicts_pki", "pki", {pki(mispred)}},
        {"branch.btb_misses_pki", "pki", {pki(btb)}},
        {"sw.mmu_ns_per_instr", "ns/instr", {layers.mmu}},
        {"sw.tlb_accesses_pki", "pki", {pki(tlb_acc)}},
        {"sw.tlb_miss_rate", "ratio", {rate(tlb_miss, tlb_acc)}},
        {"sw.prepare_s", "s", prepare},
        {"source.produce_ns_per_instr", "ns/instr", {layers.produce}},
        {"source.build_s", "s", build},
        {"sim.engine_ns_per_instr", "ns/instr", {layers.engine}},
        {"sim.core_ns_per_instr", "ns/instr", {layers.core}},
        {"sim.profile_s", "s", profile},
        {"mem.dram_reads_pki", "pki", {pki(dram_reads)}},
        {"mem.dram_writes_pki", "pki", {pki(dram_writes)}},
        {"exp.cell_s_p50", "s", cell_s},
        {"exp.cell_s_p90", "s", {percentile(cell_s, 90.0)},
         cell_s.size()},
        {"exp.queue_wait_s_p50", "s", wait_s},
        {"exp.worker_busy_frac", "ratio", busy},
        {"exp.profile_hit_rate", "ratio", hits},
        {"exp.sink_s", "s", sink},
        {"exp.cells_failed_frac", "ratio", {rate(cells_failed, cells_run)}},
        {"bench.trace_overhead_pct", "%", {overhead}},
    };
}

} // namespace trrip::perf
