/**
 * @file
 * The four workloads, their set-up, and one timed pass through the
 * production path (ExperimentRunner::run with the default cell
 * executor and the standard JSON sink).
 */

#include <fstream>
#include <sstream>

#include "perf.hh"
#include "sim/golden.hh"
#include "sim/multicore.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads/proxies.hh"

namespace trrip::perf {

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = [] {
        const std::vector<std::string> proxies = proxyNames();
        return std::vector<Workload>{
            // The paper's frontend-bound mix, code footprint far above
            // the L1I: the engine does nearly all the work.
            {"fig6_serial", proxies, {"SRRIP", "TRRIP-2"}, false, 7},
            // The whole Fig. 6 grid from a cold runner: the only
            // workload with pool scheduling, profile collection racing
            // pipeline builds, and sinks on the critical path.
            {"grid_cold",
             proxies,
             {"SRRIP", "LRU", "BRRIP", "DRRIP", "SHiP", "CLIP",
              "Emissary", "TRRIP-1", "TRRIP-2"},
             true,
             5},
            // Trace replay: TraceEventSource instead of Executor, no
            // profile collection, a small code footprint.
            {"trace_replay",
             {"@dispatch", "@streaming"},
             {"SRRIP", "LRU", "DRRIP", "SHiP", "TRRIP-2"},
             false,
             7},
            // Inclusive shared SLC, owner-mask back-invalidation,
            // shared DRAM and quantum switching.
            {"multicore_4c",
             {"mc:gcc+python+sqlite+clang",
              "mc:omnetpp+abseil+@dispatch+@streaming"},
             {"SRRIP", "TRRIP-2"},
             false,
             7},
        };
    }();
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

namespace {

/**
 * Proxy inputs for @p seed: seed 1 is proxyParams() untouched, every
 * other seed moves the evaluation and training inputs by a fixed
 * stride.  The trace pack does not depend on the seed.
 */
std::function<WorkloadParams(const std::string &)>
seededParams(std::uint64_t seed)
{
    return [seed](const std::string &name) {
        WorkloadParams p = proxyParams(name);
        const std::uint64_t shift = (seed - 1) * 1000003ull;
        p.seed += shift;
        p.trainSeed += shift;
        return p;
    };
}

void
addUnique(std::vector<std::string> &list, const std::string &item)
{
    for (const std::string &x : list)
        if (x == item)
            return;
    list.push_back(item);
}

} // namespace

Context
makeContext(const Workload &workload, const Args &args)
{
    // `mc:` labels split on '+', so a trace path must not contain one.
    fatal_if(args.out.find('+') != std::string::npos,
             "--out must not contain '+': ", args.out);
    Context ctx;
    ctx.workload = &workload;
    ctx.args = args;
    ctx.budget = args.smoke ? kSmokeBudget : kBudget;
    ctx.jobs = workload.cold ? std::min(4u, hostCpus()) : 1;
    ctx.traceDir = args.out + "/traces_" + workload.name;

    const auto resolve = [&](const std::string &label) {
        if (label.empty() || label[0] != '@') {
            addUnique(ctx.proxies, label);
            return label;
        }
        const std::string path =
            trace::miniTracePath(ctx.traceDir, label.substr(1));
        addUnique(ctx.traces, path);
        return trace::kTracePrefix + path;
    };

    exp::ExperimentSpec &spec = ctx.spec;
    spec.name = "perf_" + workload.name;
    spec.title = "trrip_perf " + workload.name;
    for (const std::string &label : workload.axis) {
        if (!isMultiCoreName(label)) {
            spec.workloads.push_back(resolve(label));
            continue;
        }
        std::string cores;
        for (const std::string &core : multiCoreWorkloadsOf(label)) {
            if (!cores.empty())
                cores += '+';
            cores += resolve(core);
        }
        spec.workloads.push_back(kMultiCorePrefix + cores);
    }
    spec.policies = workload.policies;
    spec.options.maxInstructions = ctx.budget;
    spec.paramsFor = seededParams(args.seed);
    spec.onError.mode = exp::OnError::Mode::Skip;
    return ctx;
}

SetupSample
setUp(const Context &ctx, exp::ProfileCache &cache, SpanLog *log)
{
    SetupSample sample;
    Scope all(log, "setup");
    std::vector<std::unique_ptr<CoDesignPipeline>> pipelines;
    {
        Scope build(log, "setup.build", all.id());
        if (!ctx.traces.empty())
            trace::generateMiniTracePack(ctx.traceDir);
        for (const std::string &name : ctx.proxies) {
            pipelines.push_back(std::make_unique<CoDesignPipeline>(
                ctx.spec.paramsFor(name)));
        }
        sample.build = build.stop();
    }
    {
        Scope profile(log, "setup.profile", all.id());
        const InstCount budget = resolveProfileBudget(ctx.spec.options);
        for (const auto &pipeline : pipelines)
            cache.get(pipeline->workload(), budget);
        for (const std::string &path : ctx.traces)
            cache.traceIndex(path);
        sample.profile = profile.stop();
    }
    sample.total = all.stop();
    return sample;
}

PassOutcome
runPass(const Context &ctx, const exp::ExperimentSpec &spec,
        exp::ExperimentRunner *runner, bool time_sinks)
{
    const std::string path =
        ctx.args.out + "/BENCH_" + spec.name + ".json";
    exp::JsonSink json(path);
    TimedSink timed(json);
    exp::ResultSink *sink = &json;
    if (time_sinks)
        sink = &timed;

    PassOutcome out;
    out.submit = now();
    std::unique_ptr<exp::ExperimentRunner> fresh;
    if (!runner) {
        fresh = std::make_unique<exp::ExperimentRunner>(ctx.jobs);
        runner = fresh.get();
    }
    const exp::ExperimentResults results = runner->run(spec, {sink});
    out.wall = now() - out.submit;

    out.sink = timed.seconds();
    out.threads = results.threadsUsed;
    out.failed = results.cellsFailed;
    out.profileHits = results.profileHits;
    out.profileCollections = results.profileCollections;
    for (const exp::CellRecord &cell : results.cells()) {
        out.results.push_back(cell.result());
        out.fingerprints.push_back(goldenFingerprint(cell.result()));
        if (!cell.valid)
            continue;
        ++out.cells;
        out.instructions += cell.result().instructions;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out.benchBytes = bytes.str();
    return out;
}

SimSummary
simSummary(const exp::ExperimentSpec &spec, const PassOutcome &pass)
{
    std::size_t base = 0, test = 0;
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
        if (spec.policies[p] == "SRRIP")
            base = p;
        else if (spec.policies[p] == "TRRIP-2")
            test = p;
    }
    double base_misses = 0, test_misses = 0;
    std::vector<double> ratios;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        const SimResult &b = pass.results[spec.cellIndex({w, base, 0})];
        const SimResult &t = pass.results[spec.cellIndex({w, test, 0})];
        base_misses += static_cast<double>(b.l2.instDemandMisses);
        test_misses += static_cast<double>(t.l2.instDemandMisses);
        ratios.push_back(t.cycles / b.cycles);
    }
    SimSummary s;
    s.l2iMissRatio = test_misses / base_misses;
    s.cycleRatio = geomean(ratios);
    return s;
}

} // namespace trrip::perf
