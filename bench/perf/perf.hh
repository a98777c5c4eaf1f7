/**
 * @file
 * Shared declarations of trrip_perf, the simulator's host-performance
 * benchmark.  README.md lists the workloads, the metrics, which layer
 * metric should move which end-to-end metric, and the caveats.
 *
 * All load comes from one process: a closed loop with one submitter,
 * where each timed pass waits for the previous one.  Timings are
 * medians over passes; simulated counts must repeat exactly.
 */

#ifndef TRRIP_BENCH_PERF_PERF_HH
#define TRRIP_BENCH_PERF_PERF_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/sink.hh"

namespace trrip::perf {

/** Command-line arguments. */
struct Args
{
    std::string workload;   //!< Empty: every workload, one process each.
    std::uint64_t seed = 1;
    double seconds = 0.0;   //!< Timed-phase length; 0 = fixed passes.
    bool trace = false;
    bool smoke = false;
    std::string out = "build/perf/results";
};

/** Instructions per cell (per core in a bundle) of the timed passes. */
constexpr InstCount kBudget = 6'000'000;
/** Per-cell budget of the stub-lever attribution rounds. */
constexpr InstCount kStubBudget = 2'000'000;
/** Per-cell budget of --smoke. */
constexpr InstCount kSmokeBudget = 200'000;

/** One benchmark workload (README.md says why each exists). */
struct Workload
{
    std::string name;
    /**
     * Workload-axis labels as ExperimentSpec takes them, except that
     * "@name" names a mini-pack trace; set-up resolves it to a
     * `trace:<path>` label (inside `mc:` bundles too).
     */
    std::vector<std::string> axis;
    std::vector<std::string> policies;
    /**
     * A fresh ExperimentRunner of min(4, nproc) workers every pass;
     * otherwise one warm runner of one worker serves every pass.
     */
    bool cold = false;
    unsigned passes = 7;    //!< Timed passes without --seconds.
};

/** The four workloads, in run order. */
const std::vector<Workload> &workloads();

/** Null when @p name is not a workload. */
const Workload *findWorkload(const std::string &name);

/** Seconds on the process-wide steady clock. */
double now();

/** CPUs this process may run on (nproc). */
unsigned hostCpus();

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/**
 * In-memory span recorder: name, start, end, parent and cell id.
 * Written to TRACE_<workload>.json when the benchmark ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::int64_t parent = -1;
        std::int64_t cell = -1;
    };

    std::int64_t open(std::string name, std::int64_t parent = -1,
                      std::int64_t cell = -1);
    void close(std::int64_t id);
    /** A span whose start and end are already known. */
    void add(Span span);
    std::vector<Span> spans() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Times one scope and, when a log is attached, records it as a span.
 * With a null log it is a plain stopwatch.
 */
class Scope
{
  public:
    Scope(SpanLog *log, std::string name, std::int64_t parent = -1,
          std::int64_t cell = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return id_; }
    double start() const { return start_; }
    /** Close the scope now; returns its seconds (idempotent). */
    double stop();

  private:
    SpanLog *log_;
    std::int64_t id_ = -1;
    double start_;
    double seconds_ = -1.0;
};

/** Everything one run of one workload shares. */
struct Context
{
    const Workload *workload = nullptr;
    Args args;
    InstCount budget = kBudget;
    unsigned jobs = 1;        //!< Pool width of a timed pass.
    std::string traceDir;     //!< This run's mini trace pack.
    std::vector<std::string> proxies;  //!< Distinct proxy names.
    std::vector<std::string> traces;   //!< Distinct trace paths.
    exp::ExperimentSpec spec;          //!< A timed pass's grid.
};

/** Resolve @p workload's labels and build its production spec. */
Context makeContext(const Workload &workload, const Args &args);

/** One cold set-up, split into its two phases. */
struct SetupSample
{
    double total = 0.0;
    double build = 0.0;    //!< Trace pack + pipeline builds.
    double profile = 0.0;  //!< Training profiles + trace indexes.
};

/**
 * Generate the trace pack and build every proxy pipeline, then fill
 * @p cache with the training profiles and trace indexes the timed
 * passes read.
 */
SetupSample setUp(const Context &ctx, exp::ProfileCache &cache,
                  SpanLog *log);

/** What one pass of the grid produced. */
struct PassOutcome
{
    double wall = 0.0;             //!< Submit to sinks written.
    double submit = 0.0;           //!< now() at submit.
    std::uint64_t instructions = 0;
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::uint64_t profileHits = 0;
    std::uint64_t profileCollections = 0;
    unsigned threads = 1;
    double sink = 0.0;             //!< Seconds in the sinks (traced).
    std::string benchBytes;        //!< The BENCH file it wrote.
    std::vector<SimResult> results;        //!< By cell index.
    std::vector<std::uint64_t> fingerprints;  //!< By cell index.
};

/**
 * Run @p spec once through ExperimentRunner::run with the standard
 * JSON sink (behind a TimedSink when @p time_sinks).  @p runner null
 * means a fresh runner of ctx.jobs workers, created inside the timed
 * interval.
 */
PassOutcome runPass(const Context &ctx, const exp::ExperimentSpec &spec,
                    exp::ExperimentRunner *runner, bool time_sinks);

/** TRRIP-2 vs SRRIP outcome of one pass (deterministic per seed). */
struct SimSummary
{
    double l2iMissRatio = 0.0;  //!< Summed TRRIP-2 / SRRIP L2I misses.
    double cycleRatio = 0.0;    //!< Geomean per-entry cycle ratio.
};
SimSummary simSummary(const exp::ExperimentSpec &spec,
                      const PassOutcome &pass);

/** Decorator timing every ResultSink call it forwards. */
class TimedSink final : public exp::ResultSink
{
  public:
    explicit TimedSink(exp::ResultSink &inner) : inner_(inner) {}
    void begin(const exp::ExperimentSpec &spec) override;
    void cell(const exp::CellRecord &record) override;
    void end(const exp::ExperimentResults &results) override;
    double seconds() const { return seconds_; }

  private:
    exp::ResultSink &inner_;
    double seconds_ = 0.0;
};

/** Per-cell measurements of the traced cell executor. */
struct CellTrace
{
    double start = 0.0;    //!< now() when the cell began.
    double end = 0.0;
    double prepare = 0.0;  //!< prepareWorkload / prepareTrace.
    double engine = 0.0;   //!< CoreModel::run, or the runMultiCore call.
    double produce = 0.0;  //!< BBEventSource::produce, summed.
    std::uint64_t instructions = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    bool multicore = false;
};

/**
 * The traced cell executor (ExperimentSpec::runCell).  It makes the
 * same public calls as the runner's default path -- a bench-owned
 * CoDesignPipeline per workload built under call_once, ProfileCache,
 * prepareWorkload / prepareTrace, then Mmu, BranchUnit,
 * CacheHierarchy and CoreModel::run, or runMultiCore as one span --
 * and records spans around each.
 */
class TracedExecutor
{
  public:
    TracedExecutor(const exp::ExperimentSpec &spec, SpanLog *log,
                   std::int64_t parent_span);
    // Worker threads reach it through the runCell callback.
    TracedExecutor(const TracedExecutor &) = delete;
    TracedExecutor &operator=(const TracedExecutor &) = delete;

    exp::CellOutcome run(const exp::CellContext &ctx);

    const std::vector<CellTrace> &cells() const { return cells_; }

    /** Parent span of the cells of the next run. */
    void setParent(std::int64_t span) { parent_ = span; }

    /** A copy of @p spec whose cells run through @p executor. */
    static exp::ExperimentSpec traced(const exp::ExperimentSpec &spec,
                                      TracedExecutor &executor);

  private:
    const CoDesignPipeline &pipeline(std::size_t workload,
                                     std::int64_t cell_span);

    std::function<WorkloadParams(const std::string &)> paramsFor_;
    std::vector<std::string> labels_;
    std::size_t policies_;
    std::size_t configs_;
    SpanLog *log_;
    std::int64_t parent_;
    std::vector<CellTrace> cells_;
    std::unique_ptr<std::once_flag[]> buildOnce_;
    std::vector<std::unique_ptr<CoDesignPipeline>> pipelines_;
};

/** Host time per simulated instruction of each engine layer. */
struct LayerTimes
{
    double engine = 0.0;    //!< Full engine, ns/instr.
    double cache = 0.0;
    double branch = 0.0;
    double mmu = 0.0;
    double produce = 0.0;   //!< Event source.
    double core = 0.0;      //!< Residual.
    /** Bundle cells only: runMultiCore at a one-instruction budget. */
    double bundleSetupPerCell = 0.0;
};

/**
 * Stub-lever attribution: ns(full) - ns(layer stubbed), best of
 * @p rounds interleaved rounds at @p budget instructions per cell,
 * SRRIP only, on the serial @p runner.
 */
LayerTimes attributeLayers(const Context &ctx,
                           exp::ExperimentRunner &runner,
                           InstCount budget, unsigned rounds,
                           SpanLog *log);

/** A named series of samples (one per pass, or a single value). */
struct Metric
{
    std::string name;
    std::string unit;
    std::vector<double> samples;
    /** Observations behind a single derived value (e.g. a p90). */
    std::size_t n = 0;
};

/**
 * Every per-layer metric of a traced run, from its traced passes and
 * their cell traces, the interleaved untraced pass times, the set-up
 * samples and the stub-lever attribution.
 */
std::vector<Metric>
layerMetrics(const std::vector<PassOutcome> &traced,
             const std::vector<std::vector<CellTrace>> &cells,
             const std::vector<double> &untraced_walls,
             const std::vector<SetupSample> &setups,
             const LayerTimes &layers);

/** Median and quartiles as Python's statistics module gives them. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);

/** What every PERF record carries about the run. */
struct RunInfo
{
    std::string mode;      //!< "timed", "trace" or "smoke".
    unsigned passes = 0;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::string> checks;  //!< Name -> verdict.
};

/** Write the stamped PERF_<workload>.json record into args.out. */
void writeRecord(const Context &ctx, const RunInfo &info,
                 const std::vector<Metric> &end_to_end,
                 const std::vector<Metric> &layers);

/** Write TRACE_<workload>.json from @p log into args.out. */
void writeTrace(const Context &ctx, const SpanLog &log);

/** Result of re-verifying the pinned golden fingerprints. */
struct GoldenReport
{
    std::size_t total = 0;
    std::size_t matched = 0;
};

/**
 * Re-run all pinned goldens (single-core, trace and multi-core) on
 * @p jobs workers; mismatches are reported on stderr.
 */
GoldenReport verifyGoldens(const std::string &trace_dir, unsigned jobs);

} // namespace trrip::perf

#endif // TRRIP_BENCH_PERF_PERF_HH
