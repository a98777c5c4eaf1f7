#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/policy_registry.hh"
#include "exp/journal.hh"
#include "exp/pool.hh"
#include "exp/sink.hh"
#include "sim/multicore.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace trrip::exp {

std::map<std::string, double>
defaultMetrics(const SimResult &r)
{
    std::map<std::string, double> m;
    m["instructions"] = static_cast<double>(r.instructions);
    m["cycles"] = r.cycles;
    m["ipc"] = r.ipc();
    m["l2_inst_mpki"] = r.l2InstMpki;
    m["l2_data_mpki"] = r.l2DataMpki;
    m["l2_demand_misses"] = static_cast<double>(r.l2.demandMisses);
    m["l2_hot_evictions"] = static_cast<double>(r.l2HotEvictions);
    m["branch_mispredicts"] =
        static_cast<double>(r.branch.mispredicts);
    m["btb_misses"] = static_cast<double>(r.branch.btbMisses);
    forEachBucket(
        [&](const char *name, double bucket) {
            m[std::string("td_") + name] = r.topdown.fraction(bucket);
        },
        r.topdown);
    return m;
}

const CellRecord &
ExperimentResults::at(std::size_t workload, std::size_t policy,
                      std::size_t config) const
{
    const CellRecord &rec =
        cells_.at(spec_.cellIndex(CellId{workload, policy, config}));
    panic_if(!rec.valid, "cell (", rec.workload, ", ", rec.policy,
             ", config ", config, ") was filtered out of experiment '",
             spec_.name, "'");
    return rec;
}

const CellRecord &
ExperimentResults::at(const std::string &workload,
                      const std::string &policy,
                      std::size_t config) const
{
    const auto find = [](const std::vector<std::string> &axis,
                         const std::string &label) {
        for (std::size_t i = 0; i < axis.size(); ++i)
            if (axis[i] == label)
                return i;
        panic("experiment axis has no entry '", label, "'");
        return std::size_t(0);
    };
    return at(find(spec_.workloads, workload),
              find(spec_.policies, policy), config);
}

namespace {

/**
 * Environment variable @p name as a whole decimal count that fits
 * @p T, else 0: unset, empty, signed, prefixed, suffixed ("4x",
 * "1e3", "150ms") and overflowing values all read as 0.
 */
template <typename T>
T
countFromEnv(const char *name)
{
    const char *env = std::getenv(name);
    return env ? parseWhole<T>(env).value_or(0) : 0;
}

} // namespace

unsigned
ExperimentRunner::defaultJobs()
{
    if (const unsigned n = countFromEnv<unsigned>("TRRIP_JOBS"))
        return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::uint64_t
ExperimentRunner::defaultCellTimeoutMs()
{
    return countFromEnv<std::uint64_t>("TRRIP_CELL_TIMEOUT_MS");
}

ExperimentRunner::ExperimentRunner(unsigned threads) :
    threads_(threads > 0 ? threads : defaultJobs()),
    cellTimeoutMs_(defaultCellTimeoutMs())
{}

namespace {

/** Everything one grid carries through its run. */
struct RunState
{
    RunState(const ExperimentSpec &spec, ProfileCache &profiles) :
        spec(spec), profiles(&profiles)
    {}

    const ExperimentSpec &spec;
    ProfileCache *profiles;
    WorkerPool *pool = nullptr;
    std::vector<CellRecord> records;
    /**
     * The rows to run: the record indices each row item executes.  A
     * group is the live cells of one row -- one workload and config --
     * in policy order, run as the policy lanes of one engine; custom-
     * executor specs keep one cell per group.  Membership depends
     * only on the spec, the filter and the journal, never on
     * TRRIP_JOBS.
     */
    std::vector<std::vector<std::size_t>> groups;

    /** Failure bookkeeping (the policy is spec.onError). */
    std::unique_ptr<RunJournal> journal;
    std::uint64_t cellsResumed = 0;
    std::atomic<std::uint64_t> cellsFailed{0};
    std::atomic<std::uint64_t> cellsRetried{0};
    std::atomic<std::uint64_t> failedAttempts{0};
    /** Abort mode: set on the first failure; later cells short-
     *  circuit instead of running. */
    std::atomic<bool> abortRequested{false};
    /** The failed cell with the lowest record index (what run()
     *  throws under Abort).  Guarded by errorMutex. */
    std::mutex errorMutex;
    std::size_t firstErrorIndex = ~std::size_t(0);
    std::unique_ptr<SimError> firstError;

    /**
     * A lane's outcome.  A single row stores its core's own result;
     * an `mc:` row stores the bundle aggregate plus per-core and
     * shared-DRAM metrics.  Either keeps core 0's software artifacts
     * (layout, profile, resolved policies).
     */
    void
    store(std::size_t index, MultiCoreResult &&lane)
    {
        CellRecord &rec = records[index];
        RunArtifacts &core0 = lane.cores[0];
        if (!isMultiCoreName(rec.workload)) {
            rec.metrics = defaultMetrics(core0.result);
        } else {
            const SimResult agg = aggregateMultiCore(lane);
            rec.metrics = defaultMetrics(agg);
            for (std::size_t core = 0; core < lane.cores.size();
                 ++core) {
                const std::string prefix =
                    "core" + std::to_string(core) + "_";
                for (const auto &[key, value] :
                     defaultMetrics(lane.cores[core].result)) {
                    rec.metrics[prefix + key] = value;
                }
            }
            rec.metrics["dram_reads"] =
                static_cast<double>(lane.dramReads);
            rec.metrics["dram_writes"] =
                static_cast<double>(lane.dramWrites);
            core0.result = agg;
        }
        rec.artifacts = std::move(core0);
    }

    /** The options every lane of @p row shares. */
    SimOptions
    rowOptions(const CellId &row, WorkerContext &wc) const
    {
        SimOptions options = spec.options;
        if (!spec.configs.empty() && spec.configs[row.config].apply)
            spec.configs[row.config].apply(options);
        // Deadline enforcement: the simulation polls the worker's
        // token at event-ring refills (CoreModel::refill).
        options.cancel = wc.cancel;
        return options;
    }

    /** A custom-executor cell: one cell per pool item. */
    void
    runCustomCell(std::size_t index, WorkerContext &wc)
    {
        CellRecord &rec = records[index];
        CellContext ctx;
        ctx.id = rec.id;
        ctx.workload = rec.workload;
        ctx.policy = rec.policy;
        ctx.options = rowOptions(rec.id, wc);
        ctx.worker = wc.worker;
        ctx.profiles = profiles;
        CellOutcome outcome = spec.runCell(ctx);
        rec.artifacts = std::move(outcome.artifacts);
        rec.metrics = std::move(outcome.metrics);
    }

    /**
     * Run the cells @p lanes of one row (same workload and config, in
     * policy order) as the policy lanes of one engine: runMultiCore()
     * resolves the row's core labels, taking workloads, training
     * profiles and trace indexes from the shared cache, and the
     * prepare steps and event streams are shared by the lanes.  Each
     * lane's result is bit-identical to its solo run.
     */
    void
    runLanes(const std::vector<std::size_t> &lanes, WorkerContext &wc)
    {
        const CellId row = records[lanes.front()].id;
        MultiCoreOptions mo;
        mo.base = rowOptions(row, wc);
        mo.paramsFor = spec.paramsFor;
        mo.workloadProvider = [this](const WorkloadParams &params) {
            return profiles->workload(params);
        };
        mo.profileProvider = [this, cancel = mo.base.cancel](
                                 const SyntheticWorkload &workload,
                                 InstCount budget) {
            return profiles->get(workload, budget, cancel);
        };
        mo.traceIndexProvider = [this](const std::string &path) {
            return profiles->traceIndex(path);
        };

        std::vector<LaneSpec> specs;
        for (std::size_t index : lanes) {
            CellRecord &rec = records[index];
            if (spec.probes)
                rec.probe = spec.probes(mo.base, rec.id);
            specs.push_back({PolicySpec(rec.policy), rec.probe.get()});
        }

        const std::string &label = spec.workloads[row.workload];
        std::vector<MultiCoreResult> out = runMultiCore(
            isMultiCoreName(label) ? multiCoreWorkloadsOf(label)
                                   : std::vector<std::string>{label},
            specs, mo);
        for (std::size_t k = 0; k < lanes.size(); ++k)
            store(lanes[k], std::move(out[k]));
    }

    /** Drop whatever a failed attempt half-produced, so a retry (or
     *  the error row) starts from a clean record. */
    void
    failAttempt(std::size_t index, const SimError &error,
                std::map<std::size_t, SimError> &errors)
    {
        failedAttempts.fetch_add(1, std::memory_order_relaxed);
        CellRecord &rec = records[index];
        rec.probe = nullptr;
        rec.artifacts = RunArtifacts{};
        rec.metrics.clear();
        errors.insert_or_assign(index, error);
    }

    /** The final failure of @p index: a schema-stable error row. */
    void
    failCell(std::size_t index, SimError last)
    {
        CellRecord &rec = records[index];
        last.addContext(
            "cell " + std::to_string(index) + ": workload " +
            rec.workload + ", policy " + rec.policy +
            (rec.config.empty() ? std::string()
                                : ", config " + rec.config));
        rec.failed = true;
        rec.errorCategory = errorCategoryName(last.category());
        rec.errorMessage = last.message();
        for (const std::string &frame : last.context())
            rec.errorMessage += "; " + frame;
        cellsFailed.fetch_add(1, std::memory_order_relaxed);
        if (spec.onError.mode == OnError::Mode::Abort) {
            abortRequested.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(errorMutex);
            if (index < firstErrorIndex) {
                firstErrorIndex = index;
                firstError = std::make_unique<SimError>(last);
            }
        }
    }

    /**
     * The success-or-error cell contract, per cell of a group: every
     * attempt runs under deterministic fault-injection scopes,
     * failures are retried/recorded per the OnError policy, and
     * nothing escapes to the pool (run() panics if anything does).
     *
     * Scopes are keyed on (cell index, attempt), so which faults fire
     * depends only on the cell and the attempt number, never on the
     * worker, the schedule or TRRIP_JOBS -- and a retry re-rolls, so
     * finite rates converge.  Each pending cell draws its `cell` site
     * under its own scope, and a completed cell's journal line draws
     * `sink_write` under (cell, attempt); the work the lanes share
     * (build, profile, prepare, trace chunk loads) runs under the
     * scope of the group's first pending cell, and a throw there
     * fails the attempt for every lane in it.  A retry re-runs only
     * the cells still pending.
     */
    void
    runGroupGuarded(std::size_t group, WorkerContext &wc)
    {
        // Abort mode short-circuit: once one cell failed, the rest
        // of the grid is moot (run() throws before the sinks run),
        // so do not burn time executing it.
        const OnError &onError = spec.onError;
        if (onError.mode == OnError::Mode::Abort &&
            abortRequested.load(std::memory_order_relaxed)) {
            return;
        }

        const unsigned max_attempts =
            onError.mode == OnError::Mode::Retry
                ? std::max(1u, onError.maxAttempts)
                : 1;
        std::vector<std::size_t> pending = groups[group];
        std::map<std::size_t, SimError> errors;
        for (unsigned attempt = 1;
             attempt <= max_attempts && !pending.empty(); ++attempt) {
            // Every attempt gets a fresh deadline of one cell timeout
            // per pending lane: all attempts run inside ONE pool
            // item, so without this the first attempt's clock would
            // cancel its retries.
            pool->rearmDeadline(wc.worker,
                                static_cast<unsigned>(pending.size()));

            std::vector<std::size_t> running;
            for (std::size_t index : pending) {
                FaultInjector::Scope scope(index, attempt);
                try {
                    FaultInjector::instance().maybeInject(
                        FaultSite::Cell);
                    running.push_back(index);
                } catch (const SimError &e) {
                    failAttempt(index, e, errors);
                }
            }
            if (!running.empty()) {
                std::unique_ptr<SimError> shared;
                {
                    FaultInjector::Scope scope(pending.front(), attempt);
                    try {
                        if (spec.runCell)
                            runCustomCell(running.front(), wc);
                        else
                            runLanes(running, wc);
                    } catch (const SimError &e) {
                        shared = std::make_unique<SimError>(e);
                    } catch (const std::exception &e) {
                        shared = std::make_unique<SimError>(
                            ErrorCategory::Internal, e.what());
                    } catch (...) {
                        shared = std::make_unique<SimError>(
                            ErrorCategory::Internal, "unknown exception");
                    }
                }
                for (std::size_t index : running) {
                    if (shared) {
                        failAttempt(index, *shared, errors);
                        continue;
                    }
                    errors.erase(index);
                    if (attempt > 1) {
                        cellsRetried.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    if (journal) {
                        // The cell's own scope: its journal line draws
                        // the sink_write site as a solo cell would.
                        FaultInjector::Scope scope(index, attempt);
                        const CellRecord &rec = records[index];
                        journal->append({index, rec.workload, rec.policy,
                                         rec.config,
                                         rec.artifacts.resolvedPolicies,
                                         rec.metrics});
                    }
                }
            }
            std::erase_if(pending, [&](std::size_t index) {
                return !errors.contains(index);
            });
        }

        for (std::size_t index : pending)
            failCell(index, errors.at(index));
    }
};

} // namespace

ExperimentResults
ExperimentRunner::run(const ExperimentSpec &spec,
                      const std::vector<ResultSink *> &sinks)
{
    // Reject policy-axis entries that are the same policy in
    // different spellings ("SRRIP" vs "SRRIP(bits=2)"): the sinks
    // canonicalize labels, so their rows would be indistinguishable.
    {
        std::map<std::string, std::string> seen;
        for (const auto &label : spec.policies) {
            const std::string canon =
                PolicyRegistry::instance().canonicalLabel(label);
            const auto [it, inserted] = seen.emplace(canon, label);
            fatal_if(!inserted, "experiment '", spec.name,
                     "': policy axis entries '", it->second, "' and '",
                     label, "' resolve to the same policy (", canon,
                     ")");
        }
    }

    RunState state(spec, profiles_);

    const std::size_t n_cells = spec.cellCount();
    state.records.resize(n_cells);

    // Enumerate the live cells up front (deterministic order).
    std::vector<std::size_t> live;
    live.reserve(n_cells);
    for (std::size_t i = 0; i < n_cells; ++i) {
        const CellId id = spec.cellIdAt(i);
        CellRecord &rec = state.records[i];
        rec.id = id;
        rec.workload = spec.workloads[id.workload];
        rec.policy = spec.policies[id.policy];
        rec.config = spec.configLabel(id.config);
        if (spec.filter && !spec.filter(id))
            continue;
        rec.valid = true;
        live.push_back(i);
    }

    if (!spec.journal.empty()) {
        // Resume: cells the journal already holds are replayed into
        // their records and dropped from the execution set, so the
        // sinks re-emit them byte-identically without re-running.
        const auto done = RunJournal::load(spec.journal);
        live.erase(
            std::remove_if(
                live.begin(), live.end(),
                [&](std::size_t i) {
                    const auto it = done.find(i);
                    if (it == done.end())
                        return false;
                    CellRecord &rec = state.records[i];
                    const JournalEntry &entry = it->second;
                    // A label mismatch means the journal belongs to
                    // a different grid; resuming from it would emit
                    // silently wrong rows.
                    fatal_if(entry.workload != rec.workload ||
                                 entry.policy != rec.policy ||
                                 entry.config != rec.config,
                             "journal '", spec.journal, "' cell ", i,
                             " is (", entry.workload, ", ",
                             entry.policy, ", ", entry.config,
                             ") but experiment '", spec.name,
                             "' expects (", rec.workload, ", ",
                             rec.policy, ", ", rec.config, ")");
                    rec.metrics = entry.metrics;
                    rec.artifacts.resolvedPolicies =
                        entry.resolvedPolicies;
                    ++state.cellsResumed;
                    return true;
                }),
            live.end());
        state.journal = std::make_unique<RunJournal>(spec.journal);
    }

    // Group the cells still to run by row, in the order of each
    // row's first live cell, with each row's cells in policy order
    // (cell indices are workload-major, so a row's cells are strided
    // by the config count).
    if (spec.runCell) {
        for (std::size_t i : live)
            state.groups.push_back({i});
    } else {
        std::map<std::size_t, std::size_t> group_of_row;
        for (std::size_t i : live) {
            const CellId id = spec.cellIdAt(i);
            const std::size_t row =
                id.workload * spec.configCount() + id.config;
            const auto [it, fresh] =
                group_of_row.emplace(row, group_of_row.size());
            if (fresh)
                state.groups.emplace_back();
            state.groups[it->second].push_back(i);
        }
    }

    // One queue: the rows, in grid order, on at most one worker each.
    const auto threads_used = static_cast<unsigned>(std::min<std::size_t>(
        threads_, std::max<std::size_t>(1, state.groups.size())));
    WorkerPool pool(threads_used, cellTimeoutMs_);
    state.pool = &pool;
    const std::uint64_t collections_before = profiles_.collections();
    const std::uint64_t hits_before = profiles_.hits();
    const auto t0 = std::chrono::steady_clock::now();

    const WorkerPool::Failures escaped = pool.run(
        state.groups.size(), [&](std::size_t group, WorkerContext &wc) {
            state.runGroupGuarded(group, wc);
        });
    for (const auto &[group, error] : escaped) {
        // A row turns every throw into error rows, so one that
        // reaches the pool is a broken invariant, not a cell outcome.
        const CellRecord &rec = state.records[state.groups[group].front()];
        panic("experiment '", spec.name, "': the row of workload ",
              rec.workload,
              rec.config.empty() ? std::string()
                                 : ", config " + rec.config,
              " let an exception escape: ", error.what());
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    // Abort mode: a failed cell poisons the whole grid.  Rethrow the
    // deterministically-first error without feeding the sinks -- no
    // partial BENCH files.
    if (state.firstError)
        throw *state.firstError;

    ExperimentResults results(spec, std::move(state.records));
    results.wallSeconds = wall_seconds;
    results.threadsUsed = threads_used;
    results.profileCollections =
        profiles_.collections() - collections_before;
    results.profileHits = profiles_.hits() - hits_before;
    results.cellsFailed =
        state.cellsFailed.load(std::memory_order_relaxed);
    results.cellsRetried =
        state.cellsRetried.load(std::memory_order_relaxed);
    results.cellsResumed = state.cellsResumed;
    results.failedAttempts =
        state.failedAttempts.load(std::memory_order_relaxed);

    // Sinks observe cells in deterministic index order on the calling
    // thread, independent of the schedule the workers executed.
    for (ResultSink *sink : sinks) {
        if (!sink)
            continue;
        sink->begin(results.spec());
        for (const CellRecord &rec : results.cells())
            if (rec.valid)
                sink->cell(rec);
        sink->end(results);
    }
    return results;
}

} // namespace trrip::exp
