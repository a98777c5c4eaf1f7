/**
 * @file
 * Parallel experiment execution.
 *
 * The runner expands an ExperimentSpec into cells, builds each proxy
 * workload (bundle cores included) exactly once, resolves training
 * profiles and trace indexes through a shared ProfileCache, and
 * executes the grid on a persistent work-stealing WorkerPool that is
 * reused across run() calls (no thread is spawned or joined per
 * run).  One pool item is one row -- the live cells sharing a
 * workload and a config -- run as the policy lanes of one engine:
 * every row, whether a proxy, a `trace:` or an `mc:` bundle, is a
 * list of cores driven by runBundle() (sim/multicore.hh), so each
 * core's event stream, MMU and branch unit are simulated once per row
 * (custom-runCell specs keep one cell per item).  A grid with fewer
 * rows than workers therefore runs fewer items in parallel.  submit()
 * enqueues a grid without blocking, so several specs can be in flight
 * at once with row-granularity stealing across them.  Results are
 * stored by deterministic cell index and fed to the sinks in that
 * order, so the output is bit-identical regardless of thread count or
 * scheduling.
 *
 * Failure semantics (see exp/spec.hh): a cell that throws SimError is
 * a contained outcome, not a crash.  The runner retries or skips it
 * per ExperimentSpec::onError, records the final error on the
 * CellRecord (the sinks' schema-stable error rows), enforces
 * deadlines through the pool watchdog (TRRIP_CELL_TIMEOUT_MS /
 * setCellTimeout, per cell: a row gets one timeout per pending
 * lane), and streams completed cells to an optional JSONL run
 * journal from which a resubmitted spec resumes byte-identically
 * (exp/journal.hh).  All of it stays per cell when a row runs as
 * lanes: a retry re-runs only the row's failed cells.
 */

#ifndef TRRIP_EXP_RUNNER_HH
#define TRRIP_EXP_RUNNER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "exp/pool.hh"
#include "exp/profile_cache.hh"
#include "exp/spec.hh"

namespace trrip::exp {

class ResultSink;

/** Everything one grid run produced, indexable by axis. */
class ExperimentResults
{
  public:
    ExperimentResults(const ExperimentSpec &spec,
                      std::vector<CellRecord> cells) :
        spec_(spec), cells_(std::move(cells))
    {}

    const ExperimentSpec &spec() const { return spec_; }
    const std::vector<CellRecord> &cells() const { return cells_; }

    /** Record by axis indices (workload, policy, config); fatal for
     *  cells the spec's filter skipped (their results are empty). */
    const CellRecord &
    at(std::size_t workload, std::size_t policy,
       std::size_t config = 0) const;

    /** Record by axis labels. */
    const CellRecord &at(const std::string &workload,
                         const std::string &policy,
                         std::size_t config = 0) const;

    const SimResult &
    result(const std::string &workload, const std::string &policy,
           std::size_t config = 0) const
    {
        return at(workload, policy, config).result();
    }

    /** Fig. 6-style speedup of @p policy over @p baseline (percent). */
    double
    speedupPercent(const std::string &workload,
                   const std::string &baseline,
                   const std::string &policy, std::size_t config = 0,
                   std::size_t baseline_config = 0) const
    {
        return CoDesignPipeline::speedupPercent(
            result(workload, baseline, baseline_config),
            result(workload, policy, config));
    }

    double wallSeconds = 0.0;      //!< Grid execution wall time.
    unsigned threadsUsed = 1;
    std::uint64_t profileCollections = 0; //!< Cache fills this run.
    std::uint64_t profileHits = 0;        //!< Cache hits this run.

    /** @name Failure / recovery tallies for this run */
    /** @{ */
    std::uint64_t cellsFailed = 0;   //!< Final error rows.
    std::uint64_t cellsRetried = 0;  //!< Cells that needed >1 attempt
                                     //!< and ultimately succeeded.
    std::uint64_t cellsResumed = 0;  //!< Replayed from the journal.
    std::uint64_t failedAttempts = 0;//!< Individual attempts that threw.
    /** @} */

  private:
    ExperimentSpec spec_;
    std::vector<CellRecord> cells_;
};

namespace detail {
struct RunState;
} // namespace detail

/**
 * Handle to a submitted-but-possibly-unfinished grid.  wait()
 * blocks until every cell ran, feeds the sinks (on the waiting
 * thread, in deterministic cell order) and yields the results;
 * it consumes the handle and must be called exactly once.  The
 * owning ExperimentRunner must outlive the handle.
 */
class PendingRun
{
  public:
    PendingRun() = default;
    PendingRun(PendingRun &&) = default;
    PendingRun &operator=(PendingRun &&) = default;

    /**
     * Block until the grid completed, then finalize.  Under
     * OnError::Mode::Abort (the default), a failed cell makes wait()
     * throw that cell's SimError -- of the failed cells, the one
     * with the lowest deterministic index -- without feeding the
     * sinks (no partial BENCH files).  Skip/Retry modes return
     * normally with error rows instead.
     */
    ExperimentResults wait();

    /** Whether every cell (and workload build) has finished. */
    bool done() const;

    bool valid() const { return state_ != nullptr; }

  private:
    friend class ExperimentRunner;
    explicit PendingRun(std::shared_ptr<detail::RunState> state) :
        state_(std::move(state))
    {}

    std::shared_ptr<detail::RunState> state_;
};

/**
 * Executor for experiment grids on a persistent worker pool.  The
 * pool (threads() workers) is created on first use and reused by
 * every subsequent submit()/run(); workload builds and cells both
 * ride it.
 */
class ExperimentRunner
{
  public:
    /** @p threads = 0 means TRRIP_JOBS from the environment, else the
     *  hardware concurrency. */
    explicit ExperimentRunner(unsigned threads = 0);
    ~ExperimentRunner();

    /**
     * Enqueue @p spec on the pool and return without blocking, so
     * multiple specs can be in flight at once (rows steal across
     * them at pool-item granularity).  The sinks are fed by wait().
     */
    PendingRun submit(const ExperimentSpec &spec,
                      const std::vector<ResultSink *> &sinks = {});

    /** Run @p spec to completion; sinks are fed in cell order. */
    ExperimentResults
    run(const ExperimentSpec &spec,
        const std::vector<ResultSink *> &sinks = {})
    {
        return submit(spec, sinks).wait();
    }

    /** The shared profile cache (persists across run() calls). */
    ProfileCache &profiles() { return profiles_; }

    unsigned threads() const { return threads_; }

    /**
     * Per-cell deadline in milliseconds (0 disables).  Defaults to
     * defaultCellTimeoutMs().  A row running K
     * lanes gets K times the deadline; an overrunning row is
     * cooperatively cancelled and each of its lanes fails with
     * SimError(Timeout), subject to the spec's OnError policy like
     * any other contained failure.
     */
    void setCellTimeout(std::uint64_t ms)
    { ensurePool().setItemTimeout(ms); }

    /**
     * TRRIP_JOBS from the environment when it is a whole positive
     * decimal count that fits unsigned, else hardware concurrency.
     */
    static unsigned defaultJobs();

    /**
     * TRRIP_CELL_TIMEOUT_MS from the environment when it is a whole
     * positive decimal count of milliseconds that fits std::uint64_t,
     * else 0 (no deadline): "1e3" and "150ms" are ignored, not read
     * as 1 and 150.
     */
    static std::uint64_t defaultCellTimeoutMs();

  private:
    WorkerPool &ensurePool();

    unsigned threads_;
    ProfileCache profiles_;
    std::once_flag poolOnce_;
    // Last member: its destructor drains the workers while every
    // other member (the profile cache in particular) is still alive.
    std::unique_ptr<WorkerPool> pool_;
};

} // namespace trrip::exp

#endif // TRRIP_EXP_RUNNER_HH
