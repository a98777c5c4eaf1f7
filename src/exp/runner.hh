/**
 * @file
 * Parallel experiment execution.
 *
 * The runner expands an ExperimentSpec into cells, resolves proxy
 * workloads, training profiles and trace indexes through a shared
 * ProfileCache, and executes the grid's rows, in grid order, as one
 * queue of items on a WorkerPool: worker 0 is the thread that called
 * run(), and the threads of the others are started and joined by that
 * run(), so no thread outlives a call.  A row -- the live cells
 * sharing a workload and a config -- runs as the policy lanes of one
 * engine: every row, whether a proxy, a `trace:` or an `mc:` bundle,
 * is a list of core labels run by runMultiCore() (sim/multicore.hh),
 * so each core's event stream, MMU and branch unit are simulated once
 * per row (custom-runCell specs keep one cell per item).  A grid with
 * fewer rows than workers therefore runs fewer workers.  Results are
 * stored by deterministic cell index and fed to the sinks in that
 * order, so the output is bit-identical regardless of thread count or
 * scheduling.
 *
 * Failure semantics (see exp/spec.hh): a cell that throws is a
 * contained outcome, not a crash.  The runner retries or skips it
 * per ExperimentSpec::onError, records the final error on the
 * CellRecord (the sinks' schema-stable error rows), enforces
 * deadlines through the pool watchdog (TRRIP_CELL_TIMEOUT_MS /
 * setCellTimeout, per cell: a row gets one timeout per pending
 * lane), and streams completed cells to an optional JSONL run
 * journal from which a rerun spec resumes byte-identically
 * (exp/journal.hh).  All of it stays per cell when a row runs as
 * lanes: a retry re-runs only the row's failed cells.
 */

#ifndef TRRIP_EXP_RUNNER_HH
#define TRRIP_EXP_RUNNER_HH

#include <cstdint>
#include <vector>

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

/**
 * Executor for experiment grids.  Each run() runs its own workers
 * (at most threads(), and no more than the grid has rows): the first
 * on the calling thread, the others on threads it starts and joins
 * before it returns; its one queue holds the grid's rows.
 */
class ExperimentRunner
{
  public:
    /** @p threads = 0 means TRRIP_JOBS from the environment, else the
     *  hardware concurrency. */
    explicit ExperimentRunner(unsigned threads = 0);

    /**
     * Run @p spec to completion, then feed the sinks (on the calling
     * thread, in deterministic cell order) and return the results.
     * Under OnError::Mode::Abort (the default), a failed cell makes
     * run() throw that cell's SimError -- of the failed cells, the
     * one with the lowest deterministic index -- without feeding the
     * sinks (no partial BENCH files).  Skip/Retry modes return
     * normally with error rows instead.
     */
    ExperimentResults run(const ExperimentSpec &spec,
                          const std::vector<ResultSink *> &sinks = {});

    /** The shared profile cache (persists across run() calls). */
    ProfileCache &profiles() { return profiles_; }

    unsigned threads() const { return threads_; }

    /**
     * Per-cell deadline in milliseconds (0 disables) for later runs.
     * Defaults to defaultCellTimeoutMs().  A row running K lanes gets
     * K times the deadline; an overrunning row is cooperatively
     * cancelled and each of its lanes fails with SimError(Timeout),
     * subject to the spec's OnError policy like any other contained
     * failure.
     */
    void setCellTimeout(std::uint64_t ms) { cellTimeoutMs_ = ms; }

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
    unsigned threads_;
    std::uint64_t cellTimeoutMs_;
    ProfileCache profiles_;
};

} // namespace trrip::exp

#endif // TRRIP_EXP_RUNNER_HH
