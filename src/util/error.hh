/**
 * @file
 * Structured failure semantics for the experiment stack.
 *
 * SimError is the one exception type the engine throws for *contained*
 * failures: conditions caused by a particular input or cell (a corrupt
 * trace file, a cell past its deadline, an injected chaos fault) that
 * must fail that unit of work without taking down the grid.
 * WorkerPool catches at the item boundary and ExperimentRunner turns
 * the error into a per-cell outcome governed by
 * ExperimentSpec::onError; panic()/fatal() remain what they were --
 * process-fatal invariant violations and unusable configuration.
 *
 * Every SimError carries a category (machine-readable, stable names
 * for the sinks' error rows) and a context chain: short frames pushed
 * while the error unwinds ("cell 17: workload trace:a.trrtrc, policy
 * SRRIP"), oldest first, so the surfaced message reads
 * innermost-failure-first like a backtrace.
 * Messages must stay deterministic for a given outcome (no pointers,
 * wall times or retry-dependent text): error rows are part of the
 * byte-reproducible BENCH contract.
 *
 * CancelToken is the cooperative-cancellation half of the same story:
 * the WorkerPool watchdog sets it when a cell overruns its deadline
 * (TRRIP_CELL_TIMEOUT_MS), and CoreModel and the training-profile
 * run check it at event-batch boundaries, throwing SimError(Timeout)
 * from inside the loop -- no detached threads, no pthread_cancel,
 * ordinary RAII unwinding.
 */

#ifndef TRRIP_UTIL_ERROR_HH
#define TRRIP_UTIL_ERROR_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace trrip {

/** Stable failure taxonomy (the sinks' error-row "category" field). */
enum class ErrorCategory : std::uint8_t
{
    TraceCorrupt,   //!< Unusable trace input: missing, truncated, corrupt.
    Timeout,        //!< Cell exceeded its deadline (watchdog cancel).
    Injected,       //!< Deterministic chaos fault (util/fault.hh).
    Internal,       //!< Escaped std::exception wrapped at a boundary.
};

/** Stable lower-snake name of @p category ("trace_corrupt", ...). */
const char *errorCategoryName(ErrorCategory category);

/** A contained failure of one unit of work (see file comment). */
class SimError : public std::exception
{
  public:
    SimError(ErrorCategory category, std::string message);

    ErrorCategory category() const { return category_; }

    /** The innermost message, without category or context frames. */
    const std::string &message() const { return message_; }

    /** Context frames, innermost first. */
    const std::vector<std::string> &context() const { return context_; }

    /** Push one context frame (innermost pushed first). */
    void addContext(std::string frame);

    /** addContext for throw-site chaining:
     *  `throw SimError(...).withContext(...)`. */
    SimError &&
    withContext(std::string frame) &&
    {
        addContext(std::move(frame));
        return std::move(*this);
    }

    /** "[category] message; frame1; frame2". */
    std::string describe() const;

    /** describe(), with a lifetime tied to this error. */
    const char *what() const noexcept override { return what_.c_str(); }

  private:
    ErrorCategory category_;
    std::string message_;
    std::vector<std::string> context_;
    std::string what_;  //!< Cached describe() backing what().
};

/**
 * Cooperative cancellation flag.  The canceling side (the pool
 * watchdog) sets it; the running computation polls cancelled() at
 * natural batch boundaries and throws SimError(Timeout).  rearm()
 * clears the flag before a new unit of work (or a retry attempt)
 * starts on the same token.
 */
class CancelToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
    void rearm() { cancelled_.store(false, std::memory_order_relaxed); }

    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> cancelled_{false};
};

/**
 * The poll every cancellable loop runs at its batch boundaries: throw
 * SimError(Timeout) once @p token (null: never) has fired.  The
 * message carries no progress counters: error rows are part of the
 * byte-reproducible BENCH contract and the cancellation instant is
 * wall-clock dependent.
 */
inline void
pollCancel(const CancelToken *token)
{
    if (token && token->cancelled())
        throw SimError(ErrorCategory::Timeout, "cell deadline exceeded");
}

} // namespace trrip

#endif // TRRIP_UTIL_ERROR_HH
