/**
 * @file
 * The experiment layer's worker pool: one call runs one queue.
 *
 * WorkerPool::run() runs worker 0 on the calling thread and starts
 * the others, plus a deadline watchdog when an item timeout is set,
 * and joins every one of them before it returns, so no thread
 * outlives a call.  The workers claim the queue's items from one
 * atomic cursor, in index order.  Run order is only scheduling:
 * callers place results by item index, so output stays deterministic
 * and independent of thread count (the bit-identical-across-
 * TRRIP_JOBS contract of the runner).
 *
 * Failure containment: anything an item throws is caught at the item
 * boundary and the worker claims its next item -- one bad cell never
 * terminates a worker or aborts sibling items.  run() returns the
 * caught throws in item order.  Deadlines ride the same contract: the
 * watchdog flips the running worker's cooperative CancelToken (handed
 * to items via WorkerContext) when an item overruns; the computation
 * polls the token at its own batch boundaries and throws
 * SimError(Timeout), which is then just another contained item
 * failure.  No detached threads, no pthread_cancel.
 */

#ifndef TRRIP_EXP_POOL_HH
#define TRRIP_EXP_POOL_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stop_token>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace trrip::exp {

/** What a pool worker passes to every item it executes. */
struct WorkerContext
{
    unsigned worker = 0;     //!< Stable id in [0, workers run).
    /** The worker's deadline token; poll and throw to honor it. */
    const CancelToken *cancel = nullptr;
};

class WorkerPool
{
  public:
    using ItemFn = std::function<void(std::size_t, WorkerContext &)>;
    /** Items whose fn threw, with the captured error. */
    using Failures = std::vector<std::pair<std::size_t, SimError>>;

    /**
     * A pool of up to @p threads workers whose items each get a
     * deadline of @p item_timeout_ms (0 disables deadlines).
     */
    WorkerPool(unsigned threads, std::uint64_t item_timeout_ms);

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Call @p fn for every item in [0, @p items) on min(threads,
     * items) workers: worker 0 is the calling thread, the others and
     * the watchdog (when there is a deadline) are threads started by
     * this call and joined before it returns (the watchdog last, so
     * deadlines hold while the workers drain).  Each worker claims the
     * next unclaimed item in index order.  Returns the throws caught
     * at the item boundary, in item order.
     */
    Failures run(std::size_t items, const ItemFn &fn);

    /**
     * Restart worker @p worker's deadline clock at @p scale item
     * timeouts and clear its cancel token.  For callers that run
     * several attempts of a computation inside ONE item (the runner's
     * retry loop): without the re-arm, attempt 2 would inherit
     * attempt 1's nearly-expired (or already-fired) deadline.  An item
     * that computes several cells at once (the runner's policy lanes)
     * scales the deadline by their count.  Must be called from the
     * worker's own item fn.
     */
    void rearmDeadline(unsigned worker, unsigned scale = 1);

  private:
    struct WorkerSlot
    {
        /** Cooperative deadline token handed to items. */
        CancelToken cancel;
        /** Guards deadline/running against the watchdog. */
        std::mutex deadlineMutex;
        std::chrono::steady_clock::time_point deadline{};
        bool running = false;  //!< Deadline armed for a live item.
    };

    void disarmDeadline(unsigned worker);
    void watch(std::stop_token stop);

    std::uint64_t itemTimeoutMs_;
    std::vector<WorkerSlot> slots_;
};

} // namespace trrip::exp

#endif // TRRIP_EXP_POOL_HH
