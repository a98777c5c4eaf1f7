/**
 * @file
 * Persistent work-stealing worker pool for the experiment layer.
 *
 * The pool owns N long-lived threads and a FIFO list of active
 * batches.  A batch is an indexed set of items striped round-robin
 * across cache-line-padded per-shard deques: owners pop their own
 * front (preserving grid order as a locality heuristic), idle workers
 * steal from other shards' backs, and a worker that drains every
 * shard of the oldest batch moves on to the next batch -- so several
 * experiment specs can be in flight at once with item-granularity
 * stealing across them.  Batches only express *scheduling*; result
 * placement is by item index, so output stays deterministic and
 * independent of thread count (the bit-identical-across-TRRIP_JOBS
 * contract of the runner).
 *
 * Each worker owns an Arena handed to every item it executes
 * (WorkerContext), giving per-worker memory isolation for objects the
 * item carves out of it.  Arenas are recycled by resetArenasIfIdle(),
 * which is a no-op unless the pool is provably quiescent: a batch
 * leaves the active list only after its last item (and its
 * completion callback, where callers destroy arena-carved objects)
 * has finished, so an empty active list means no worker is executing
 * and no caller object still lives in an arena.
 *
 * Failure containment: the pool enforces a success-or-error item
 * contract.  Anything an item throws is caught at the item boundary,
 * recorded on the batch (failures()), and the batch keeps draining --
 * one bad cell never terminates a worker or aborts sibling items.
 * Deadlines ride the same contract: setItemTimeout() arms a lazily
 * spawned watchdog thread that flips the running worker's cooperative
 * CancelToken (handed to items via WorkerContext) when an item
 * overruns; the computation polls the token at its own batch
 * boundaries and throws SimError(Timeout), which is then just another
 * contained item failure.  No detached threads, no pthread_cancel.
 */

#ifndef TRRIP_EXP_POOL_HH
#define TRRIP_EXP_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/arena.hh"
#include "util/error.hh"

namespace trrip::exp {

/** What a pool worker passes to every item it executes. */
struct WorkerContext
{
    unsigned worker = 0;     //!< Stable id in [0, threads()).
    Arena *arena = nullptr;  //!< The worker's private arena.
    /** The worker's deadline token; poll and throw to honor it. */
    const CancelToken *cancel = nullptr;
};

class WorkerPool
{
  public:
    using ItemFn = std::function<void(std::size_t, WorkerContext &)>;

    /** One submitted set of items; wait() blocks until all ran. */
    class Batch
    {
      public:
        void wait();
        bool done() const;

        /**
         * Items whose fn threw, with the captured error, in the
         * order the failures were observed (scheduling-dependent;
         * callers wanting determinism sort by item index).  Complete
         * once wait() returned; safe but possibly partial before.
         */
        std::vector<std::pair<std::size_t, SimError>> failures() const;

      private:
        friend class WorkerPool;

        Batch(std::size_t items, std::size_t width, ItemFn fn,
              std::function<void()> on_complete);

        /** Pop one item for @p worker: own shard front first, then
         *  steal from the other shards' backs. */
        bool pop(std::size_t worker, std::size_t &out);

        void noteFailure(std::size_t item, SimError error);

        struct alignas(kCacheLineBytes) Shard
        {
            std::mutex mutex;
            std::deque<std::size_t> items;
        };

        std::vector<Shard> shards_;
        ItemFn fn_;
        std::function<void()> onComplete_;
        std::size_t remaining_;       // Guarded by doneMutex_.
        /** Contained item failures (guarded by doneMutex_). */
        std::vector<std::pair<std::size_t, SimError>> failures_;
        mutable std::mutex doneMutex_;
        std::condition_variable doneCv_;
        bool complete_ = false;
    };

    /** Spawns all @p threads workers up front (>= 1). */
    explicit WorkerPool(unsigned threads);

    /** Joins every worker; all batches must be complete. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned threads() const { return static_cast<unsigned>(
        slots_.size()); }

    /**
     * Enqueue @p items invocations of @p fn, striped over
     * min(threads, width_cap, items) shards (width_cap 0 = threads).
     * @p on_complete, if set, runs on the worker that finishes the
     * last item, before the batch is retired from the pool -- the
     * hook for destroying arena-carved objects while the quiescence
     * invariant of resetArenasIfIdle() still sees the batch active.
     * An empty batch completes (and runs @p on_complete) inline.
     */
    std::shared_ptr<Batch>
    submit(std::size_t items, ItemFn fn, unsigned width_cap = 0,
           std::function<void()> on_complete = nullptr);

    /**
     * Recycle every worker arena iff no batch is active (see file
     * comment); returns whether the reset happened.
     */
    bool resetArenasIfIdle();

    /**
     * Per-item deadline in milliseconds (0 disables).  Applies to
     * items that start after the call; lazily spawns the watchdog
     * thread on the first nonzero timeout.
     */
    void setItemTimeout(std::uint64_t ms);

    /**
     * Restart worker @p worker's deadline clock at @p scale item
     * timeouts and clear its cancel token.  For callers that run
     * several attempts of a computation inside ONE pool item (the
     * runner's retry loop): without the re-arm, attempt 2 would
     * inherit attempt 1's nearly-expired (or already-fired) deadline.
     * An item that computes several cells at once (the runner's
     * policy lanes) scales the deadline by their count.  Must be
     * called from the worker's own item fn.
     */
    void rearmDeadline(unsigned worker, unsigned scale = 1);

  private:
    struct WorkerSlot
    {
        alignas(kCacheLineBytes) Arena arena;
        /** Cooperative deadline token handed to items. */
        CancelToken cancel;
        /** Guards deadline/running against the watchdog. */
        std::mutex deadlineMutex;
        std::chrono::steady_clock::time_point deadline{};
        bool running = false;  //!< Deadline armed for a live item.
    };

    void workerMain(unsigned id);
    void finishItem(const std::shared_ptr<Batch> &batch);
    void armDeadline(unsigned id, unsigned scale);
    void disarmDeadline(unsigned id);
    void watchdogMain();

    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::list<std::shared_ptr<Batch>> active_; // FIFO submit order.
    std::uint64_t epoch_ = 0; // Bumped on submit; guards lost wakeups.
    bool stop_ = false;

    std::atomic<std::uint64_t> itemTimeoutMs_{0};
    /** Watchdog thread state (lazily spawned; joined after workers,
     *  so deadlines stay enforced while the pool drains at
     *  shutdown). */
    std::thread watchdog_;
    std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;
};

} // namespace trrip::exp

#endif // TRRIP_EXP_POOL_HH
