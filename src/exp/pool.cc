#include "exp/pool.hh"

#include <algorithm>

#include "util/logging.hh"

namespace trrip::exp {

WorkerPool::Batch::Batch(std::size_t items, std::size_t width,
                         ItemFn fn, std::function<void()> on_complete)
    : shards_(width), fn_(std::move(fn)),
      onComplete_(std::move(on_complete)), remaining_(items)
{
    for (std::size_t i = 0; i < items; ++i)
        shards_[i % width].items.push_back(i);
}

bool
WorkerPool::Batch::pop(std::size_t worker, std::size_t &out)
{
    const std::size_t width = shards_.size();
    const std::size_t own = worker % width;
    for (std::size_t k = 0; k < width; ++k) {
        const std::size_t victim = (own + k) % width;
        Shard &shard = shards_[victim];
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.items.empty())
            continue;
        if (k == 0) {
            out = shard.items.front();
            shard.items.pop_front();
        } else {
            out = shard.items.back();
            shard.items.pop_back();
        }
        return true;
    }
    return false;
}

void
WorkerPool::Batch::wait()
{
    std::unique_lock<std::mutex> lock(doneMutex_);
    doneCv_.wait(lock, [&] { return complete_; });
}

bool
WorkerPool::Batch::done() const
{
    std::lock_guard<std::mutex> lock(doneMutex_);
    return complete_;
}

std::vector<std::pair<std::size_t, SimError>>
WorkerPool::Batch::failures() const
{
    std::lock_guard<std::mutex> lock(doneMutex_);
    return failures_;
}

void
WorkerPool::Batch::noteFailure(std::size_t item, SimError error)
{
    std::lock_guard<std::mutex> lock(doneMutex_);
    failures_.emplace_back(item, std::move(error));
}

WorkerPool::WorkerPool(unsigned threads)
{
    const unsigned n = std::max(1u, threads);
    slots_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        slots_.push_back(std::make_unique<WorkerSlot>());
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerMain(i); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        ++epoch_;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    // Watchdog joins after the workers: deadlines stay enforced while
    // the pool drains in-flight items at shutdown (a wedged item
    // would otherwise make the join above unbounded).
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(watchdogMutex_);
            watchdogStop_ = true;
        }
        watchdogCv_.notify_all();
        watchdog_.join();
    }
}

void
WorkerPool::setItemTimeout(std::uint64_t ms)
{
    itemTimeoutMs_.store(ms, std::memory_order_relaxed);
    if (ms == 0)
        return;
    std::lock_guard<std::mutex> lock(watchdogMutex_);
    if (!watchdog_.joinable() && !watchdogStop_)
        watchdog_ = std::thread([this] { watchdogMain(); });
}

void
WorkerPool::armDeadline(unsigned id, unsigned scale)
{
    const std::uint64_t ms =
        itemTimeoutMs_.load(std::memory_order_relaxed) * scale;
    WorkerSlot &slot = *slots_[id];
    std::lock_guard<std::mutex> lock(slot.deadlineMutex);
    // Always clear the token: a cancellation that fired after the
    // previous item's last poll must not leak into this item.
    slot.cancel.rearm();
    slot.running = ms > 0;
    if (ms > 0) {
        slot.deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ms);
    }
}

void
WorkerPool::disarmDeadline(unsigned id)
{
    WorkerSlot &slot = *slots_[id];
    std::lock_guard<std::mutex> lock(slot.deadlineMutex);
    slot.running = false;
}

void
WorkerPool::rearmDeadline(unsigned worker, unsigned scale)
{
    armDeadline(worker, scale);
}

void
WorkerPool::watchdogMain()
{
    std::unique_lock<std::mutex> lock(watchdogMutex_);
    while (!watchdogStop_) {
        // Poll at a fraction of the timeout, floored/capped so a tiny
        // timeout is still caught promptly and a huge one does not
        // spin.
        const std::uint64_t ms =
            itemTimeoutMs_.load(std::memory_order_relaxed);
        const std::uint64_t poll =
            ms == 0 ? 50 : std::max<std::uint64_t>(
                               1, std::min<std::uint64_t>(ms / 4, 50));
        watchdogCv_.wait_for(lock, std::chrono::milliseconds(poll));
        if (watchdogStop_ || ms == 0)
            continue;
        const auto now = std::chrono::steady_clock::now();
        for (auto &slot : slots_) {
            std::lock_guard<std::mutex> dl(slot->deadlineMutex);
            if (slot->running && now >= slot->deadline)
                slot->cancel.cancel();
        }
    }
}

std::shared_ptr<WorkerPool::Batch>
WorkerPool::submit(std::size_t items, ItemFn fn, unsigned width_cap,
                   std::function<void()> on_complete)
{
    const std::size_t width = std::max<std::size_t>(
        1, std::min({static_cast<std::size_t>(threads()),
                     width_cap > 0 ? static_cast<std::size_t>(width_cap)
                                   : static_cast<std::size_t>(threads()),
                     std::max<std::size_t>(items, 1)}));
    std::shared_ptr<Batch> batch(
        new Batch(items, width, std::move(fn), std::move(on_complete)));
    if (items == 0) {
        // Nothing to schedule: complete inline on the caller.
        if (batch->onComplete_)
            batch->onComplete_();
        batch->fn_ = nullptr;
        batch->onComplete_ = nullptr;
        std::lock_guard<std::mutex> lock(batch->doneMutex_);
        batch->complete_ = true;
        return batch;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(stop_, "submit() on a stopping WorkerPool");
        active_.push_back(batch);
        ++epoch_;
    }
    workCv_.notify_all();
    return batch;
}

void
WorkerPool::finishItem(const std::shared_ptr<Batch> &batch)
{
    {
        std::lock_guard<std::mutex> lock(batch->doneMutex_);
        if (--batch->remaining_ > 0)
            return;
    }
    // Last item: run the completion hook while the batch is still on
    // the active list (the resetArenasIfIdle() quiescence invariant),
    // then retire it.  The stored closures are dropped here because
    // they typically own shared state that in turn owns this batch --
    // keeping them would leak the cycle.
    if (batch->onComplete_)
        batch->onComplete_();
    batch->fn_ = nullptr;
    batch->onComplete_ = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_.remove(batch);
        // Wake workers parked on the claimed-but-unfinished tail of
        // this batch so they re-evaluate (and can exit at shutdown).
        ++epoch_;
    }
    workCv_.notify_all();
    {
        std::lock_guard<std::mutex> lock(batch->doneMutex_);
        batch->complete_ = true;
    }
    batch->doneCv_.notify_all();
}

void
WorkerPool::workerMain(unsigned id)
{
    WorkerContext ctx;
    ctx.worker = id;
    ctx.arena = &slots_[id]->arena;
    ctx.cancel = &slots_[id]->cancel;

    std::vector<std::shared_ptr<Batch>> snapshot;
    for (;;) {
        std::uint64_t epoch = 0;
        snapshot.clear();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                if (!active_.empty()) {
                    snapshot.assign(active_.begin(), active_.end());
                    epoch = epoch_;
                    break;
                }
                if (stop_)
                    return;
                workCv_.wait(lock);
            }
        }
        // Oldest batch first; after each executed item, re-snapshot so
        // newly submitted older-priority work is seen immediately.
        bool ran = false;
        for (const auto &batch : snapshot) {
            std::size_t item = 0;
            if (batch->pop(id, item)) {
                // The success-or-error item contract: anything the
                // item throws is recorded on the batch and the pool
                // keeps draining -- a worker thread never dies to an
                // exception (which would std::terminate the process).
                armDeadline(id, 1);
                try {
                    batch->fn_(item, ctx);
                } catch (const SimError &e) {
                    batch->noteFailure(item, e);
                } catch (const std::exception &e) {
                    batch->noteFailure(
                        item, SimError(ErrorCategory::Internal,
                                       e.what()));
                } catch (...) {
                    batch->noteFailure(
                        item, SimError(ErrorCategory::Internal,
                                       "unknown exception"));
                }
                disarmDeadline(id);
                finishItem(batch);
                ran = true;
                break;
            }
        }
        if (!ran) {
            // Every visible item is claimed; sleep until the epoch
            // moves (a submit, a batch retiring, or shutdown).
            std::unique_lock<std::mutex> lock(mutex_);
            if (epoch == epoch_)
                workCv_.wait(lock);
        }
    }
}

bool
WorkerPool::resetArenasIfIdle()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_.empty())
        return false;
    // No active batch means every item and completion hook has
    // returned, so no worker can be touching its arena (workers only
    // do so while executing an item) and no arena-carved object is
    // still alive (callers destroy them in completion hooks).
    for (auto &slot : slots_)
        slot->arena.reset();
    return true;
}

} // namespace trrip::exp
