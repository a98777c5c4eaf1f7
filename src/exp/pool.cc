#include "exp/pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <thread>

namespace trrip::exp {

WorkerPool::WorkerPool(unsigned threads, std::uint64_t item_timeout_ms) :
    itemTimeoutMs_(item_timeout_ms), slots_(threads)
{}

WorkerPool::Failures
WorkerPool::run(std::size_t items, const ItemFn &fn)
{
    const std::size_t width = std::min(slots_.size(), items);
    std::atomic<std::size_t> next{0};
    std::mutex failures_mutex;
    Failures failures;
    const auto note = [&](std::size_t item, SimError error) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.emplace_back(item, std::move(error));
    };
    const auto work = [&](unsigned id) {
        WorkerContext ctx;
        ctx.worker = id;
        ctx.cancel = &slots_[id].cancel;
        for (std::size_t item = next++; item < items; item = next++) {
            // The success-or-error item contract: anything the item
            // throws is recorded and the worker claims its next item
            // -- a worker thread never dies to an exception (which
            // would std::terminate the process).
            rearmDeadline(id);
            try {
                fn(item, ctx);
            } catch (const SimError &e) {
                note(item, e);
            } catch (const std::exception &e) {
                note(item, SimError(ErrorCategory::Internal, e.what()));
            } catch (...) {
                note(item, SimError(ErrorCategory::Internal,
                                    "unknown exception"));
            }
            disarmDeadline(id);
        }
    };

    // Declared before the workers, so it is stopped and joined after
    // them: deadlines stay enforced while the workers drain (a wedged
    // item would otherwise make their join unbounded).
    std::jthread watchdog;
    if (itemTimeoutMs_ > 0 && width > 0)
        watchdog = std::jthread([this](std::stop_token stop) {
            watch(stop);
        });
    {
        // Worker 0 is the calling thread: a one-worker run starts no
        // thread.
        std::vector<std::jthread> workers;
        for (unsigned id = 1; id < width; ++id)
            workers.emplace_back(work, id);
        if (width > 0)
            work(0);
    }
    std::ranges::sort(failures, {}, &Failures::value_type::first);
    return failures;
}

void
WorkerPool::rearmDeadline(unsigned worker, unsigned scale)
{
    const std::uint64_t ms = itemTimeoutMs_ * scale;
    WorkerSlot &slot = slots_[worker];
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
WorkerPool::disarmDeadline(unsigned worker)
{
    WorkerSlot &slot = slots_[worker];
    std::lock_guard<std::mutex> lock(slot.deadlineMutex);
    slot.running = false;
}

void
WorkerPool::watch(std::stop_token stop)
{
    // Poll at a fraction of the timeout, floored/capped so a tiny
    // timeout is still caught promptly and a huge one does not spin.
    const std::chrono::milliseconds poll(
        std::clamp<std::uint64_t>(itemTimeoutMs_ / 4, 1, 50));
    // Only the stop request wakes the wait early.
    std::mutex mutex;
    std::condition_variable_any wake;
    std::unique_lock<std::mutex> lock(mutex);
    while (!wake.wait_for(lock, stop, poll,
                          [&] { return stop.stop_requested(); })) {
        const auto now = std::chrono::steady_clock::now();
        for (WorkerSlot &slot : slots_) {
            std::lock_guard<std::mutex> dl(slot.deadlineMutex);
            if (slot.running && now >= slot.deadline)
                slot.cancel.cancel();
        }
    }
}

} // namespace trrip::exp
