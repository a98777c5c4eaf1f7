#include "exp/profile_cache.hh"

#include <type_traits>

#include "util/fault.hh"
#include "workloads/builder.hh"

namespace trrip::exp {

template <typename T, typename Key, typename Build>
std::shared_ptr<const T>
ProfileCache::lookup(Entries<T, Key> &entries, const Key &key,
                     Build &&build)
{
    // A workload is the input of a collection, not one.
    constexpr bool counted = !std::is_same_v<T, SyntheticWorkload>;
    std::shared_ptr<Entry<T>> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = entries[key];
        if (!slot)
            slot = std::make_shared<Entry<T>>();
        entry = slot;
    }
    // Not std::call_once: a build that throws out of it never releases
    // the once-flag under ThreadSanitizer's interceptor, so the next
    // caller would block forever.  A throw leaves the value null and
    // the next caller builds again.
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->value) {
        if (counted)
            hits_.fetch_add(1, std::memory_order_relaxed);
        return entry->value;
    }
    // Every row that asks shares the entry: building it draws no fault
    // in the scope of the row that happened to ask first.
    FaultInjector::Pause pause;
    entry->value = std::make_shared<const T>(build());
    if (counted)
        collections_.fetch_add(1, std::memory_order_relaxed);
    return entry->value;
}

std::shared_ptr<const Profile>
ProfileCache::get(const SyntheticWorkload &workload,
                  InstCount profile_instructions,
                  const CancelToken *cancel)
{
    return lookup(entries_,
                  std::pair(workload.params, profile_instructions), [&] {
                      return collectProfile(workload, profile_instructions,
                                            cancel);
                  });
}

std::shared_ptr<const trace::TraceIndex>
ProfileCache::traceIndex(const std::string &path)
{
    return lookup(traceEntries_, path,
                  [&] { return trace::buildTraceIndex(path); });
}

std::shared_ptr<const SyntheticWorkload>
ProfileCache::workload(const WorkloadParams &params)
{
    return lookup(workloadEntries_, params,
                  [&] { return buildWorkload(params); });
}

} // namespace trrip::exp
