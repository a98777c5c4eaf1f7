/**
 * @file
 * Process-wide cache of PGO training profiles.
 *
 * A training profile depends only on (workload identity, training
 * input, profile budget) -- not on the replacement policy or cache
 * configuration under evaluation -- so a grid sweep needs exactly one
 * instrumented run per workload, not one per cell.  The built proxy
 * workloads and the trace indexes are cached the same way.  The cache
 * is thread-safe and collection is de-duplicated: concurrent requests
 * for the same key block on one collection instead of racing to
 * repeat it.
 */

#ifndef TRRIP_EXP_PROFILE_CACHE_HH
#define TRRIP_EXP_PROFILE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/simulator.hh"
#include "trace/replay.hh"

namespace trrip::exp {

/** Shared, de-duplicated collection of training profiles. */
class ProfileCache
{
  public:
    /**
     * The training profile for @p workload at @p profile_instructions,
     * collected on first use.  The key is the workload's name, its
     * training input (seed and Zipf skew), its structural size, and
     * the budget; everything else (policy, cache geometry, layout
     * options) does not influence the instrumented run.  A collection
     * polls @p cancel (the calling cell's deadline token, if any); a
     * cancelled one throws SimError(Timeout) and leaves the entry
     * empty, so the next caller collects afresh.
     */
    std::shared_ptr<const Profile>
    get(const SyntheticWorkload &workload,
        InstCount profile_instructions,
        const CancelToken *cancel = nullptr);

    /**
     * The shared TraceIndex for the trace file at @p path, built on
     * first use.  A trace's index -- blocks, one-pass profile, pseudo
     * program -- is the trace analogue of a training profile: a pure
     * function of the file, independent of policy and configuration,
     * so a grid needs exactly one pre-pass per trace.  Counted in the
     * same collections()/hits() statistics.
     */
    std::shared_ptr<const trace::TraceIndex>
    traceIndex(const std::string &path);

    /**
     * The workload @p params builds, built on first use and kept for
     * the cache's life, as its profiles are.  The key is every field
     * of @p params, so labels that resolve to the same parameters
     * share one build and any difference builds anew.  Not counted in
     * collections()/hits().
     */
    std::shared_ptr<const SyntheticWorkload>
    workload(const WorkloadParams &params);

    /** Instrumented runs actually executed (one per distinct key). */
    std::uint64_t
    collections() const
    {
        return collections_.load(std::memory_order_relaxed);
    }

    /** Requests served from an already-collected profile. */
    std::uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

  private:
    /** One cached value; its mutex serializes the first build. */
    template <typename T>
    struct Entry
    {
        std::mutex mutex;
        std::shared_ptr<const T> value;
    };

    template <typename T, typename Key = std::string>
    using Entries = std::map<Key, std::shared_ptr<Entry<T>>>;

    static std::string key(const SyntheticWorkload &workload,
                           InstCount profile_instructions);

    /**
     * The value of @p entries at @p key, built by @p build on first
     * use and counted as a collection, else counted as a hit
     * (workloads count as neither).
     */
    template <typename T, typename Key, typename Build>
    std::shared_ptr<const T> lookup(Entries<T, Key> &entries,
                                    const Key &key, Build &&build);

    std::mutex mutex_;
    Entries<Profile> entries_;
    Entries<trace::TraceIndex> traceEntries_;
    Entries<SyntheticWorkload, WorkloadParams> workloadEntries_;
    /** Destructive-interference padding unit (a conservative constant:
     *  std::hardware_destructive_interference_size triggers ABI
     *  warnings on GCC and is unavailable on some libc++ builds). */
    static constexpr std::size_t kCacheLineBytes = 64;

    // Statistics only (no ordering is derived from them), bumped from
    // every worker at once: relaxed, and each on its own cache line
    // so a hit on one core never invalidates a collection elsewhere.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> collections_{0};
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> hits_{0};
};

} // namespace trrip::exp

#endif // TRRIP_EXP_PROFILE_CACHE_HH
