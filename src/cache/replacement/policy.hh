/**
 * @file
 * Replacement policy base with externalized, structure-of-arrays
 * policy state.
 *
 * The cache calls onHit() for every hit, victim() when a fill finds no
 * invalid way (the policy must pick a way to evict), onFill() after the
 * new line is installed, onEvict() just before a valid line leaves the
 * cache, and onPriorityHint() when the core flags a resident line as
 * fetch-critical.  Policies own ALL of their per-line state in typed
 * SoA arrays (e.g. std::vector<std::uint8_t> of RRPVs) indexed by
 * set * ways + way; CacheLine carries none of it.  Hooks therefore
 * receive only (set, way, request) -- no line view at all.
 *
 * The hooks are plain member functions: every built-in policy passes
 * its PolicyKind to this base, and the cache's one switch over the kind
 * (Cache::dispatch, cache.hh) downcasts to the concrete final class,
 * whose hooks then inline into the cache body.  Each concrete class
 * defines onHit(), victim() and onFill(); the no-op onEvict() and
 * onPriorityHint() below serve every class that does not define its
 * own.  A new policy is a PolicyKind, its case in that switch and its
 * row in the PolicyRegistry table.
 *
 * State lifetime: Cache::fill() overwrites a way's policy state through
 * onFill(), so a policy must (re)initialize every field it owns for
 * that way on fill -- stale state from an invalidated line must never
 * leak into the next occupant.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_POLICY_HH
#define TRRIP_CACHE_REPLACEMENT_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "cache/geometry.hh"
#include "mem/request.hh"

namespace trrip {

/** Concrete class of a policy: the cache's dispatch switch. */
enum class PolicyKind : std::uint8_t {
    Lru,
    Random,
    Srrip,
    Brrip,
    Drrip,
    Ship,
    Clip,
    Emissary,
    Trrip,
};

/** Base of every replacement policy: kind, label and SoA indexing. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;
    ReplacementPolicy(const ReplacementPolicy &) = delete;
    ReplacementPolicy &operator=(const ReplacementPolicy &) = delete;

    /**
     * Canonical spec of this instance with every resolved parameter
     * spelled out, e.g. "SRRIP(bits=2)" -- what the result sinks
     * record so a row's label never under-reports the configuration
     * that produced it.  PolicyRegistry::instantiate() stores
     * PolicySpec::canonical() of the spec it built the policy from; a
     * policy constructed directly has an empty label.
     */
    const std::string &describe() const { return label_; }

    /** Concrete class, for the cache's dispatch switch. */
    PolicyKind kind() const { return kind_; }

    /** A valid line is about to be evicted (bookkeeping hook). */
    void onEvict(std::uint32_t, std::uint32_t) {}

    /**
     * The core flagged the resident line as fetch-critical (decode
     * starvation).  Only Emissary reacts.
     */
    void onPriorityHint(std::uint32_t, std::uint32_t) {}

  protected:
    ReplacementPolicy(PolicyKind kind, const CacheGeometry &geom) :
        ways_(geom.assoc),
        slots_(static_cast<std::size_t>(geom.numSets()) * geom.assoc),
        kind_(kind)
    {}

    /** SoA index of (set, way): set-major, matching the cache. */
    std::size_t
    idx(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    /** Total per-line state slots (numSets * ways). */
    std::size_t slots() const { return slots_; }

    std::uint32_t ways_;
    std::size_t slots_;

  private:
    friend class PolicyRegistry;

    PolicyKind kind_;
    std::string label_;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_POLICY_HH
