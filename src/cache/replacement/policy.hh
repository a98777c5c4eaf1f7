/**
 * @file
 * Replacement policy interface with externalized, structure-of-arrays
 * policy state.
 *
 * The cache calls onHit() for every hit, victim() when a fill finds no
 * invalid way (the policy must pick a way to evict), onFill() after the
 * new line is installed, and onEvict() just before a valid line leaves
 * the cache.  Policies own ALL of their per-line state in typed SoA
 * arrays (e.g. std::vector<std::uint8_t> of RRPVs) indexed by
 * set * ways + way; CacheLine carries none of it.  Hooks therefore
 * receive only (set, way, request) -- no line view at all.
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

/**
 * Concrete policy identity used for compile-time specialization of the
 * Cache hot path: Cache::access()/fill() switch on the kind once and
 * run a template instantiation in which the policy hooks are inlined
 * non-virtual calls (every concrete policy class is final).  Policies
 * registered from outside this translation set report Generic and take
 * the virtual-dispatch fallback path.
 */
enum class PolicyKind : std::uint8_t {
    Generic,
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

/** Abstract cache replacement policy owning SoA per-line state. */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(const CacheGeometry &geom) :
        geom_(geom), ways_(geom.assoc),
        slots_(static_cast<std::size_t>(geom.numSets()) * geom.assoc)
    {}
    virtual ~ReplacementPolicy() = default;

    /**
     * Canonical spec of this instance with every resolved parameter
     * spelled out, e.g. "SRRIP(bits=2)" -- what the result sinks
     * record so a row's label never under-reports the configuration
     * that produced it.  PolicyRegistry::instantiate() stores
     * PolicyRegistry::canonical() of the spec it built the policy
     * from; a policy constructed directly has an empty label.
     */
    const std::string &describe() const { return label_; }

    /** Concrete identity for the cache's compile-time dispatch. */
    virtual PolicyKind kind() const { return PolicyKind::Generic; }

    /** A request hit way @p way of set @p set. */
    virtual void onHit(std::uint32_t set, std::uint32_t way,
                       const MemRequest &req) = 0;

    /**
     * Pick the way to evict from a full set.  Only called when every
     * way is valid.  May mutate policy state (e.g. RRIP aging).
     */
    virtual std::uint32_t victim(std::uint32_t set,
                                 const MemRequest &req) = 0;

    /** A new line was installed in way @p way for @p req. */
    virtual void onFill(std::uint32_t set, std::uint32_t way,
                        const MemRequest &req) = 0;

    /** A valid line is about to be evicted (bookkeeping hook). */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        (void)set;
        (void)way;
    }

    /**
     * The core flagged the resident line as fetch-critical (decode
     * starvation).  Only Emissary reacts; default is a no-op.
     */
    virtual void
    onPriorityHint(std::uint32_t set, std::uint32_t way)
    {
        (void)set;
        (void)way;
    }

    const CacheGeometry &geometry() const { return geom_; }

  protected:
    /** SoA index of (set, way): set-major, matching the cache. */
    std::size_t
    idx(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    /** Total per-line state slots (numSets * ways). */
    std::size_t slots() const { return slots_; }

    CacheGeometry geom_;
    std::uint32_t ways_;
    std::size_t slots_;

  private:
    friend class PolicyRegistry;

    std::string label_;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_POLICY_HH
