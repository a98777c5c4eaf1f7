/**
 * @file
 * Random replacement; a sanity baseline for tests and ablations.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_RANDOM_HH
#define TRRIP_CACHE_REPLACEMENT_RANDOM_HH

#include "cache/replacement/policy.hh"
#include "util/rng.hh"

namespace trrip {

/** Uniformly random victim selection (deterministic seeded stream). */
class RandomPolicy final : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(const CacheGeometry &geom,
                          std::uint64_t seed = 0xdecafbadull) :
        ReplacementPolicy(PolicyKind::Random, geom), rng_(seed)
    {}

    void
    onHit(std::uint32_t, std::uint32_t, const MemRequest &)
    {}

    std::uint32_t
    victim(std::uint32_t, const MemRequest &)
    {
        return static_cast<std::uint32_t>(rng_.below(ways_));
    }

    void
    onFill(std::uint32_t, std::uint32_t, const MemRequest &)
    {}

  private:
    Rng rng_;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_RANDOM_HH
