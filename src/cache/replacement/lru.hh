/**
 * @file
 * Least-recently-used replacement (paper baseline for L1s, SLC, and the
 * LRU bar of Fig. 6).  Registered as "LRU" in the PolicyRegistry; it
 * has no tunable parameters.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_LRU_HH
#define TRRIP_CACHE_REPLACEMENT_LRU_HH

#include <bit>
#include <cstring>
#include <vector>

#include "cache/replacement/policy.hh"

namespace trrip {

/**
 * Exact LRU as a per-set rank permutation, one byte per way.
 *
 * Every hit/fill promotes its way to rank 0 (MRU) and ages each way
 * that was more recent by one; the victim is the unique way at rank
 * ways-1.  This is the recency-stamp formulation with the stamps
 * compressed to their rank order, so the victim choice is identical
 * to "first minimum stamp" while a 16-way set costs 16 bytes instead
 * of 128 -- the SLC's victim scan and the L1s' hit updates stay
 * inside one or two host cache lines.  The promote and the victim
 * scan are branch-free SWAR over 8-byte chunks (ranks stay below 128,
 * so per-byte borrows and carries never cross lanes).
 *
 * LRU runs in the L1s and SLC, which see the bulk of all accesses:
 * the cache entry points' inline LRU arm (cache.hh) inlines these
 * updates into the hierarchy's access and fill paths.
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    explicit LruPolicy(const CacheGeometry &geom) :
        ReplacementPolicy(PolicyKind::Lru, geom),
        stride_((geom.assoc + 7u) & ~7u),
        ranks_(static_cast<std::size_t>(geom.numSets()) * stride_)
    {
        // Byte ranks + SWAR lanes bound the supported associativity;
        // every modeled cache is far below this.
        fatal_if(ways_ > 127, "LRU: associativity above 127 ways "
                 "is not supported by the rank encoding");
        // Identity permutation; SWAR padding lanes hold 127 so they
        // never age (every real rank is below 127).
        for (std::size_t base = 0; base < ranks_.size();
             base += stride_) {
            for (std::uint32_t w = 0; w < stride_; ++w) {
                ranks_[base + w] = static_cast<std::uint8_t>(
                    w < ways_ ? w : 127);
            }
        }
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &)
    {
        promote(set, way);
    }

    /** The one way at rank ways-1 (padding lanes hold 127). */
    std::uint32_t
    victim(std::uint32_t set, const MemRequest &)
    {
        const std::uint8_t *ranks =
            &ranks_[static_cast<std::size_t>(set) * stride_];
        // XOR zeroes the lane holding the LRU rank.  Every lane is
        // below 128, so adding 0x7f sets a lane's high bit exactly
        // when the lane is nonzero, with no carry into the next one.
        const std::uint64_t want = kLanes * (ways_ - 1);
        for (std::uint32_t c = 0; c < stride_; c += 8) {
            std::uint64_t x;
            std::memcpy(&x, ranks + c, 8);
            const std::uint64_t zero =
                ~((x ^ want) + kLanes * 0x7f) & kHigh;
            if (zero != 0) {
                const int bit = std::endian::native == std::endian::little
                                    ? std::countr_zero(zero)
                                    : std::countl_zero(zero);
                return c + static_cast<std::uint32_t>(bit) / 8;
            }
        }
        return 0;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &)
    {
        promote(set, way);
    }

  private:
    /** One in every byte lane, and the lanes' high bits. */
    static constexpr std::uint64_t kLanes = 0x0101010101010101ull;
    static constexpr std::uint64_t kHigh = kLanes * 0x80;

    /** Make @p way the MRU of @p set, ageing more-recent ways by 1. */
    [[gnu::always_inline]] void
    promote(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *ranks =
            &ranks_[static_cast<std::size_t>(set) * stride_];
        const std::uint8_t old = ranks[way];
        // Per-byte "+1 where rank < old": with all lanes below 128,
        // (x | H) - old replicates x - old + 128 per byte with no
        // cross-lane borrow, so the high bit is set exactly when
        // x >= old.
        const std::uint64_t old_b = kLanes * old;
        for (std::uint32_t c = 0; c < stride_; c += 8) {
            std::uint64_t x;
            std::memcpy(&x, ranks + c, 8);
            const std::uint64_t ge = (x | kHigh) - old_b;
            x += (~ge & kHigh) >> 7;
            std::memcpy(ranks + c, &x, 8);
        }
        ranks[way] = 0;
    }

    std::uint32_t stride_;          //!< Ways rounded up to SWAR lanes.
    std::vector<std::uint8_t> ranks_;   //!< Per-way recency rank.
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_LRU_HH
