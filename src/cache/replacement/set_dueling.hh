/**
 * @file
 * Set-dueling monitor (Qureshi et al., ISCA 2007) used by DRRIP and
 * CLIP: 32 leader sets per competing policy and a 10-bit PSEL counter
 * (paper section 4.3).
 */

#ifndef TRRIP_CACHE_REPLACEMENT_SET_DUELING_HH
#define TRRIP_CACHE_REPLACEMENT_SET_DUELING_HH

#include <cstdint>

#include "util/logging.hh"
#include "util/sat_counter.hh"

namespace trrip {

/**
 * Assigns leader sets to two competing policies and tracks which is
 * winning.  Leader assignment uses the standard stride scheme: every
 * (numSets / leaders)-th set leads policy 0, and the set at half a
 * stride offset leads policy 1.
 */
class SetDueling
{
  public:
    /**
     * @param num_sets Total sets in the cache.
     * @param leaders_per_policy Requested leader sets per policy
     *        (scaled down for tiny caches).
     * @param psel_bits PSEL counter width.
     */
    SetDueling(std::uint32_t num_sets,
               std::uint32_t leaders_per_policy = 32,
               unsigned psel_bits = 10) :
        psel_(psel_bits, (1u << (psel_bits - 1)))
    {
        panic_if(num_sets == 0, "set dueling over an empty cache");
        if (num_sets < 2) {
            // Degenerate single-set cache: everything leads policy 0
            // (the duel cannot be held).
            stride_ = 1;
            return;
        }
        std::uint32_t leaders = leaders_per_policy;
        while (leaders * 2 > num_sets)
            leaders /= 2;
        if (leaders == 0)
            leaders = 1;
        stride_ = num_sets / leaders;
    }

    /** Leader constituency of a set: 0, 1, or -1 for followers. */
    int
    leaderOf(std::uint32_t set) const
    {
        const std::uint32_t phase = set % stride_;
        if (phase == 0)
            return 0;
        if (phase == stride_ / 2)
            return 1;
        return -1;
    }

    /**
     * Record a demand miss in @p set.  Misses in policy-0 leader sets
     * push PSEL up (policy 0 is doing badly); policy-1 leader misses
     * push it down.
     */
    void
    onMiss(std::uint32_t set)
    {
        const int leader = leaderOf(set);
        if (leader == 0)
            psel_.increment();
        else if (leader == 1)
            psel_.decrement();
    }

    /**
     * Policy a given set should follow right now: leaders always use
     * their own policy, followers use the PSEL winner.
     */
    int
    policyFor(std::uint32_t set) const
    {
        const int leader = leaderOf(set);
        if (leader >= 0)
            return leader;
        // High PSEL means policy 0 misses more, so followers use 1.
        return psel_.isSet() ? 1 : 0;
    }

    std::uint32_t pselValue() const { return psel_.value(); }

  private:
    std::uint32_t stride_;
    SatCounter psel_;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_SET_DUELING_HH
