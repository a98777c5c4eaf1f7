/**
 * @file
 * EMISSARY (Nagendra et al., ISCA 2023) reimplemented on our
 * infrastructure, as the paper does (section 4.3): instruction lines
 * whose misses caused decode starvation carry a priority hint; the L2
 * preserves up to P priority ways per set on top of LRU.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_EMISSARY_HH
#define TRRIP_CACHE_REPLACEMENT_EMISSARY_HH

#include <vector>

#include "cache/replacement/policy.hh"
#include "util/rng.hh"

namespace trrip {

/**
 * Priority-partitioned LRU.  Lines filled (or re-touched) by requests
 * with the starvation hint set their priority bit probabilistically
 * (the original work inserts with probability 1/2 to avoid priority
 * saturation).  The victim is the LRU line among
 * non-priority ways while at most @c priorityWays priority lines
 * exist; beyond that the whole set competes.
 *
 * Recency stamps and priority bits are SoA state of this policy; the
 * core's decode-starvation feedback arrives through onPriorityHint()
 * (CacheHierarchy::markL2Priority), which sets the bit directly --
 * the probabilistic filter applies only to hint-carrying requests.
 */
class EmissaryPolicy final : public ReplacementPolicy
{
  public:
    /**
     * @param priority_ways Maximum preserved ways per set (paper: 4 of
     *        8).
     * @param set_probability Probability a starvation hint actually
     *        sets the priority bit.
     */
    explicit EmissaryPolicy(const CacheGeometry &geom,
                            std::uint32_t priority_ways = 4,
                            double set_probability = 0.5) :
        ReplacementPolicy(PolicyKind::Emissary, geom),
        priorityWays_(priority_ways), setProbability_(set_probability),
        rng_(0xe1155a47ull), stamps_(slots(), 0), priority_(slots(), 0)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &req)
    {
        const std::size_t i = idx(set, way);
        stamps_[i] = ++tick_;
        if (req.priority && req.isInst() && !priority_[i])
            priority_[i] = rng_.chance(setProbability_) ? 1 : 0;
    }

    std::uint32_t
    victim(std::uint32_t set, const MemRequest &)
    {
        const std::uint64_t *stamps = &stamps_[idx(set, 0)];
        const std::uint8_t *prio = &priority_[idx(set, 0)];

        std::uint32_t prio_count = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            prio_count += prio[w] ? 1 : 0;

        const bool protect = prio_count > 0 &&
                             prio_count <= priorityWays_;
        std::uint32_t best = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (protect && prio[w])
                continue;
            if (best == ways_ || stamps[w] < stamps[best])
                best = w;
        }
        if (best == ways_) {
            // Every way is priority: fall back to global LRU.
            best = 0;
            for (std::uint32_t w = 1; w < ways_; ++w) {
                if (stamps[w] < stamps[best])
                    best = w;
            }
        }
        return best;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &req)
    {
        const std::size_t i = idx(set, way);
        stamps_[i] = ++tick_;
        priority_[i] = (req.priority && req.isInst() &&
                        rng_.chance(setProbability_))
                           ? 1
                           : 0;
    }

    void
    onPriorityHint(std::uint32_t set, std::uint32_t way)
    {
        priority_[idx(set, way)] = 1;
    }

    /** Priority bit of (set, way) -- tests and analysis. */
    bool
    priorityOf(std::uint32_t set, std::uint32_t way) const
    {
        return priority_[idx(set, way)] != 0;
    }

  private:
    std::uint32_t priorityWays_;
    double setProbability_;
    Rng rng_;
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> stamps_;     //!< LRU recency stamps.
    std::vector<std::uint8_t> priority_;    //!< Preserved-line bits.
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_EMISSARY_HH
