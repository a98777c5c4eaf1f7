/**
 * @file
 * Re-Reference Interval Prediction (RRIP) replacement family
 * (Jaleel et al., ISCA 2010): SRRIP and BRRIP, plus the shared base
 * class that TRRIP, CLIP, SHiP and DRRIP build on.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_RRIP_HH
#define TRRIP_CACHE_REPLACEMENT_RRIP_HH

#include <vector>

#include "cache/replacement/policy.hh"
#include "util/rng.hh"

namespace trrip {

/**
 * Common RRIP machinery: an n-bit RRPV per line -- one byte per way in
 * a contiguous SoA array, so the eviction search scans numSets*ways
 * bytes instead of striding over CacheLine structs -- and the standard
 * eviction search that ages the set until a distant line appears.
 *
 * RRPV semantics with the default 2 bits (paper section 3.4):
 * Immediate (0) > Near (1) > Intermediate (2) > Distant (3).
 */
class RripBase : public ReplacementPolicy
{
  public:
    RripBase(PolicyKind kind, const CacheGeometry &geom,
             unsigned rrpv_bits) :
        ReplacementPolicy(kind, geom),
        maxRrpv_(static_cast<std::uint8_t>((1u << rrpv_bits) - 1)),
        rrpv_(slots(), 0)
    {}

    /** RRPV meaning an immediate re-reference prediction. */
    std::uint8_t immediate() const { return 0; }
    /** RRPV meaning a near re-reference prediction. */
    std::uint8_t near() const { return 1; }
    /** RRPV meaning an intermediate (long) re-reference prediction. */
    std::uint8_t intermediate() const { return maxRrpv_ - 1; }
    /** RRPV meaning a distant re-reference prediction. */
    std::uint8_t distant() const { return maxRrpv_; }

    /** Current RRPV of (set, way) -- tests and derived policies. */
    std::uint8_t
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrpv_[idx(set, way)];
    }

    /**
     * The RRIP eviction search shared by every derived policy and left
     * untouched by TRRIP (Algorithm 1 line 14): scan for RRPV == max,
     * ageing every line until one is found; ties break toward way 0.
     *
     * Implemented as the closed form of that loop: the victim is the
     * first way with the maximal RRPV, and every line ages by the
     * number of rounds the scan would have taken (max - rrpv[victim]).
     * One read pass plus at most one write pass over the packed RRPV
     * bytes of the set; the resulting state is identical.
     */
    std::uint32_t
    victim(std::uint32_t set, const MemRequest &)
    {
        std::uint8_t *rrpv = &rrpv_[idx(set, 0)];
        std::uint32_t best = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (rrpv[w] > rrpv[best])
                best = w;
        }
        const std::uint8_t age =
            rrpv[best] >= maxRrpv_
                ? 0
                : static_cast<std::uint8_t>(maxRrpv_ - rrpv[best]);
        if (age > 0) {
            for (std::uint32_t w = 0; w < ways_; ++w)
                rrpv[w] = static_cast<std::uint8_t>(rrpv[w] + age);
        }
        return best;
    }

  protected:
    /** Set the RRPV of (set, way) -- the insertion/promotion hooks. */
    void
    setRrpv(std::uint32_t set, std::uint32_t way, std::uint8_t value)
    {
        rrpv_[idx(set, way)] = value;
    }

    std::uint8_t maxRrpv_;
    std::vector<std::uint8_t> rrpv_;    //!< One RRPV byte per way.
};

/**
 * Static RRIP with hit-priority promotion: insert at Intermediate,
 * promote to Immediate on hit.  The paper's normalization baseline.
 */
class SrripPolicy final : public RripBase
{
  public:
    explicit SrripPolicy(const CacheGeometry &geom,
                         unsigned rrpv_bits = 2) :
        RripBase(PolicyKind::Srrip, geom, rrpv_bits)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &)
    {
        setRrpv(set, way, immediate());
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &)
    {
        setRrpv(set, way, intermediate());
    }
};

/**
 * Bimodal RRIP: insert at Distant with high probability (thrash
 * resistance), at Intermediate with probability 1/throttle.
 */
class BrripPolicy final : public RripBase
{
  public:
    explicit BrripPolicy(const CacheGeometry &geom,
                         unsigned rrpv_bits = 2,
                         unsigned throttle = 32) :
        RripBase(PolicyKind::Brrip, geom, rrpv_bits), throttle_(throttle)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &)
    {
        setRrpv(set, way, immediate());
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &)
    {
        // Deterministic 1-in-throttle epsilon insertion.
        ++fills_;
        setRrpv(set, way,
                (fills_ % throttle_ == 0) ? intermediate() : distant());
    }

  private:
    unsigned throttle_;
    std::uint64_t fills_ = 0;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_RRIP_HH
