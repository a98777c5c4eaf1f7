/**
 * @file
 * Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_DRRIP_HH
#define TRRIP_CACHE_REPLACEMENT_DRRIP_HH

#include "cache/replacement/rrip.hh"
#include "cache/replacement/set_dueling.hh"

namespace trrip {

/**
 * DRRIP (Jaleel et al., ISCA 2010).  SRRIP leads constituency 0 and
 * BRRIP constituency 1; followers insert according to the PSEL winner.
 * Promotion on hit is Immediate for all constituencies.
 */
class DrripPolicy final : public RripBase
{
  public:
    DrripPolicy(const CacheGeometry &geom, unsigned rrpv_bits = 2,
                std::uint32_t leader_sets = 32, unsigned psel_bits = 10,
                unsigned brrip_throttle = 32) :
        RripBase(PolicyKind::Drrip, geom, rrpv_bits),
        dueling_(geom.numSets(), leader_sets, psel_bits),
        throttle_(brrip_throttle)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &)
    {
        setRrpv(set, way, immediate());
    }

    std::uint32_t
    victim(std::uint32_t set, const MemRequest &req)
    {
        // Demand misses train the duel; prefetch fills do not.
        if (!req.isPrefetch())
            dueling_.onMiss(set);
        return RripBase::victim(set, req);
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &)
    {
        if (dueling_.policyFor(set) == 0) {
            setRrpv(set, way, intermediate());
        } else {
            ++brripFills_;
            setRrpv(set, way,
                    (brripFills_ % throttle_ == 0) ? intermediate()
                                                   : distant());
        }
    }

    const SetDueling &dueling() const { return dueling_; }

  private:
    SetDueling dueling_;
    unsigned throttle_;
    std::uint64_t brripFills_ = 0;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_DRRIP_HH
