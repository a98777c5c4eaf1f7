/**
 * @file
 * CLIP: Code Line Preservation (Jaleel et al., HPCA 2015), the
 * hardware-only "treat all instruction lines as hot" baseline.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_CLIP_HH
#define TRRIP_CACHE_REPLACEMENT_CLIP_HH

#include "cache/replacement/rrip.hh"
#include "cache/replacement/set_dueling.hh"

namespace trrip {

/**
 * CLIP over SRRIP.  Every instruction line is inserted at Immediate.
 * Set-dueling chooses between the base variant (data hits promote to
 * Immediate, as in SRRIP) and a code-favoring variant in which data
 * hits only step their RRPV down by one, keeping instruction lines in
 * the high-priority positions longer (paper section 4.3).
 */
class ClipPolicy final : public RripBase
{
  public:
    ClipPolicy(const CacheGeometry &geom, unsigned rrpv_bits = 2,
               std::uint32_t leader_sets = 32, unsigned psel_bits = 10) :
        RripBase(PolicyKind::Clip, geom, rrpv_bits),
        dueling_(geom.numSets(), leader_sets, psel_bits)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &req)
    {
        if (req.isInst() || dueling_.policyFor(set) == 0) {
            setRrpv(set, way, immediate());
        } else {
            // Variant 1: conservative promotion of data lines.
            const std::uint8_t cur = rrpvOf(set, way);
            setRrpv(set, way,
                    cur > 0 ? static_cast<std::uint8_t>(cur - 1) : 0);
        }
    }

    std::uint32_t
    victim(std::uint32_t set, const MemRequest &req)
    {
        if (!req.isPrefetch())
            dueling_.onMiss(set);
        return RripBase::victim(set, req);
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &req)
    {
        setRrpv(set, way, req.isInst() ? immediate() : intermediate());
    }

    const SetDueling &dueling() const { return dueling_; }

  private:
    SetDueling dueling_;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_CLIP_HH
