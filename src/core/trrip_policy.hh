/**
 * @file
 * TRRIP: Temperature-Based Re-Reference Interval Prediction —
 * Algorithm 1 of the paper, the repository's primary contribution.
 *
 * TRRIP extends RRIP insertion/promotion with the 2-bit code
 * temperature that arrives *with the memory request* (stamped by the
 * MMU from the PTE; see sw/mmu.hh).  The eviction mechanism is
 * untouched RRIP.  Only instruction requests carrying a valid
 * temperature trigger the temperature-sensitive arms; data lines and
 * untagged code (PLT, external libraries) behave exactly like SRRIP.
 *
 * Variant 1 reacts to hot lines only; variant 2 additionally handles
 * warm and cold lines (paper section 3.4):
 *
 *   hit,  hot          -> RRPV = Immediate            (v1 & v2)
 *   hit,  warm || cold -> RRPV = max(RRPV - 1, 0)     (v2 only)
 *   hit,  otherwise    -> RRPV = Immediate            (default RRIP)
 *   fill, hot          -> RRPV = Immediate            (v1 & v2)
 *   fill, warm         -> RRPV = Near                 (v2 only)
 *   fill, otherwise    -> RRPV = Intermediate         (default RRIP)
 */

#ifndef TRRIP_CORE_TRRIP_POLICY_HH
#define TRRIP_CORE_TRRIP_POLICY_HH

#include "cache/replacement/rrip.hh"

namespace trrip {

/** Which TRRIP variant to run (paper section 3.4). */
enum class TrripVariant {
    V1, //!< Hot-only handling.
    V2, //!< Hot + warm + cold handling.
};

/** The TRRIP cache replacement policy (paper Algorithm 1). */
class TrripPolicy final : public RripBase
{
  public:
    explicit TrripPolicy(const CacheGeometry &geom,
                         TrripVariant variant = TrripVariant::V1,
                         unsigned rrpv_bits = 2) :
        RripBase(PolicyKind::Trrip, geom, rrpv_bits), variant_(variant)
    {}

    TrripVariant variant() const { return variant_; }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &req)
    {
        if (triggers(req)) {
            if (req.temp == Temperature::Hot) {
                // Algorithm 1 lines 3-5: hot hits promote to Immediate.
                setRrpv(set, way, immediate());
                return;
            }
            if (variant_ == TrripVariant::V2) {
                // Algorithm 1 lines 6-8: warm/cold hits only step
                // toward Immediate, keeping hot lines ahead of them.
                const std::uint8_t cur = rrpvOf(set, way);
                setRrpv(set, way,
                        cur > immediate()
                            ? static_cast<std::uint8_t>(cur - 1)
                            : immediate());
                return;
            }
        }
        // Algorithm 1 lines 9-11: default RRIP behavior.
        setRrpv(set, way, immediate());
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &req)
    {
        if (triggers(req)) {
            if (req.temp == Temperature::Hot) {
                // Algorithm 1 lines 16-18: hot fills start Immediate to
                // prevent premature eviction.
                setRrpv(set, way, immediate());
                return;
            }
            if (variant_ == TrripVariant::V2 &&
                req.temp == Temperature::Warm) {
                // Algorithm 1 lines 19-21: warm fills start Near --
                // above data, below hot.
                setRrpv(set, way, near());
                return;
            }
        }
        // Algorithm 1 lines 22-24: default RRIP insertion.
        setRrpv(set, way, intermediate());
    }

  private:
    /**
     * TRRIP features trigger only on instruction requests carrying
     * valid temperature information (paper section 3.4).
     */
    static bool
    triggers(const MemRequest &req)
    {
        return req.isInst() && hasTemperature(req.temp);
    }

    TrripVariant variant_;
};

} // namespace trrip

#endif // TRRIP_CORE_TRRIP_POLICY_HH
