/**
 * @file
 * SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011), applied
 * to instruction lines only, as evaluated in the paper (section 4.3):
 * a PC-signature SHCT predicts whether a fill will be re-referenced;
 * never-predicted lines are inserted at Distant to avoid pollution.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_SHIP_HH
#define TRRIP_CACHE_REPLACEMENT_SHIP_HH

#include <vector>

#include "cache/replacement/rrip.hh"
#include "util/sat_counter.hh"

namespace trrip {

/**
 * SHiP-PC over an SRRIP substrate.  For instruction requests the
 * fill-time PC signature indexes the SHCT; a zero counter predicts a
 * dead-on-arrival line (Distant insertion).  Hits set the line outcome
 * bit and increment the counter; evictions of never-hit lines decrement
 * it.  Data requests follow plain SRRIP.
 *
 * The per-line predictor metadata -- signature, outcome bit, and the
 * was-an-instruction-fill flag -- is SoA state of this policy, exactly
 * the dedicated outside-the-tag-array predictor storage the original
 * hardware proposal costs out (see power/mcpat_lite).
 */
class ShipPolicy final : public RripBase
{
  public:
    /**
     * @param shct_bits log2 of the signature history counter table
     *        entry count ("shct_bits" in the registry schema).  The
     *        paper models a 64 kB predictor; with 2-bit counters that
     *        is 256Ki entries, so the default is 18.
     */
    explicit ShipPolicy(const CacheGeometry &geom,
                        unsigned rrpv_bits = 2,
                        unsigned shct_bits = 18) :
        RripBase(PolicyKind::Ship, geom, rrpv_bits),
        shct_(checkedShctEntries(shct_bits), SatCounter(2, 1)),
        signature_(slots(), 0), outcome_(slots(), 0), inst_(slots(), 0)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const MemRequest &req)
    {
        const std::size_t i = idx(set, way);
        setRrpv(set, way, immediate());
        if (inst_[i] && !req.isPrefetch()) {
            outcome_[i] = 1;
            shct_[signature_[i] % shct_.size()].increment();
        }
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const MemRequest &req)
    {
        const std::size_t i = idx(set, way);
        if (req.isInst()) {
            const std::uint16_t sig = signatureOf(req.pc);
            signature_[i] = sig;
            outcome_[i] = 0;
            inst_[i] = 1;
            const bool dead = shct_[sig % shct_.size()].isZero();
            setRrpv(set, way, dead ? distant() : intermediate());
        } else {
            signature_[i] = 0;
            outcome_[i] = 0;
            inst_[i] = 0;
            setRrpv(set, way, intermediate());
        }
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        const std::size_t i = idx(set, way);
        if (inst_[i] && !outcome_[i])
            shct_[signature_[i] % shct_.size()].decrement();
    }

    /** 14-bit folded PC signature. */
    static std::uint16_t
    signatureOf(Addr pc)
    {
        const std::uint64_t x = pc >> 2;
        return static_cast<std::uint16_t>(
            (x ^ (x >> 14) ^ (x >> 28)) & 0x3fff);
    }

  private:
    /** Guard the shift: a caller passing an entry *count* here (the
     *  pre-registry signature) would otherwise hit shift UB. */
    static std::size_t
    checkedShctEntries(unsigned shct_bits)
    {
        fatal_if(shct_bits > 30, "SHiP: shct_bits=", shct_bits,
                 " is not a log2 entry count");
        return std::size_t(1) << shct_bits;
    }

    std::vector<SatCounter> shct_;
    std::vector<std::uint16_t> signature_;  //!< Fill-time PC signature.
    std::vector<std::uint8_t> outcome_;     //!< Re-referenced since fill.
    std::vector<std::uint8_t> inst_;        //!< Filled by an inst request.
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_SHIP_HH
