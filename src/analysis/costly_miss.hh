/**
 * @file
 * Costly-instruction-miss tracking for paper Fig. 7 and the Emissary
 * baseline: an instruction miss is costly when it starved the decode
 * stage (exposed stall beyond a threshold).  The tracker is a lane
 * probe that records every such miss with its cost; coverage asks
 * what fraction of the top-Nth-percentile costly misses land inside
 * TRRIP's .text.hot section, optionally excluding external (PLT /
 * shared-library) code.
 */

#ifndef TRRIP_ANALYSIS_COSTLY_MISS_HH
#define TRRIP_ANALYSIS_COSTLY_MISS_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "sw/elf_image.hh"
#include "util/types.hh"

namespace trrip {

/** One costly instruction miss sample. */
struct CostlyMiss
{
    Addr line = 0;      //!< Virtual line address.
    double cost = 0.0;  //!< Exposed stall cycles.
};

/** Collects one lane's costly-miss samples during one simulation. */
class CostlyMissTracker : public LaneProbe
{
  public:
    /** Record one costly miss. */
    void
    onCostlyMiss(Addr line, double cost) override
    {
        misses_.push_back(CostlyMiss{line, cost});
    }

    std::size_t size() const { return misses_.size(); }
    const std::vector<CostlyMiss> &misses() const { return misses_; }

    /**
     * Coverage of costly misses by the hot text section.
     *
     * @param image The PGO image defining hot sections and the
     *        external region.
     * @param percentile Top-Nth percentile of miss cost (e.g. 90 keeps
     *        the most expensive 10% of misses).
     * @param exclude_external Restrict the universe to misses inside
     *        the main binary (paper Fig. 7b).
     * @return Fraction in [0, 1]; 0 when no miss qualifies.
     */
    double hotCoverage(const ElfImage &image, double percentile,
                       bool exclude_external) const;

  private:
    std::vector<CostlyMiss> misses_;
};

} // namespace trrip

#endif // TRRIP_ANALYSIS_COSTLY_MISS_HH
