/**
 * @file
 * Per-set reuse-distance profiler reproducing the methodology of paper
 * Fig. 3: reuse of a hot line is the number of unique cache lines
 * (instruction and data) observed in its set between two subsequent
 * accesses to it; the optimistic "~" variant counts only unique *hot*
 * lines, i.e. temporal locality of hot code in the absence of non-hot
 * interference.
 */

#ifndef TRRIP_ANALYSIS_REUSE_DISTANCE_HH
#define TRRIP_ANALYSIS_REUSE_DISTANCE_HH

#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/hierarchy.hh"
#include "mem/request.hh"
#include "util/stats.hh"

namespace trrip {

/**
 * Stack-based per-set reuse distance profiler over one lane's L2
 * demand stream.
 */
class ReuseDistanceProfiler : public LaneProbe
{
  public:
    /**
     * @param geom Geometry of the observed cache (for set mapping).
     * @param stack_cap Per-set stack bound; reuses deeper than this
     *        land in the overflow bucket, like paper Fig. 3's "16+".
     */
    explicit ReuseDistanceProfiler(const CacheGeometry &geom,
                                   std::size_t stack_cap = 512);

    void onL2Access(const MemRequest &req) override;

    /** Distance counting all unique lines (paper's base variant). */
    const BucketHistogram &base() const { return base_; }
    /** Distance counting only hot lines (paper's "~" variant). */
    const BucketHistogram &hotOnly() const { return hotOnly_; }

  private:
    struct Entry
    {
        Addr line = 0;
        bool hot = false;
    };

    CacheGeometry geom_;
    std::size_t stackCap_;
    std::vector<std::vector<Entry>> stacks_;  //!< MRU at the back.
    BucketHistogram base_;
    BucketHistogram hotOnly_;
};

} // namespace trrip

#endif // TRRIP_ANALYSIS_REUSE_DISTANCE_HH
