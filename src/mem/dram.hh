/**
 * @file
 * Main-memory latency/bandwidth model (paper Table 1: 400-cycle latency,
 * 7.6 GB/s controller bandwidth at 2 GHz).
 */

#ifndef TRRIP_MEM_DRAM_HH
#define TRRIP_MEM_DRAM_HH

#include <cstdint>

#include "util/types.hh"

namespace trrip {

/** DRAM configuration. */
struct DramParams
{
    Cycles latency = 400;       //!< Idle access latency in CPU cycles.
    /**
     * Minimum cycles between line transfers imposed by controller
     * bandwidth: 64 B / 7.6 GB/s at 2 GHz ~= 16.8 cycles per line.
     */
    double cyclesPerLine = 16.8;
};

/**
 * Flat-latency DRAM with a bandwidth-induced queueing penalty.  The
 * model tracks when the controller becomes free; requests arriving
 * while it is busy queue behind earlier ones.
 */
class Dram
{
  public:
    explicit Dram(const DramParams &params = DramParams()) :
        params_(params)
    {}

    /**
     * Issue a line read at @p now.
     * @return Total cycles until data is available.
     */
    Cycles
    read(Cycles now)
    {
        ++reads_;
        return occupy(now);
    }

    /** Issue a line writeback at @p now (fire-and-forget timing-wise). */
    void
    write(Cycles now)
    {
        ++writes_;
        occupy(now);
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    /** Advance the controller busy window; return request latency. */
    Cycles
    occupy(Cycles now)
    {
        const Cycles start = now > nextFree_ ? now : nextFree_;
        const Cycles queue = start - now;
        // Accumulate the fractional part of the per-line occupancy so
        // bandwidth is honored on average with integer cycle math.
        fraction_ += params_.cyclesPerLine;
        const auto whole = static_cast<Cycles>(fraction_);
        fraction_ -= static_cast<double>(whole);
        nextFree_ = start + whole;
        return params_.latency + queue;
    }

    DramParams params_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    Cycles nextFree_ = 0;
    double fraction_ = 0.0;
};

} // namespace trrip

#endif // TRRIP_MEM_DRAM_HH
