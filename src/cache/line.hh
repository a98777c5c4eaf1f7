/**
 * @file
 * The cache line value and its packed per-way metadata byte.
 *
 * The cache keeps no array of line structs: its SoA storage holds a
 * packed (tag << 1) | valid word and one metadata byte per way, and
 * the full line address is derivable from (set, tag).  All
 * replacement-policy state (RRPVs, LRU ranks, SHiP signatures and
 * outcome bits, Emissary priority bits) lives in structure-of-arrays
 * storage owned by the ReplacementPolicy itself, indexed by
 * set * ways + way, so adding a policy never widens a line.
 * CacheLine is the value the cache's query and eviction API returns:
 * the line's address plus its metadata byte, exactly as stored.
 *
 * @note The temperature bits mirror the request temperature at fill
 *       time purely for simulator instrumentation (hot-eviction
 *       statistics, Fig. 3 style analyses).  The TRRIP hardware
 *       proposal deliberately does NOT store temperature in the cache
 *       (paper section 3.4); no policy decision in TrripPolicy reads
 *       them.
 */

#ifndef TRRIP_CACHE_LINE_HH
#define TRRIP_CACHE_LINE_HH

#include <cstdint>

#include "util/types.hh"

namespace trrip {

/**
 * @name Packed per-way metadata byte
 * The cache's SoA storage keeps each way's residual state (dirty,
 * isInst, instrumentation temperature) in one byte; validity and tag
 * live in the packed (tag << 1) | valid word.
 */
/** @{ */
constexpr std::uint8_t kLineMetaDirty = 0x1;
constexpr std::uint8_t kLineMetaInst = 0x2;
constexpr unsigned kLineMetaTempShift = 2;

/**
 * @name Upper-level residency hints (hierarchy-owned, L2 only)
 * Set on an L2 line when its data enters the L1-I / L1-D, so the
 * eviction cascade probes only the L1s that can actually hold the
 * victim.  The bits are conservative: silent L1 evictions never clear
 * them (a stale set bit costs one no-op probe, exactly the behavior
 * before the bits existed), but a clear bit proves absence -- every
 * path that installs a line into an L1 stamps the bit on the L2 copy
 * in the same probe.  The temperature decode masks them out.
 */
constexpr std::uint8_t kLineMetaInL1I = 0x10;
constexpr std::uint8_t kLineMetaInL1D = 0x20;

constexpr std::uint8_t
packLineMeta(bool dirty, bool is_inst, Temperature temp)
{
    return static_cast<std::uint8_t>(
        (dirty ? kLineMetaDirty : 0) | (is_inst ? kLineMetaInst : 0) |
        (encodeTemperature(temp) << kLineMetaTempShift));
}
/** @} */

/**
 * One line (way) of a cache as stored: validity, full line address,
 * the packed kLineMeta* byte (residency hints included) and, when the
 * cache tracks owners (the shared-SLC role), the per-core owner mask.
 * What fill() displaces, invalidate() removes and peek()/lineAt()
 * read.  When there is no such line (fill() displaced nothing,
 * invalidate() or peek() found nothing) the value is CacheLine{}.
 */
struct CacheLine
{
    bool valid = false;
    Addr addr = 0;              //!< Full line-aligned address.
    std::uint8_t meta = 0;      //!< Packed kLineMeta* byte.
    std::uint32_t owner = 0;    //!< Per-core owner mask (0 untracked).

    constexpr bool dirty() const { return (meta & kLineMetaDirty) != 0; }

    /** Filled by an instruction request. */
    constexpr bool isInst() const { return (meta & kLineMetaInst) != 0; }

    /** Instrumentation-only copy of the fill-time page temperature. */
    constexpr Temperature
    temp() const
    {
        return decodeTemperature(
            static_cast<std::uint8_t>(meta >> kLineMetaTempShift));
    }
};

static_assert(sizeof(CacheLine) <= 24,
              "CacheLine must stay lean: replacement-policy state "
              "belongs in the policy's SoA arrays, not in the line");

} // namespace trrip

#endif // TRRIP_CACHE_LINE_HH
