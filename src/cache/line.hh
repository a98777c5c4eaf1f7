/**
 * @file
 * Per-line cache metadata.
 *
 * The line carries only what the *cache* needs to track its contents:
 * tag, full line address, and the valid/dirty/isInst flags.  All
 * replacement-policy state (RRPVs, LRU stamps, SHiP signatures and
 * outcome bits, Emissary priority bits) lives in structure-of-arrays
 * storage owned by the ReplacementPolicy itself, indexed by
 * set * ways + way -- so victim scans touch tightly packed typed
 * arrays instead of striding over CacheLine structs, and adding a
 * policy never widens the line.
 *
 * @note @c temp mirrors the request temperature at fill time purely for
 *       simulator instrumentation (hot-eviction statistics, Fig. 3
 *       style analyses).  The TRRIP hardware proposal deliberately does
 *       NOT store temperature in the cache (paper section 3.4); no
 *       policy decision in TrripPolicy reads this field.
 */

#ifndef TRRIP_CACHE_LINE_HH
#define TRRIP_CACHE_LINE_HH

#include <cstdint>

#include "util/types.hh"

namespace trrip {

/**
 * Metadata for one cache line (way) in a set.
 *
 * Packed to 24 bytes now that policy state is externalized; the
 * static_assert below keeps policy fields from silently creeping back
 * in (they belong in the policy's own SoA arrays).
 */
struct CacheLine
{
    Addr tag = 0;
    Addr addr = 0;              //!< Full line-aligned address.

    /** Instrumentation-only copy of the fill-time page temperature. */
    Temperature temp = Temperature::None;

    bool valid : 1 = false;
    bool dirty : 1 = false;
    bool isInst : 1 = false;    //!< Filled by an instruction request.
};

static_assert(sizeof(CacheLine) <= 24,
              "CacheLine must stay lean: replacement-policy state "
              "belongs in the policy's SoA arrays, not in the line");

/**
 * @name Packed per-way metadata byte
 * The cache's SoA storage keeps each way's residual state (dirty,
 * isInst, instrumentation temperature) in one byte; validity and tag
 * live in the packed (tag << 1) | valid word, and the line address is
 * derivable from (set, tag).  The Cache packs and materializes
 * lines with these helpers.
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
 * in the same probe.  Never reported: CacheLine materialization and
 * the temperature decode mask them out.
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

/** Materialize the CacheLine value of (set, way) from SoA storage. */
constexpr CacheLine
materializeLine(std::uint64_t tag_word, std::uint8_t meta,
                std::uint32_t set, std::uint32_t line_shift,
                std::uint32_t tag_shift)
{
    CacheLine line;
    line.tag = tag_word >> 1;
    line.addr = (line.tag << tag_shift) |
                (static_cast<Addr>(set) << line_shift);
    line.temp = decodeTemperature(
        static_cast<std::uint8_t>(meta >> kLineMetaTempShift));
    line.valid = (tag_word & 1) != 0;
    line.dirty = (meta & kLineMetaDirty) != 0;
    line.isInst = (meta & kLineMetaInst) != 0;
    return line;
}
/** @} */

} // namespace trrip

#endif // TRRIP_CACHE_LINE_HH
