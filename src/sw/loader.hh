/**
 * @file
 * Program loader: reads the temperature-annotated program headers of
 * an ElfImage and populates PTE attribute bits (paper section 3.3).
 *
 * A page overlapping two sections of different temperature is handled
 * per the prevention mechanisms of paper section 4.9: padding is a
 * layout-time option (LayoutOptions::padSectionsToPage); at load time
 * the policy below picks between not marking mixed pages at all and
 * marking them with the temperature owning the most bytes.
 */

#ifndef TRRIP_SW_LOADER_HH
#define TRRIP_SW_LOADER_HH

#include <array>
#include <cstdint>

#include "sw/elf_image.hh"
#include "sw/page_table.hh"

namespace trrip {

/** What to do with pages that mix code temperatures. */
enum class MixedPagePolicy
{
    DisableMark,    //!< Leave mixed pages untagged (safe default).
    MarkDominant,   //!< Tag with the temperature owning most bytes.
};

/** Load-time accounting (feeds the Table 5 bench). */
struct LoadStats
{
    std::uint64_t codePages = 0;
    std::array<std::uint64_t, 4> pagesByTemp{}; //!< By Temperature.
    std::uint64_t mixedPages = 0;
};

/**
 * Map one code page and count it in @p stats, given its bytes of each
 * temperature (indexed by encodeTemperature): the page takes the
 * temperature owning the most bytes, or stays untagged when it mixes
 * temperatures under MixedPagePolicy::DisableMark.  A page with no
 * bytes stays untagged.
 */
void markPage(PageTable &pt, Addr page,
              const std::array<std::uint64_t, 4> &bytes,
              MixedPagePolicy policy, LoadStats &stats);

/**
 * Populate @p pt for every code page of @p image.  External-region
 * pages are mapped but never temperature-tagged.
 */
LoadStats loadImage(const ElfImage &image, PageTable &pt,
                    MixedPagePolicy policy);

} // namespace trrip

#endif // TRRIP_SW_LOADER_HH
