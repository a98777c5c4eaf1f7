#include "sw/loader.hh"

#include <algorithm>

namespace trrip {

void
markPage(PageTable &pt, Addr page,
         const std::array<std::uint64_t, 4> &bytes,
         MixedPagePolicy policy, LoadStats &stats)
{
    ++stats.codePages;
    unsigned temps_present = 0;
    unsigned dominant = 0;
    for (unsigned t = 0; t < 4; ++t) {
        if (bytes[t] > 0)
            ++temps_present;
        if (bytes[t] > bytes[dominant])
            dominant = t;
    }
    Temperature mark =
        decodeTemperature(static_cast<std::uint8_t>(dominant));
    if (temps_present > 1) {
        ++stats.mixedPages;
        if (policy == MixedPagePolicy::DisableMark)
            mark = Temperature::None;
    }
    pt.map(page, mark);
    ++stats.pagesByTemp[encodeTemperature(mark)];
}

namespace {

/** Map one address range of pages, classifying each page. */
void
loadRange(const ElfImage &image, PageTable &pt, MixedPagePolicy policy,
          Addr begin, Addr end, bool external, LoadStats &stats)
{
    const std::uint64_t page = pt.pageSize();
    for (Addr p = begin & ~static_cast<Addr>(page - 1); p < end;
         p += page) {
        // Bytes of each temperature within this page; external pages
        // count none, so they stay untagged.
        std::array<std::uint64_t, 4> bytes{};
        for (const auto &s : image.sections) {
            if (external || s.external)
                continue;
            const Addr lo = std::max(p, s.vaddr);
            const Addr hi = std::min(p + page, s.end());
            if (lo < hi)
                bytes[encodeTemperature(s.temp)] += hi - lo;
        }
        markPage(pt, p, bytes, policy, stats);
    }
}

} // namespace

LoadStats
loadImage(const ElfImage &image, PageTable &pt, MixedPagePolicy policy)
{
    LoadStats stats;
    if (image.imageEnd > image.imageBase)
        loadRange(image, pt, policy, image.imageBase, image.imageEnd,
                  false, stats);
    if (image.externalEnd > image.externalBase)
        loadRange(image, pt, policy, image.externalBase,
                  image.externalEnd, true, stats);
    return stats;
}

} // namespace trrip
