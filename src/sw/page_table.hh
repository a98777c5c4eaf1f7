/**
 * @file
 * Page table with implementation-defined PTE attribute bits.
 *
 * TRRIP reuses two implementation-defined PTE bits (ARM PBHA / x86 AVL
 * style, paper section 3.3) to carry the code temperature of a page;
 * the MMU forwards them with instruction memory requests.  Translation
 * itself is identity (vaddr == paddr) -- the interesting state is the
 * attribute plumbing.
 *
 * The table is an open-addressed FlatMap keyed by virtual page number
 * and all page-size arithmetic is shift/mask (page sizes are enforced
 * powers of two), keeping translate() off the division and
 * std::unordered_map costs it used to pay per TLB miss.
 */

#ifndef TRRIP_SW_PAGE_TABLE_HH
#define TRRIP_SW_PAGE_TABLE_HH

#include <bit>
#include <cstdint>

#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace trrip {

/** One page table entry. */
struct Pte
{
    Addr ppn = 0;               //!< Physical page number.
    std::uint8_t attrs = 0;     //!< 2-bit PBHA-style temperature.

    Temperature temp() const { return decodeTemperature(attrs); }
};

/** Result of a translation. */
struct PageTranslation
{
    Addr paddr = 0;
    Temperature temp = Temperature::None;
};

/**
 * A flat single-level page table with lazy (mmap-on-touch) mapping.
 * Pages not pre-mapped by the loader appear on first touch with no
 * temperature attribute, modeling anonymous/data mappings.
 */
class PageTable
{
  public:
    explicit PageTable(std::uint32_t page_size = 4096) :
        pageSize_(page_size)
    {
        fatal_if(page_size == 0 || (page_size & (page_size - 1)) != 0,
                 "page size must be a power of two");
        pageShift_ = static_cast<std::uint32_t>(
            std::countr_zero(page_size));
    }

    std::uint32_t pageSize() const { return pageSize_; }

    /** log2(pageSize): vaddr >> pageShift() is the page number. */
    std::uint32_t pageShift() const { return pageShift_; }

    /** pageSize - 1: vaddr & pageOffsetMask() is the page offset. */
    Addr pageOffsetMask() const { return pageSize_ - 1; }

    /** Map the page holding @p vaddr with temperature @p temp. */
    void
    map(Addr vaddr, Temperature temp)
    {
        Pte &pte = table_[vaddr >> pageShift_];
        pte.ppn = vaddr >> pageShift_; // Identity mapping.
        pte.attrs = encodeTemperature(temp);
    }

    /** Translate @p vaddr, lazily allocating an untagged page. */
    PageTranslation
    translate(Addr vaddr)
    {
        const Addr vpn = vaddr >> pageShift_;
        auto [pte, inserted] = table_.tryEmplace(vpn);
        if (inserted) {
            pte->ppn = vpn;
            ++lazyMapped_;
        }
        return PageTranslation{
            (pte->ppn << pageShift_) | (vaddr & pageOffsetMask()),
            pte->temp()};
    }

    /** PTE lookup without allocation; nullptr if unmapped. */
    const Pte *
    lookup(Addr vaddr) const
    {
        return table_.find(vaddr >> pageShift_);
    }

    std::uint64_t lazyMappedPages() const { return lazyMapped_; }

  private:
    std::uint32_t pageSize_;
    std::uint32_t pageShift_ = 12;
    /** Sized for a typical loaded image (a few MiB of text + data)
     *  up front, so steady-state translation never rehashes. */
    FlatMap<Pte> table_{4096};
    std::uint64_t lazyMapped_ = 0;
};

} // namespace trrip

#endif // TRRIP_SW_PAGE_TABLE_HH
