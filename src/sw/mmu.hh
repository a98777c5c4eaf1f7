/**
 * @file
 * MMU with a small TLB.  Translation stamps the PTE temperature bits
 * onto the returned attribute so the core can attach them to
 * instruction memory requests (paper Fig. 4, interface 11).
 */

#ifndef TRRIP_SW_MMU_HH
#define TRRIP_SW_MMU_HH

#include <cstdint>
#include <vector>

#include "sw/page_table.hh"

namespace trrip {

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

/** Result of an MMU translation. */
struct MmuResult
{
    Addr paddr = 0;
    Temperature temp = Temperature::None;
    bool tlbMiss = false;
};

/**
 * Direct-mapped TLB in front of the page table.  Timing of walks is
 * charged by the core model; this class is functional + stats.
 */
class Mmu
{
  public:
    explicit Mmu(PageTable &pt, std::size_t tlb_entries = 128) :
        pt_(pt), tlb_(tlb_entries), tlbMask_(tlb_entries - 1)
    {
        panic_if(tlb_entries == 0 ||
                     (tlb_entries & (tlb_entries - 1)) != 0,
                 "TLB entries must be a power of two");
    }

    /** Translate @p vaddr; fills the TLB on a miss. */
    MmuResult
    translate(Addr vaddr)
    {
        ++stats_.accesses;
        // Page sizes are powers of two; all div/mod is shift/mask.
        const std::uint32_t shift = pt_.pageShift();
        const Addr vpn = vaddr >> shift;
        Entry &e = tlb_[vpn & tlbMask_];
        if (e.valid && e.vpn == vpn) {
            return MmuResult{
                (e.ppn << shift) | (vaddr & pt_.pageOffsetMask()),
                e.temp, false};
        }
        ++stats_.misses;
        const PageTranslation tr = pt_.translate(vaddr);
        e.valid = true;
        e.vpn = vpn;
        e.ppn = tr.paddr >> shift;
        e.temp = tr.temp;
        return MmuResult{tr.paddr, tr.temp, true};
    }

    const TlbStats &stats() const { return stats_; }
    PageTable &pageTable() { return pt_; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        Addr ppn = 0;
        Temperature temp = Temperature::None;
    };

    PageTable &pt_;
    std::vector<Entry> tlb_;
    Addr tlbMask_;
    TlbStats stats_;
};

} // namespace trrip

#endif // TRRIP_SW_MMU_HH
