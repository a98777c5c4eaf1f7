/**
 * @file
 * Dedicated CoreModel unit suite: retire, fetch-stall, branch-penalty,
 * backend-stall and starvation-burst accounting verified against
 * hand-computed cycle counts on small synthetic block streams, plus
 * the FDIP lookahead-window behavior of the batched event path and
 * cooperative cancellation.
 *
 * The streams come from a scripted BBEventSource (the batched contract
 * of workloads/executor.hh), so every event is exactly what the test
 * wrote -- no workload synthesis, no RNG -- and the expected cycle
 * totals can be derived by hand from the Table 1 latencies:
 * an L2+SLC+DRAM cold fetch costs 8 + 10 + 400 = 418 cycles, of which
 * 418 - fetchQueueSlack(4) = 414 are exposed; a TLB walk adds 3; a
 * BTB redirect 3; a mispredict 8; retire is instrs / dispatchWidth.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/costly_miss.hh"
#include "branch/predictors.hh"
#include "cache/hierarchy.hh"
#include "sim/core_model.hh"
#include "sim/golden.hh"
#include "sw/mmu.hh"
#include "sw/page_table.hh"
#include "util/error.hh"

namespace trrip {
namespace {

/** Scripted event source: replays a fixed list, cycling at the end. */
class ScriptSource final : public BBEventSource
{
  public:
    explicit ScriptSource(std::vector<BBEvent> script) :
        script_(std::move(script))
    {}

    void
    produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
            std::uint32_t count) override
    {
        for (std::uint32_t k = 0; k < count; ++k) {
            ring[(pos + k) & mask] = script_[next_ % script_.size()];
            ++next_;
        }
    }

  private:
    std::vector<BBEvent> script_;
    std::size_t next_ = 0;
};

BBEvent
block(Addr vaddr, std::uint32_t instrs)
{
    BBEvent ev;
    ev.bb = 0;
    ev.vaddr = vaddr;
    ev.instrs = instrs;
    ev.bytes = instrs * 4;
    ev.hasBranch = false;
    ev.numData = 0;
    ev.fdipMispredict = false;
    return ev;
}

BBEvent
branchBlock(Addr vaddr, std::uint32_t instrs, Addr target)
{
    BBEvent ev = block(vaddr, instrs);
    ev.hasBranch = true;
    ev.branch = BranchInfo{};
    ev.branch.pc = vaddr + ev.bytes - 4;
    ev.branch.target = target;
    ev.branch.taken = true;
    ev.branch.conditional = false;
    return ev;
}

HierarchyParams
tinyHier()
{
    HierarchyParams hp;
    hp.l1i = CacheGeometry{"L1I", 2 * 1024, 2, 64};
    hp.l1d = CacheGeometry{"L1D", 2 * 1024, 2, 64};
    hp.l2 = CacheGeometry{"L2", 8 * 1024, 4, 64};
    hp.slc = CacheGeometry{"SLC", 32 * 1024, 8, 64};
    hp.enablePrefetch = false;
    return hp;
}

/** One simulation over a scripted stream; everything test-owned. */
struct Rig
{
    explicit Rig(std::vector<BBEvent> script,
                 HierarchyParams hp = tinyHier(),
                 CoreParams core = CoreParams{},
                 BackendParams backend = BackendParams{}) :
        source(std::move(script)), pt(4096), mmu(pt),
        branch(BranchParams{}), hier(hp),
        model(source, hier, mmu, branch, core, backend)
    {}

    ScriptSource source;
    PageTable pt;
    Mmu mmu;
    BranchUnit branch;
    CacheHierarchy hier;
    CoreModel model;
};

CoreParams
noFdip()
{
    CoreParams core;
    core.fdipEnabled = false;
    return core;
}

// ----------------------------- Retire -------------------------------

TEST(CoreModel, RetireAndColdFetchHandComputed)
{
    // One 12-instruction block at a fixed line, repeated: the first
    // event pays one TLB walk (3) plus the exposed cold fetch
    // (418 - 4 = 414); every later event only retires 12 / 6 = 2.
    Rig rig({block(0x1000, 12)}, tinyHier(), noFdip());
    const SimResult res = rig.model.run(100 * 12);

    EXPECT_EQ(res.instructions, 1200u);
    EXPECT_DOUBLE_EQ(res.cycles, 3.0 + 414.0 + 100 * 2.0);
    EXPECT_DOUBLE_EQ(res.topdown.ifetch, 414.0);
    EXPECT_DOUBLE_EQ(res.topdown.other, 3.0);
    EXPECT_DOUBLE_EQ(res.topdown.retire, 200.0);
    EXPECT_DOUBLE_EQ(res.topdown.mispred, 0.0);
    EXPECT_DOUBLE_EQ(res.topdown.mem, 0.0);
    EXPECT_EQ(res.tlb.accesses, 1u);
    EXPECT_EQ(res.tlb.misses, 1u);
    EXPECT_EQ(res.l1i.demandAccesses, 1u);
    EXPECT_EQ(res.l1i.demandMisses, 1u);
    EXPECT_EQ(res.branch.branches, 0u);
}

TEST(CoreModel, RetireUsesExactDivisionForOddWidths)
{
    // 7 instructions per block: the retire cost is the correctly
    // rounded double 7 / 6 accumulated in event order.
    Rig rig({block(0x1000, 7)}, tinyHier(), noFdip());
    const SimResult res = rig.model.run(50 * 7);

    double expect = 3.0 + 414.0;
    for (int i = 0; i < 50; ++i)
        expect += 7.0 / 6.0;
    EXPECT_DOUBLE_EQ(res.cycles, expect);
}

// --------------------------- Fetch stall ----------------------------

TEST(CoreModel, RepeatLineFetchesAreFree)
{
    // Two alternating blocks inside the same 64-byte line: only the
    // first event touches the memory system at all.
    Rig rig({block(0x2000, 6), block(0x2018, 6)}, tinyHier(),
            noFdip());
    const SimResult res = rig.model.run(40 * 6);

    EXPECT_EQ(res.l1i.demandAccesses, 1u);
    EXPECT_DOUBLE_EQ(res.cycles, 3.0 + 414.0 + 40 * 1.0);
}

TEST(CoreModel, FetchStallExposesLatencyBeyondSlack)
{
    // A raised fetch-queue slack hides that much of the cold fetch.
    CoreParams core = noFdip();
    core.fetchQueueSlack = 100;
    Rig rig({block(0x1000, 12)}, tinyHier(), core);
    const SimResult res = rig.model.run(10 * 12);
    EXPECT_DOUBLE_EQ(res.topdown.ifetch, 418.0 - 100.0);
    EXPECT_DOUBLE_EQ(res.cycles, 3.0 + 318.0 + 10 * 2.0);
}

// -------------------------- Branch penalty --------------------------

TEST(CoreModel, BtbRedirectChargedOnceForStableTarget)
{
    // An unconditional taken branch to a fixed target: the first
    // resolution misses the BTB (3-cycle redirect), every later one
    // hits with the right target and costs nothing.
    Rig rig({branchBlock(0x1000, 12, 0x1000)}, tinyHier(), noFdip());
    const SimResult res = rig.model.run(30 * 12);

    EXPECT_EQ(res.branch.branches, 30u);
    EXPECT_EQ(res.branch.mispredicts, 0u);
    EXPECT_EQ(res.branch.btbMisses, 1u);
    EXPECT_DOUBLE_EQ(res.topdown.mispred, 3.0);
    EXPECT_DOUBLE_EQ(res.cycles, 3.0 + 414.0 + 3.0 + 30 * 2.0);
}

TEST(CoreModel, AlternatingTargetsRedirectEveryResolution)
{
    // Same branch PC, alternating targets: the direct-mapped BTB
    // always holds the stale target, so every resolution redirects
    // (direction is correct, so it is the 3-cycle bubble, not the
    // 8-cycle mispredict).
    Rig rig({branchBlock(0x1000, 12, 0x40000),
             branchBlock(0x1000, 12, 0x80000)},
            tinyHier(), noFdip());
    const SimResult res = rig.model.run(30 * 12);

    EXPECT_EQ(res.branch.branches, 30u);
    EXPECT_EQ(res.branch.mispredicts, 0u);
    EXPECT_EQ(res.branch.btbMisses, 30u);
    EXPECT_DOUBLE_EQ(res.topdown.mispred, 30 * 3.0);
    EXPECT_DOUBLE_EQ(res.cycles, 3.0 + 414.0 + 30 * 3.0 + 30 * 2.0);
}

// -------------------------- Backend stalls --------------------------

TEST(CoreModel, BackendStallsScaleWithInstructions)
{
    // Binary-fraction rates make every partial sum exact, so the
    // hand computation is bit-identical, not just close.
    BackendParams backend;
    backend.dependStallPerInstr = 0.25;
    backend.issueStallPerInstr = 0.125;
    backend.otherStallPerInstr = 0.0625;
    Rig rig({block(0x1000, 12)}, tinyHier(), noFdip(), backend);
    const SimResult res = rig.model.run(40 * 12);

    EXPECT_DOUBLE_EQ(res.topdown.depend, 40 * 12 * 0.25);
    EXPECT_DOUBLE_EQ(res.topdown.issue, 40 * 12 * 0.125);
    EXPECT_DOUBLE_EQ(res.topdown.other, 3.0 + 40 * 12 * 0.0625);
    // Per event: retire 2 + 12 * (0.25 + 0.125 + 0.0625) = 7.25.
    EXPECT_DOUBLE_EQ(res.cycles, 3.0 + 414.0 + 40 * 7.25);
}

// ------------------------ Starvation bursts -------------------------

/**
 * Distinct L2-set-conflicting lines, one per event.  Every fetch is a
 * cold DRAM miss (~414 exposed >= starvationThreshold), and with the
 * burst window stretched past the inter-miss distance each miss after
 * the first is "clustered".  Emissary's alternator then marks every
 * other clustered miss: B (2nd miss), D (4th), F (6th) -- and the
 * marked lines must survive evictions that claim A, C and E.
 */
std::vector<BBEvent>
conflictStream(const HierarchyParams &hp, int count)
{
    const Addr stride = hp.l2.numSets() * 64;
    std::vector<BBEvent> script;
    for (int i = 0; i < count; ++i)
        script.push_back(block(i * stride, 16));
    return script;
}

TEST(CoreModel, StarvationBurstMarksAlternateClusteredMisses)
{
    HierarchyParams hp = tinyHier();
    hp.l2Policy = PolicySpec("Emissary");
    CoreParams core = noFdip();
    core.starvationBurstWindow = 1000.0; // > inter-miss distance.
    Rig rig(conflictStream(hp, 16), hp, core);
    rig.model.run(7 * 16); // Events A..G.

    const Addr stride = hp.l2.numSets() * 64;
    // Priority marks on B and D (and F) protect them through the
    // three evictions; the unmarked A, C, E are the victims.
    EXPECT_TRUE(rig.hier.l2().contains(1 * stride));  // B
    EXPECT_TRUE(rig.hier.l2().contains(3 * stride));  // D
    EXPECT_TRUE(rig.hier.l2().contains(5 * stride));  // F
    EXPECT_TRUE(rig.hier.l2().contains(6 * stride));  // G
    EXPECT_FALSE(rig.hier.l2().contains(0 * stride)); // A
    EXPECT_FALSE(rig.hier.l2().contains(2 * stride)); // C
    EXPECT_FALSE(rig.hier.l2().contains(4 * stride)); // E
}

TEST(CoreModel, NoStarvationMarksBelowThreshold)
{
    // Same stream, but no miss reaches the (raised) starvation
    // threshold: no priority marks, plain LRU evictions take the
    // oldest lines A, B, C.
    HierarchyParams hp = tinyHier();
    hp.l2Policy = PolicySpec("Emissary");
    CoreParams core = noFdip();
    core.starvationBurstWindow = 1000.0;
    core.starvationThreshold = 100000;
    Rig rig(conflictStream(hp, 16), hp, core);
    rig.model.run(7 * 16);

    const Addr stride = hp.l2.numSets() * 64;
    EXPECT_FALSE(rig.hier.l2().contains(0 * stride)); // A
    EXPECT_FALSE(rig.hier.l2().contains(1 * stride)); // B
    EXPECT_FALSE(rig.hier.l2().contains(2 * stride)); // C
    EXPECT_TRUE(rig.hier.l2().contains(6 * stride));  // G
}

TEST(CoreModel, CostlyTrackerRecordsExposedMisses)
{
    HierarchyParams hp = tinyHier();
    CoreParams core = noFdip();
    Rig rig(conflictStream(hp, 16), hp, core);
    CostlyMissTracker tracker;
    rig.hier.setProbe(&tracker);
    rig.model.run(5 * 16);

    // Every one of the five cold misses is exposed far beyond the
    // 28-cycle starvation threshold and is recorded with its cost.
    ASSERT_EQ(tracker.size(), 5u);
    for (const CostlyMiss &miss : tracker.misses())
        EXPECT_GE(miss.cost, 414.0);
}

// ------------------------- FDIP lookahead ---------------------------

TEST(CoreModel, FdipLookaheadPrefetchesWindowTail)
{
    // Straight-line code, one fresh 64-byte line per event, no
    // branches: the run-ahead window is always clean, so every
    // iteration prefetches exactly the window-tail line (lookahead
    // + 1 = 9 events ahead), 100 prefetches for 100 events.  Lines
    // 0..7 are demanded before any prefetch could target them: eight
    // cold DRAM misses of ~416 cycles each.  Those stalls give the
    // prefetches issued meanwhile (targeting lines 8..15, ready
    // ~418 cycles after issue) time to complete, so exactly those
    // eight lines are covered L2 hits on demand.  From line 16 on the
    // stream runs at retire speed (~2 cycles/event), demand catches
    // the prefetch ~400 cycles before it is ready, and every access
    // is a late merge: 100 - 16 = 84 of them, and 92 demand misses.
    std::vector<BBEvent> script;
    for (int i = 0; i < 512; ++i)
        script.push_back(block(0x100000 + i * 64, 16));
    CoreParams core; // FDIP on, lookahead 8.
    Rig rig(std::move(script), tinyHier(), core);
    const SimResult res = rig.model.run(100 * 16);

    EXPECT_EQ(res.prefetch.issued, 100u);
    EXPECT_EQ(res.prefetch.covered, 8u);
    EXPECT_EQ(res.prefetch.late, 84u);
    EXPECT_EQ(res.l1i.demandMisses, 100u);
    EXPECT_EQ(res.l2.instDemandMisses, 92u);
}

TEST(CoreModel, FdipDisabledIssuesNoPrefetches)
{
    std::vector<BBEvent> script;
    for (int i = 0; i < 512; ++i)
        script.push_back(block(0x100000 + i * 64, 16));
    Rig rig(std::move(script), tinyHier(), noFdip());
    const SimResult res = rig.model.run(100 * 16);
    EXPECT_EQ(res.prefetch.issued, 0u);
    EXPECT_EQ(res.l2.instDemandMisses, 100u);
}

// ------------------------- Cancellation ---------------------------

TEST(CoreModel, CancelledRunThrowsTimeoutAndAFreshModelIsUnaffected)
{
    // The watchdog's cooperative cancellation unwinds out of run() at
    // the next batch refill.  A retried attempt gets a fresh CoreModel
    // on the same stream, and nothing of the interrupted attempt may
    // leak into it: its fingerprint (every counter plus the exact
    // cycle total) must equal an uncancelled run's.
    const std::vector<BBEvent> script = {
        block(0x10000, 8), block(0x10040, 5),
        branchBlock(0x10080, 7, 0x10000),
    };
    const InstCount budget = 20 * 60;
    Rig reference(script, tinyHier(), noFdip());
    const std::uint64_t want =
        goldenFingerprint(reference.model.run(budget));

    CancelToken token;
    {
        Rig rig(script, tinyHier(), noFdip());
        rig.model.setCancelToken(&token);
        // An armed token changes nothing: this partial run completes.
        EXPECT_GE(rig.model.run(20 * 20).instructions, 20u * 20u);
        token.cancel();
        try {
            rig.model.run(budget);
            ADD_FAILURE() << "cancelled run() returned normally";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Timeout);
        }
    }
    token.rearm();
    Rig fresh(script, tinyHier(), noFdip());
    fresh.model.setCancelToken(&token);
    EXPECT_EQ(goldenFingerprint(fresh.model.run(budget)), want);
}

} // namespace
} // namespace trrip
