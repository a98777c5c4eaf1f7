/**
 * @file
 * Multi-core driver suite (sim/multicore.hh).
 *
 * Three rings of proof, from the inside out:
 *  - hand-computed interleaving over a fixed-size event source: the
 *    round-robin schedule advances every core by exactly one quantum
 *    per rotation, a budget-exhausted core drops out while the others
 *    progress, and an SLC eviction back-invalidates exactly the
 *    owning core's private levels;
 *  - N=1 equivalence: a one-core bundle replays every pinned
 *    single-core golden fingerprint (proxy and trace) bit for bit --
 *    the multi-core path IS the single-core engine when no sharing
 *    exists;
 *  - N>1 pinned fingerprints: 2- and 4-core bundles with mixed
 *    temperature profiles, one bundle mixing a proxy core with a
 *    trace-replay core, plus driver-level determinism and the
 *    masked-vs-naive back-invalidation equivalence end to end;
 *  - aggregateMultiCore over hand-filled cores: every listed counter
 *    and bucket summed, the makespan, the shared SLC, the MPKI form;
 *  - every row kind (proxy, trace, one- and two-core bundles) through
 *    the experiment runner in one grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "exp/runner.hh"
#include "sim/golden.hh"
#include "sim/multicore.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"

namespace trrip {
namespace {

// ------------------------------------------------------------ labels

TEST(MultiCoreName, ParsesBundleLabels)
{
    EXPECT_TRUE(isMultiCoreName("mc:python+gcc"));
    EXPECT_FALSE(isMultiCoreName("python"));
    EXPECT_FALSE(isMultiCoreName("trace:foo.trrtrc"));

    const std::vector<std::string> one = multiCoreWorkloadsOf("mc:gcc");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], "gcc");

    const std::vector<std::string> four =
        multiCoreWorkloadsOf("mc:python+clang+gcc+sqlite");
    ASSERT_EQ(four.size(), 4u);
    EXPECT_EQ(four[0], "python");
    EXPECT_EQ(four[3], "sqlite");

    EXPECT_TRUE(multiCoreWorkloadsOf("python").empty());
}

// ---------------------------------- hand-computed interleaving cases

/**
 * Pure generator of 10-instruction, branch-free, data-free blocks
 * cycling over a small code footprint.  Every event is identical in
 * size, so quantum arithmetic is exact: step(k * 10) retires exactly
 * k events.
 */
class FixedSource final : public BBEventSource
{
  public:
    explicit FixedSource(Addr base) : base_(base) {}

    void
    produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
            std::uint32_t count) override
    {
        for (std::uint32_t k = 0; k < count; ++k) {
            BBEvent &ev = ring[(pos + k) & mask];
            ev.bb = next_ % 8;
            ev.vaddr = base_ + (next_ % 8) * 64;
            ev.instrs = 10;
            ev.bytes = 16;
            ev.hasBranch = false;
            ev.numData = 0;
            ev.fdipMispredict = false;
            ++next_;
        }
    }

  private:
    Addr base_;
    std::uint64_t next_ = 0;
};

/** Tiny two-core fabric + engines around FixedSources. */
struct TwoCoreRig
{
    MultiCoreHierarchy fabric;
    PageTable pt;
    Mmu mmu0, mmu1;
    BranchUnit br0, br1;
    FixedSource src0, src1;
    CoreModel core0, core1;

    static MultiCoreParams
    params()
    {
        MultiCoreParams mp;
        mp.hier.l1i = CacheGeometry{"L1I", 256, 2, 64};
        mp.hier.l1d = CacheGeometry{"L1D", 256, 2, 64};
        mp.hier.l2 = CacheGeometry{"L2", 512, 1, 64};
        mp.hier.slc = CacheGeometry{"SLC", 1024, 2, 64};
        mp.hier.enablePrefetch = false;
        mp.numCores = 2;
        return mp;
    }

    TwoCoreRig() :
        fabric(params()), pt(4096), mmu0(pt), mmu1(pt),
        br0(BranchParams{}), br1(BranchParams{}), src0(0x10000),
        src1(0x20000),
        core0(src0, fabric.core(0), mmu0, br0, CoreParams{},
              BackendParams{}),
        core1(src1, fabric.core(1), mmu1, br1, CoreParams{},
              BackendParams{})
    {
        // Both cores' code pages, mapped up front (no loader here).
        pt.map(0x10000, Temperature::Hot);
        pt.map(0x20000, Temperature::Warm);
    }
};

TEST(MultiCoreInterleave, RoundRobinAdvancesEachCoreOneQuantum)
{
    TwoCoreRig rig;
    const InstCount quantum = 100;  // = exactly 10 FixedSource events.
    for (InstCount target = quantum; target <= 500; target += quantum) {
        rig.core0.step(target);
        rig.core1.step(target);
        // Fixed 10-instruction events divide the quantum exactly, so
        // the rotation boundary is computable by hand: no overshoot,
        // perfect fairness at every boundary.
        EXPECT_EQ(rig.core0.retired(), target);
        EXPECT_EQ(rig.core1.retired(), target);
    }
    const SimResult r0 = rig.core0.finalize();
    const SimResult r1 = rig.core1.finalize();
    EXPECT_EQ(r0.instructions, 500u);
    EXPECT_EQ(r1.instructions, 500u);
}

TEST(MultiCoreInterleave, ExhaustedCoreDropsOutOthersProgress)
{
    TwoCoreRig rig;
    const InstCount quantum = 100;
    const InstCount budget0 = 200, budget1 = 1000;
    while (rig.core0.retired() < budget0 ||
           rig.core1.retired() < budget1) {
        if (rig.core0.retired() < budget0)
            rig.core0.step(std::min<InstCount>(
                budget0, rig.core0.retired() + quantum));
        if (rig.core1.retired() < budget1)
            rig.core1.step(std::min<InstCount>(
                budget1, rig.core1.retired() + quantum));
    }
    EXPECT_EQ(rig.core0.retired(), budget0);
    EXPECT_EQ(rig.core1.retired(), budget1);
    const SimResult r1 = rig.core1.finalize();
    EXPECT_EQ(r1.instructions, budget1);
}

TEST(MultiCoreInterleave, SlcEvictionBackInvalidatesExactlyTheOwner)
{
    // Direct-mapped 8-set L2s and a 2-way 8-set SLC: addresses 0x0,
    // 0x200, 0x400 all map to set 0 of every level.
    MultiCoreParams mp = TwoCoreRig::params();
    mp.hier.slc = CacheGeometry{"SLC", 512, 1, 64};  // 8 sets, 1-way.
    MultiCoreHierarchy fabric(mp);

    const Addr line_a = 0x0, line_b = 0x200;
    MemRequest req;
    req.type = AccessType::InstFetch;
    req.temp = Temperature::Hot;

    // Core 0 fetches A: private L1I/L2 copies + SLC owner bit 0.
    req.vaddr = req.paddr = req.pc = line_a;
    fabric.core(0).instFetch(req, 0);
    EXPECT_TRUE(fabric.core(0).l2().contains(line_a));
    EXPECT_TRUE(fabric.core(0).l1i().contains(line_a));
    EXPECT_TRUE(fabric.slc().contains(line_a));
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b01u);
    EXPECT_TRUE(fabric.checkInclusion());

    // Core 1 fetches B (same SLC set, 1-way): the SLC evicts A and
    // must back-invalidate core 0's copies -- and ONLY core 0's.
    req.vaddr = req.paddr = req.pc = line_b;
    fabric.core(1).instFetch(req, 100);
    EXPECT_FALSE(fabric.core(0).l2().contains(line_a));
    EXPECT_FALSE(fabric.core(0).l1i().contains(line_a));
    EXPECT_TRUE(fabric.core(1).l2().contains(line_b));
    EXPECT_TRUE(fabric.core(1).l1i().contains(line_b));
    // The probe hit exactly the owner: core 0 saw one L2 + one L1I
    // invalidation, core 1 none at all.
    EXPECT_EQ(fabric.core(0).l2().stats().invalidations, 1u);
    EXPECT_EQ(fabric.core(0).l1i().stats().invalidations, 1u);
    EXPECT_EQ(fabric.core(1).l2().stats().invalidations, 0u);
    EXPECT_EQ(fabric.core(1).l1i().stats().invalidations, 0u);
    EXPECT_TRUE(fabric.checkInclusion());
}

TEST(MultiCoreInterleave, OwnerMaskTracksSharersAndReleases)
{
    MultiCoreParams mp = TwoCoreRig::params();
    MultiCoreHierarchy fabric(mp);

    const Addr line_a = 0x0, line_a2 = 0x200;
    MemRequest req;
    req.type = AccessType::InstFetch;
    req.temp = Temperature::Warm;

    // Both cores fetch A: the SLC mask accumulates both owner bits.
    req.vaddr = req.paddr = req.pc = line_a;
    fabric.core(0).instFetch(req, 0);
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b01u);
    fabric.core(1).instFetch(req, 10);
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b11u);
    EXPECT_TRUE(fabric.checkInclusion());

    // Core 0 fetches A2 (same direct-mapped L2 set; the 2-way SLC
    // set holds both): core 0's L2 evicts A, which only RELEASES its
    // owner bit -- the SLC copy stays, core 1's copies stay.
    req.vaddr = req.paddr = req.pc = line_a2;
    fabric.core(0).instFetch(req, 20);
    EXPECT_FALSE(fabric.core(0).l2().contains(line_a));
    EXPECT_TRUE(fabric.slc().contains(line_a));
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b10u);
    EXPECT_TRUE(fabric.core(1).l2().contains(line_a));
    EXPECT_EQ(fabric.slc().ownerOf(line_a2), 0b01u);
    EXPECT_TRUE(fabric.checkInclusion());

    // Core 0 re-fetches A: a shared-SLC demand hit re-ORs bit 0.
    req.vaddr = req.paddr = req.pc = line_a;
    fabric.core(0).instFetch(req, 30);
    EXPECT_EQ(fabric.slc().ownerOf(line_a), 0b11u);
    EXPECT_TRUE(fabric.checkInclusion());
}

// --------------------------------------------- N=1 golden equivalence

TEST(MultiCoreGolden, OneCoreBundleReplaysProxyGoldens)
{
    // The multi-core driver with one core must BE the single-core
    // pipeline: every pinned proxy fingerprint replays bit for bit.
    for (const GoldenCase &c : goldenCases()) {
        MultiCoreOptions mo;
        mo.base = c.options();
        const MultiCoreResult mc =
            runMultiCore({c.workload}, c.policy, mo);
        ASSERT_EQ(mc.cores.size(), 1u);
        std::string dump;
        const std::uint64_t fp =
            goldenFingerprint(mc.cores[0].result, &dump);
        EXPECT_EQ(fp, c.expected)
            << "mc:" << c.workload << " / " << c.policy
            << ": one-core bundle diverged from the single-core "
            << "engine.  Counter dump:\n" << dump;
    }
}

TEST(MultiCoreGolden, OneCoreBundleReplaysTraceGoldens)
{
    const std::string dir = "golden_mini_traces";
    trace::generateMiniTracePack(dir);
    for (const TraceGoldenCase &c : traceGoldenCases()) {
        MultiCoreOptions mo;
        mo.base = c.options();
        const std::string label =
            std::string(trace::kTracePrefix) +
            trace::miniTracePath(dir, c.trace);
        const MultiCoreResult mc = runMultiCore({label}, c.policy, mo);
        ASSERT_EQ(mc.cores.size(), 1u);
        std::string dump;
        const std::uint64_t fp =
            goldenFingerprint(mc.cores[0].result, &dump);
        EXPECT_EQ(fp, c.expected)
            << "mc trace " << c.trace << " / " << c.policy
            << ": one-core bundle diverged from the single-core "
            << "trace replay.  Counter dump:\n" << dump;
    }
}

TEST(MultiCoreGolden, OneCoreBundleIsQuantumInvariant)
{
    // run(n) == { step(n); finalize() } end to end: with no shared
    // state, cutting the run into quanta of any size must not move a
    // single bit of the result.
    const GoldenCase &c = goldenCases().front();
    std::uint64_t fps[2];
    const InstCount quanta[2] = {1000, 10 * kGoldenBudget};
    for (int i = 0; i < 2; ++i) {
        MultiCoreOptions mo;
        mo.base = c.options();
        mo.quantum = quanta[i];
        const MultiCoreResult mc =
            runMultiCore({c.workload}, c.policy, mo);
        fps[i] = goldenFingerprint(mc.cores[0].result);
    }
    EXPECT_EQ(fps[0], fps[1]) << "quantum size leaked into an "
                              << "unshared one-core result";
}

// ----------------------------------------- N>1 pinned configurations

std::vector<std::string>
resolveBundle(const char *workloads, const std::string &trace_dir)
{
    std::vector<std::string> labels = multiCoreWorkloadsOf(
        std::string(kMultiCorePrefix) + workloads);
    for (std::string &label : labels) {
        if (!label.empty() && label[0] == '@') {
            label = std::string(trace::kTracePrefix) +
                    trace::miniTracePath(trace_dir, label.substr(1));
        }
    }
    return labels;
}

TEST(MultiCoreGolden, MultiCoreFingerprintsAreBitIdentical)
{
    const std::string dir = "golden_mini_traces";
    trace::generateMiniTracePack(dir);
    const bool print = std::getenv("TRRIP_PRINT_GOLDEN") != nullptr;
    for (const MultiCoreGoldenCase &c : multiCoreGoldenCases()) {
        MultiCoreOptions mo;
        mo.base = c.options();
        const MultiCoreResult mc =
            runMultiCore(resolveBundle(c.workloads, dir), c.policy, mo);
        const std::uint64_t fp = multiCoreFingerprint(mc);
        if (print) {
            std::printf("        {\"%s\", \"%s\", %s, "
                        "0x%016llxull},\n",
                        c.workloads, c.policy,
                        c.pgo ? "true" : "false",
                        static_cast<unsigned long long>(fp));
            continue;
        }
        EXPECT_EQ(fp, c.expected)
            << "mc:" << c.workloads << " / " << c.policy
            << ": multi-core simulation behavior changed.";
    }
}

TEST(MultiCoreGolden, LanesReproduceMultiCoreFingerprints)
{
    // Each pinned bundle as one lane of a three-lane group, first and
    // last: every lane drives its own shared-SLC fabric from the same
    // per-core frontends, and must match its solo bundle bit for bit.
    const std::string dir = "golden_mini_traces";
    trace::generateMiniTracePack(dir);
    for (const MultiCoreGoldenCase &c : multiCoreGoldenCases()) {
        std::vector<std::string> others;
        for (const char *other : {"LRU", "TRRIP-2", "SRRIP"})
            if (other != std::string(c.policy) && others.size() < 2)
                others.push_back(other);
        const std::pair<std::vector<LaneSpec>, std::size_t>
            placements[] = {
                {{{c.policy}, {others[0]}, {others[1]}}, 0},
                {{{others[0]}, {others[1]}, {c.policy}}, 2},
            };
        for (const auto &[lanes, at] : placements) {
            MultiCoreOptions mo;
            mo.base = c.options();
            const std::vector<MultiCoreResult> mc = runMultiCore(
                resolveBundle(c.workloads, dir), lanes, mo);
            ASSERT_EQ(mc.size(), 3u);
            EXPECT_EQ(multiCoreFingerprint(mc[at]), c.expected)
                << "mc:" << c.workloads << " / " << c.policy
                << " as lane " << at
                << ": a lane diverged from its solo bundle.";
        }
    }
}

TEST(MultiCoreGolden, DriverIsDeterministicAcrossRuns)
{
    MultiCoreOptions mo;
    mo.base.maxInstructions = 30'000;
    const std::vector<std::string> bundle = {"gcc", "sqlite"};
    const std::uint64_t fp1 = multiCoreFingerprint(
        runMultiCore(bundle, "TRRIP-2", mo));
    const std::uint64_t fp2 = multiCoreFingerprint(
        runMultiCore(bundle, "TRRIP-2", mo));
    EXPECT_EQ(fp1, fp2) << "same spec, different bits";
}

TEST(MultiCoreGolden, MaskedAndNaiveBackInvalidationAgreeEndToEnd)
{
    // The randomized hierarchy-level differential lives in
    // tests/test_cache.cc; this is the same equivalence driven by the
    // full engine: owner-masked back-invalidation must not move one
    // bit of any core's counters versus probing every core.
    MultiCoreOptions mo;
    mo.base.maxInstructions = 30'000;
    // A small SLC so evictions (the cascade under test) are constant.
    mo.base.hier.slc = CacheGeometry{"SLC", 64 * 1024, 8, 64};
    const std::vector<std::string> bundle = {"python", "gcc"};
    const std::uint64_t masked = multiCoreFingerprint(
        runMultiCore(bundle, "SRRIP", mo));
    mo.naiveBackInvalidate = true;
    const std::uint64_t naive = multiCoreFingerprint(
        runMultiCore(bundle, "SRRIP", mo));
    EXPECT_EQ(masked, naive)
        << "owner-masked back-invalidation changed observable "
        << "behavior";
}

TEST(MultiCoreGolden, PerCoreBudgetsRunIndependently)
{
    MultiCoreOptions mo;
    mo.base.profileInstructions = 20'000;
    mo.quantum = 2'000;
    mo.coreBudgets = {5'000, 40'000};
    const MultiCoreResult mc =
        runMultiCore({"gcc", "gcc"}, "SRRIP", mo);
    ASSERT_EQ(mc.cores.size(), 2u);
    // The stalled core stops within one event of its budget while the
    // other runs its full course.
    EXPECT_GE(mc.cores[0].result.instructions, 5'000u);
    EXPECT_LT(mc.cores[0].result.instructions, 6'000u);
    EXPECT_GE(mc.cores[1].result.instructions, 40'000u);
}

// ------------------------------------------------------- aggregation

TEST(MultiCoreAggregate, SumsEveryCounterKeepsMakespanAndSharedSlc)
{
    // Two hand-filled cores: every listed counter of core 0 counts up
    // from 1, of core 1 from 100, of the shared SLC from 10'000, so
    // no two values coincide (and the two MPKI expressions round the
    // summed L2 misses differently).
    MultiCoreResult mc;
    mc.cores.resize(2);
    const auto fill = [](std::uint64_t next) {
        return [next](const char *, auto &counter) mutable {
            counter = static_cast<std::decay_t<decltype(counter)>>(next++);
        };
    };
    for (std::size_t c = 0; c < 2; ++c) {
        SimResult &r = mc.cores[c].result;
        forEachCounter(fill(c == 0 ? 1 : 100), r);
        double bucket = 0.25 + static_cast<double>(c);
        forEachBucket(
            [&](const char *, double &b) {
                b = bucket;
                bucket += 2.0;
            },
            r.topdown);
        r.l2HotEvictions = 7 + c;
    }
    forEachCounter(fill(10'000), mc.slc);
    // The slower core is the first, so "last core wins" fails.
    mc.cores[0].result.cycles = 1e6;

    const SimResult &a = mc.cores[0].result;
    const SimResult &b = mc.cores[1].result;
    const SimResult sum = aggregateMultiCore(mc);
    forEachCounter(
        [](const char *name, auto got, auto x, auto y) {
            if (std::string_view(name) == "cycles") {
                EXPECT_EQ(got, std::max(x, y)) << name;
            } else if (!std::string_view(name).starts_with("slc.")) {
                EXPECT_EQ(got, x + y) << name;
            }
        },
        sum, a, b);
    forEachCounter(
        [](const char *name, std::uint64_t got, std::uint64_t shared) {
            EXPECT_EQ(got, shared) << name;
        },
        sum.slc, mc.slc);
    forEachBucket(
        [](const char *name, double got, double x, double y) {
            EXPECT_EQ(got, x + y) << name;
        },
        sum.topdown, a.topdown, b.topdown);
    EXPECT_EQ(sum.l2HotEvictions, 15u);

    // misses / (instructions / 1000), not finalize()'s
    // misses * 1000 / instructions.
    const double kilo = static_cast<double>(sum.instructions) / 1000.0;
    const auto mpki = [&](std::uint64_t misses) {
        return static_cast<double>(misses) / kilo;
    };
    EXPECT_EQ(sum.l2InstMpki, mpki(sum.l2.instDemandMisses));
    EXPECT_EQ(sum.l2DataMpki, mpki(sum.l2.dataDemandMisses));
    EXPECT_NE(sum.l2InstMpki,
              static_cast<double>(sum.l2.instDemandMisses) * 1000.0 /
                  static_cast<double>(sum.instructions));
}

// ------------------------------------------- every row kind, one grid

TEST(MultiCoreRunner, EveryRowKindMatchesItsSoloRun)
{
    // A proxy row, a trace row, a one-core bundle and a proxy+trace
    // bundle in one grid: single rows store exactly their solo run's
    // metrics, a bundle adds its per-core and shared-DRAM keys, and
    // a one-core bundle's core is the proxy row itself.
    const std::string dir = "golden_mini_traces";
    trace::generateMiniTracePack(dir);
    const std::string dispatch = trace::miniTracePath(dir, "dispatch");
    const std::string streaming =
        trace::miniTracePath(dir, "streaming");

    exp::ExperimentSpec spec;
    spec.name = "row_kinds";
    spec.workloads = {"gcc", trace::kTracePrefix + dispatch, "mc:gcc",
                      "mc:gcc+" + std::string(trace::kTracePrefix) +
                          streaming};
    spec.policies = {"SRRIP", "TRRIP-2"};
    spec.options.maxInstructions = 30'000;
    exp::ExperimentRunner runner(2);
    const exp::ExperimentResults results = runner.run(spec);

    CoDesignPipeline gcc(proxyParams("gcc"));
    for (const std::string &policy : spec.policies) {
        const auto &proxy = results.at("gcc", policy).metrics;
        EXPECT_EQ(proxy, exp::defaultMetrics(
                             gcc.run(policy, spec.options).result))
            << policy;
        EXPECT_EQ(proxy.size(), 16u);

        const auto &replay =
            results.at(spec.workloads[1], policy).metrics;
        EXPECT_EQ(replay,
                  exp::defaultMetrics(
                      trace::runTrace(dispatch, policy, spec.options)
                          .result))
            << policy;
        EXPECT_EQ(replay.size(), 16u);

        const auto &one = results.at("mc:gcc", policy).metrics;
        EXPECT_EQ(one.size(), 34u);
        for (const auto &[key, value] : proxy)
            EXPECT_EQ(one.at("core0_" + key), value) << policy << key;

        EXPECT_EQ(results.at(spec.workloads[3], policy).metrics.size(),
                  50u);
    }
}

} // namespace
} // namespace trrip
