/**
 * @file
 * The engine's golden-fingerprint equivalence table, shared between
 * the ctest guards (tests/test_golden.cc, tests/test_multicore.cc)
 * and bench/perf's correctness gate, which re-verifies all 24
 * fingerprints through the worker pool so parallel execution is held
 * to the identical bit-exactness contract as serial.
 *
 * Each case runs the full co-design pipeline on a fixed (workload,
 * policy, seed, budget) tuple and folds every counter the SimResult
 * list names (forEachCounter, sim/core_model.hh) -- the retired
 * instruction count, the exact cycle total, the per-level cache
 * stats, prefetch, TLB and branch, in that order -- into one FNV-1a
 * fingerprint pinned in golden.cc.  The Top-Down buckets and the
 * derived MPKI / hot-eviction fields are not folded.  Any change to these fingerprints
 * is a simulation-behavior change and must be justified, not just
 * re-pinned.
 */

#ifndef TRRIP_SIM_GOLDEN_HH
#define TRRIP_SIM_GOLDEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace trrip {

/** Budget every golden case simulates (cheap enough for ASan ctest). */
constexpr InstCount kGoldenBudget = 120'000;

/**
 * One pinned configuration.  Beyond (workload, policy, pgo), a case
 * can deviate from the Table 1 defaults along the axes the fig8 /
 * fig9 sensitivity benches sweep -- the compiler hot threshold, the
 * L2 geometry -- plus the FDIP lookahead depth, so the guard also
 * covers configurations that stress the run-ahead window and the
 * eviction cascade.  A zero value means "leave the default".
 */
struct GoldenCase
{
    const char *workload;
    const char *policy;
    bool pgo;
    double percentileHot;       //!< fig8 axis; 0 = default.
    std::uint64_t l2SizeKb;     //!< fig9a axis; 0 = default (128).
    std::uint32_t l2Assoc;      //!< fig9b axis; 0 = default (8).
    unsigned fdipLookahead;     //!< Run-ahead depth; 0 = default (8).
    std::uint64_t expected;

    /** kGoldenBudget SimOptions with this case's deviations applied. */
    SimOptions options() const;
};

/** The pinned table (16 tuples). */
const std::vector<GoldenCase> &goldenCases();

/**
 * One pinned trace-replay configuration.  `trace` names a mini-pack
 * trace (src/trace/generate.hh); callers generate the pack and
 * resolve the name to a path themselves (this table must not depend
 * on where the pack was written), then replay via trace::runTrace at
 * kGoldenBudget.  The streaming trace's gather cluster keeps the
 * block-split seam (kBBEventDataSlots) inside the pinned behavior.
 */
struct TraceGoldenCase
{
    const char *trace;      //!< Mini-pack trace name, not a path.
    const char *policy;     //!< L2 policy spec.
    bool pgo;
    std::uint64_t expected;

    /** kGoldenBudget SimOptions for this case. */
    SimOptions options() const;
};

/** The pinned trace-replay table. */
const std::vector<TraceGoldenCase> &traceGoldenCases();

/**
 * One pinned multi-core configuration (sim/multicore.hh).  `workloads`
 * is the '+'-separated per-core list of an `mc:` label; an `@name`
 * element names a mini-pack trace (src/trace/generate.hh) the caller
 * resolves to a `trace:<path>` label, exactly like TraceGoldenCase.
 * The expected value is the multiCoreFingerprint() of the run at
 * kGoldenBudget per core -- every core's counters plus the shared
 * SLC snapshot and DRAM totals.
 */
struct MultiCoreGoldenCase
{
    const char *workloads;  //!< Per-core labels, '+'-separated.
    const char *policy;     //!< Every core's L2 policy spec.
    bool pgo;
    std::uint64_t expected;

    /** kGoldenBudget SimOptions for this case. */
    SimOptions options() const;
};

/** The pinned multi-core table (2- and 4-core bundles). */
const std::vector<MultiCoreGoldenCase> &multiCoreGoldenCases();

/**
 * Fold every counter forEachCounter lists, in list order, each as its
 * 64-bit pattern (cycles as its exact bits); if @p dump_out is
 * non-null it receives a named counter dump for mismatch diagnostics.
 */
std::uint64_t goldenFingerprint(const SimResult &result,
                                std::string *dump_out = nullptr);

} // namespace trrip

#endif // TRRIP_SIM_GOLDEN_HH
