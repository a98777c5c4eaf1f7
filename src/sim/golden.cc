#include "sim/golden.hh"

#include <bit>

#include "sim/multicore.hh"
#include "util/hash.hh"

namespace trrip {

namespace {

/** Fold one 64-bit value into an FNV-1a hash, low byte first. */
std::uint64_t
foldWord(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = fnv1a(h, static_cast<std::uint8_t>(v >> (8 * i)));
    return h;
}

} // namespace

std::uint64_t
multiCoreFingerprint(const MultiCoreResult &result)
{
    std::uint64_t h = kFnv1aBasis;
    for (const RunArtifacts &core : result.cores)
        h = foldWord(h, goldenFingerprint(core.result));
    h = foldWord(h, result.dramReads);
    return foldWord(h, result.dramWrites);
}

std::uint64_t
goldenFingerprint(const SimResult &r, std::string *dump_out)
{
    std::uint64_t h = kFnv1aBasis;
    if (dump_out)
        dump_out->clear();
    // Every counter folds as its 64-bit pattern: the integers as they
    // are, cycles (the one double) as its exact bits.
    forEachCounter(
        [&](const char *name, auto counter) {
            const auto bits = std::bit_cast<std::uint64_t>(counter);
            h = foldWord(h, bits);
            if (dump_out) {
                *dump_out += "  " + std::string(name) + " = " +
                             std::to_string(bits) + "\n";
            }
        },
        r);
    return h;
}

SimOptions
GoldenCase::options() const
{
    SimOptions opts;
    opts.maxInstructions = kGoldenBudget;
    opts.pgo = pgo;
    if (percentileHot > 0)
        opts.classifier.percentileHot = percentileHot;
    if (l2SizeKb > 0)
        opts.hier.l2.sizeBytes = l2SizeKb * 1024;
    if (l2Assoc > 0)
        opts.hier.l2.assoc = l2Assoc;
    if (fdipLookahead > 0)
        opts.core.fdipLookahead = fdipLookahead;
    return opts;
}

const std::vector<GoldenCase> &
goldenCases()
{
    /**
     * Pinned fingerprints, collected from the pre-optimization engine
     * (PR 3 baseline; the fig8/fig9 configuration rows were generated
     * on the pre-batching PR 4 engine).  Regenerate only for
     * intentional behavior changes: run tests/test_golden with
     * TRRIP_PRINT_GOLDEN=1 and copy the printed table.
     */
    static const std::vector<GoldenCase> cases = {
        {"python", "SRRIP", true, 0, 0, 0, 0, 0x354f6bb93937f302ull},
        {"python", "TRRIP-2", true, 0, 0, 0, 0, 0x9ff8d0f96e931894ull},
        {"clang", "LRU", true, 0, 0, 0, 0, 0x5de744e9e9e7e65bull},
        {"clang", "TRRIP-1", true, 0, 0, 0, 0, 0x237595874b157a43ull},
        {"sqlite", "SHiP", true, 0, 0, 0, 0, 0xa40ffba600a4f5e6ull},
        {"gcc", "DRRIP", false, 0, 0, 0, 0, 0x7b354e706eb46d74ull},
        {"omnetpp", "BRRIP", true, 0, 0, 0, 0, 0xd25c0f74ab141037ull},
        {"abseil", "CLIP", true, 0, 0, 0, 0, 0x4f83720389470805ull},
        {"deepsjeng", "Emissary", true, 0, 0, 0, 0,
         0xda094574784b19edull},
        {"rapidjson", "Random", false, 0, 0, 0, 0,
         0x4c50f5d1cf3b06daull},
        {"bullet", "SRRIP(bits=3)", true, 0, 0, 0, 0,
         0x57837c9ada14be9cull},
        // fig8 hot-threshold configurations (Percentile_hot extremes).
        {"gcc", "TRRIP-1", true, 0.10, 0, 0, 0,
         0x3c2c771688db8c19ull},
        {"sqlite", "TRRIP-2", true, 0.9999, 0, 0, 16,
         0xc5d2ceaa30d6ace4ull},
        // fig9 cache-sensitivity configurations (L2 size/assoc).
        {"omnetpp", "CLIP", true, 0, 256, 0, 0,
         0x55db4f347df84ea5ull},
        {"clang", "Emissary", true, 0, 0, 16, 0,
         0x026c744574ba810dull},
        {"python", "DRRIP", true, 0, 512, 0, 2,
         0xc960623690da29ecull},
    };
    return cases;
}

SimOptions
TraceGoldenCase::options() const
{
    SimOptions opts;
    opts.maxInstructions = kGoldenBudget;
    opts.pgo = pgo;
    return opts;
}

const std::vector<TraceGoldenCase> &
traceGoldenCases()
{
    /**
     * Pinned trace-replay fingerprints over the deterministic
     * mini-trace pack.  Regenerate like the table above: run
     * tests/test_golden with TRRIP_PRINT_GOLDEN=1 and copy the
     * printed rows.
     */
    static const std::vector<TraceGoldenCase> cases = {
        {"dispatch", "TRRIP-2", true, 0x9df1d2177afbb975ull},
        {"dispatch", "LRU", false, 0x01c4500f86e35d71ull},
        {"streaming", "SRRIP", true, 0x0114e4e0128b7128ull},
    };
    return cases;
}

SimOptions
MultiCoreGoldenCase::options() const
{
    SimOptions opts;
    opts.maxInstructions = kGoldenBudget;
    opts.pgo = pgo;
    return opts;
}

const std::vector<MultiCoreGoldenCase> &
multiCoreGoldenCases()
{
    /**
     * Pinned multi-core fingerprints: mixed temperature profiles (a
     * code-hot compiler next to a flatter interpreter), a 4-core
     * bundle stressing the owner-mask width, and one bundle mixing a
     * proxy core with a trace-replay core.  Regenerate like the
     * tables above: run tests/test_multicore with
     * TRRIP_PRINT_GOLDEN=1 and copy the printed rows.
     */
    static const std::vector<MultiCoreGoldenCase> cases = {
        {"python+gcc", "TRRIP-2", true, 0x13d640f0529fb8dbull},
        {"clang+sqlite", "SRRIP", true, 0xd2be7f307f4d176full},
        {"python+clang+gcc+sqlite", "TRRIP-2", true,
         0x2c29f26e846c42c0ull},
        {"gcc+@dispatch", "LRU", true, 0xcef31565d65f2648ull},
        {"omnetpp+rapidjson+deepsjeng+abseil", "SHiP", true,
         0xdfb914ea0ff55f05ull},
    };
    return cases;
}

} // namespace trrip
