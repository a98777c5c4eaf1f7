#include "sim/simulator.hh"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "sim/multicore.hh"
#include "util/parse.hh"

namespace trrip {

InstCount
defaultInstrBudget()
{
    if (const char *env = std::getenv("TRRIP_INSTR_MILLIONS")) {
        const double instrs = parseWhole<double>(env).value_or(0) * 1e6;
        // Not a decimal number spanning the whole string ("6M",
        // "0x10", " 2"), not finite, or no count in [1, max
        // InstCount]: the default.  2^64 itself is the first double
        // the cast cannot represent.
        if (std::isfinite(instrs) && instrs >= 1.0 &&
            instrs < static_cast<double>(
                         std::numeric_limits<InstCount>::max())) {
            return static_cast<InstCount>(instrs);
        }
    }
    return 6'000'000;
}

Profile
collectProfile(const SyntheticWorkload &workload, InstCount instructions,
               const CancelToken *cancel)
{
    // Instrumented binaries are the pre-PGO layout (Fig. 4, ELF1).
    LayoutOptions layout_opts;
    const ElfImage image =
        layoutProgram(workload.program, nullptr, nullptr, layout_opts);

    ExecOptions exec_opts;
    exec_opts.seed = workload.params.trainSeed;
    exec_opts.handlerZipfSkew = workload.params.trainZipfSkew;
    Executor exec(workload, image, exec_opts);

    // Batched consumption (BBEventSource contract): events beyond the
    // budget boundary are produced and discarded, which is free --
    // the executor is a pure generator and this instance dies here.
    Profile profile(workload.program.numBlocks());
    constexpr std::uint32_t kBatch = 64;
    std::vector<BBEvent> ring(kBatch);
    InstCount done = 0;
    while (done < instructions) {
        pollCancel(cancel);
        exec.produce(ring.data(), kBatch - 1, 0, kBatch);
        for (std::uint32_t i = 0; i < kBatch && done < instructions;
             ++i) {
            profile.record(ring[i].bb);
            done += ring[i].instrs;
        }
    }
    return profile;
}

InstCount
resolveBudget(const SimOptions &options)
{
    return options.maxInstructions > 0 ? options.maxInstructions
                                       : defaultInstrBudget();
}

InstCount
resolveProfileBudget(const SimOptions &options)
{
    // PGO profiles need comparable coverage to the evaluation run or
    // the tail of the count distribution degenerates (every executed
    // block looks equally rare); default to the evaluation budget.
    return options.profileInstructions > 0
               ? options.profileInstructions
               : resolveBudget(options);
}

WorkloadRuntime
prepareWorkload(const SyntheticWorkload &workload,
                const SimOptions &options)
{
    WorkloadRuntime rt;
    RunArtifacts &art = rt.art;

    const InstCount profile_budget = resolveProfileBudget(options);

    // (2)-(3) Instrumented run producing the profile.  A precomputed
    // profile is shared by reference, not copied: a policy sweep keeps
    // one immutable Profile alive across all of its runs.
    if (options.precomputedProfile)
        art.profile = options.precomputedProfile;
    else
        art.profile = std::make_shared<Profile>(
            collectProfile(workload, profile_budget, options.cancel));

    // (4)-(5) Re-optimization: classify temperature, lay out ELF2.
    LayoutOptions layout_opts = options.layout;
    layout_opts.pageSize = options.pageSize;
    layout_opts.extraColdTextBytes = workload.params.extraColdTextBytes;
    layout_opts.extraBinaryBytes = workload.params.extraBinaryBytes;
    if (options.pgo) {
        art.classification = classifyTemperature(
            workload.program, *art.profile, options.classifier);
        art.image = layoutProgram(workload.program,
                                  &art.classification,
                                  art.profile.get(), layout_opts);
    } else {
        art.image = layoutProgram(workload.program, nullptr, nullptr,
                                  layout_opts);
    }

    // (6)-(8) Loader populates PTE temperature attribute bits.
    rt.pageTable = std::make_unique<PageTable>(options.pageSize);
    art.loadStats =
        loadImage(art.image, *rt.pageTable, options.pagePolicy);
    return rt;
}

RunArtifacts
runWorkload(const SyntheticWorkload &workload, const SimOptions &options)
{
    MultiCoreOptions mo;
    mo.base = options;
    const CoreInput core{.workload = &workload,
                         .profile = options.precomputedProfile};
    return std::move(runBundle({core}, {{options.hier.l2Policy}}, mo)
                         .front()
                         .cores.front());
}

} // namespace trrip
