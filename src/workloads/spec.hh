/**
 * @file
 * Parameter spec for synthetic workloads.
 *
 * A workload models the control structure the paper attributes to
 * mobile system software (section 2): a dispatcher (interpreter loop /
 * UI event pump) selecting among many handlers with a Zipf
 * distribution, handlers calling warm helpers and rarely cold or
 * external (PLT / shared-library) code, with data streams interleaved.
 * This is exactly the structure that gives hot code its high L2 reuse
 * distance (paper section 2.4, Fig. 3).
 */

#ifndef TRRIP_WORKLOADS_SPEC_HH
#define TRRIP_WORKLOADS_SPEC_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "sw/program.hh"

namespace trrip {

/** One synthetic data region (heap array, table, buffer, ...). */
struct DataRegionSpec
{
    std::string name = "heap";
    std::uint64_t sizeBytes = 1 << 20;
    DataPattern pattern = DataPattern::Random;
    /** Element advance for Sequential/Strided accesses (bytes). */
    std::uint32_t stride = 16;
    double weight = 1.0;        //!< Selection weight across regions.
    float storeFraction = 0.2f;
    /**
     * Fraction of accesses that are serially dependent (pointer
     * chasing); their miss latency cannot be overlapped by the OOO
     * window.
     */
    double dependentFraction = 0.0;
    /**
     * Random-pattern temporal locality: fraction of accesses confined
     * to a hot window at the start of the region (the cacheable part
     * of the working set); the rest roam the whole region.
     */
    double localityFraction = 0.85;
    std::uint64_t localityBytes = 96 * 1024;

    auto operator<=>(const DataRegionSpec &) const = default;
};

/** Full description of one synthetic benchmark. */
struct WorkloadParams
{
    std::string name = "custom";

    /** @name Determinism */
    /** @{ */
    std::uint64_t seed = 1;          //!< Evaluation input set.
    std::uint64_t trainSeed = 777;   //!< PGO training input set.
    /** @} */

    /** @name Dispatch dynamics */
    /** @{ */
    double zipfSkew = 0.8;           //!< Handler popularity skew.
    double trainZipfSkew = 0.75;     //!< Training-run skew (inputs
                                     //!< differ from evaluation).
    /**
     * Handler frequency tiers.  Real PGO count distributions span
     * orders of magnitude: a core set of functions dominates, a rare
     * set barely executes.  Tier multipliers stack on the Zipf weight
     * and give Eq. 1/2 a meaningful hot/warm/cold separation.
     */
    double coreHandlerFraction = 0.30;  //!< Fraction boosted.
    double coreHandlerBoost = 400.0;    //!< Weight multiplier.
    double rareHandlerFraction = 0.30;  //!< Fraction damped.
    double rareHandlerDamp = 0.02;      //!< Weight multiplier.
    /** @} */

    /** @name Static code structure */
    /** @{ */
    std::uint32_t numHandlers = 128;
    std::uint32_t handlerBodyBBs = 12;
    std::uint32_t numHelpers = 192;
    std::uint32_t helperBodyBBs = 8;
    std::uint32_t numColdFuncs = 300;
    std::uint32_t coldBodyBBs = 6;
    std::uint32_t numExternalFuncs = 48;
    std::uint32_t externalBodyBBs = 8;
    std::uint32_t meanBBInstrs = 12; //!< Jittered per block.
    /** Fraction of plain body blocks with an unlikely-path block. */
    double rareBlockFraction = 0.5;
    /** Rare block size relative to its body block. */
    double rareBlockSizeRatio = 1.2;
    /** Probability of taking the unlikely path. */
    double unlikelyProb = 0.06;
    /** Extra fraction of unpredictable (50/50) plain branches. */
    double branchNoise = 0.05;
    /** @} */

    /** @name Loops and calls */
    /** @{ */
    double loopBBFraction = 0.12;
    double loopIterMean = 4.0;
    std::uint32_t loopBodyLen = 2;
    double helperCallBBFraction = 0.28;
    double helperCallProb = 0.55;
    double helperZipfSkew = 1.1;
    double coldCallProb = 0.03;     //!< Fire rate of cold call sites.
    double externalCallProb = 0.05;  //!< Fire rate of external calls.
    std::uint32_t maxCallDepth = 8;
    /** @} */

    /** @name Data behavior */
    /** @{ */
    std::vector<DataRegionSpec> regions;
    double dataAccessesPerBB = 0.8;
    /** @} */

    /** @name Synthetic backend components (Top-Down realism) */
    /** @{ */
    double dependStallPerInstr = 0.28;
    double issueStallPerInstr = 0.10;
    double otherStallPerInstr = 0.05;
    /** @} */

    /** Non-text binary bytes (data, rodata, symtab) for Table 5. */
    std::uint64_t extraBinaryBytes = 512 * 1024;
    /** Never-executed cold text bloat appended by the layout. */
    std::uint64_t extraColdTextBytes = 0;

    Addr dataBase = 0x10000000ull;

    /** Field by field: equal params build the same workload. */
    auto operator<=>(const WorkloadParams &) const = default;
};

} // namespace trrip

#endif // TRRIP_WORKLOADS_SPEC_HH
