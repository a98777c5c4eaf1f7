/**
 * @file
 * Ablation study beyond the paper's figures, covering the main
 * design choices of the reproduction:
 *   1. TRRIP-1 vs TRRIP-2 (warm handling);
 *   2. mixed-page policies of paper section 4.9 (disable-mark vs
 *      mark-dominant vs padded sections);
 *   3. page size sensitivity of the temperature interface;
 *   4. FDIP on/off (the paper's +1.4% claim for its pseudo-FDIP);
 *   5. profile robustness: training on the evaluation input
 *      (matched profile) vs the default differing input;
 *   6. TRRIP applied to the BTB (paper section 6 future work).
 */

#include <cstdio>

#include "harness.hh"
#include "util/stats.hh"

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    const std::vector<std::string> benches{"python", "deepsjeng",
                                           "gcc", "sqlite"};

    {
        ExperimentSpec spec;
        spec.name = "ablation1_variants";
        spec.title = "Ablation 1: TRRIP variants";
        spec.workloads = benches;
        spec.policies = {"SRRIP", "TRRIP-1", "TRRIP-2"};
        spec.options = defaultOptions();
        const auto results = runExperiment(spec);

        banner("Ablation 1: TRRIP variants, inst MPKI reduction (%)");
        printHeader("benchmark", {"TRRIP-1", "TRRIP-2"});
        for (const auto &name : benches) {
            const auto &base = results.result(name, "SRRIP");
            std::vector<double> row;
            for (const char *v : {"TRRIP-1", "TRRIP-2"})
                row.push_back(CoDesignPipeline::reductionPercent(
                    base.l2InstMpki,
                    results.result(name, v).l2InstMpki));
            printRow(name, row);
        }
    }

    {
        ExperimentSpec spec;
        spec.name = "ablation2_mixed_pages";
        spec.title = "Ablation 2: mixed-page handling";
        spec.workloads = benches;
        spec.policies = {"SRRIP", "TRRIP-1"};
        spec.configs = {
            {"disable", nullptr},
            {"dominant",
             [](SimOptions &o) {
                 o.pagePolicy = MixedPagePolicy::MarkDominant;
             }},
            {"padded",
             [](SimOptions &o) {
                 o.padSectionsToPage = true;
             }},
        };
        // The SRRIP baseline is the default build (config 0).
        spec.filter = [](const CellId &id) {
            return id.policy != 0 || id.config == 0;
        };
        spec.options = defaultOptions();
        const auto results = runExperiment(spec);

        banner("Ablation 2: mixed-page handling (TRRIP-1 speedup %)");
        printHeader("benchmark", {"disable", "dominant", "padded"});
        for (const auto &name : benches) {
            std::vector<double> row;
            for (std::size_t c = 0; c < 3; ++c)
                row.push_back(results.speedupPercent(
                    name, "SRRIP", "TRRIP-1", c, 0));
            printRow(name, row);
        }
    }

    {
        ExperimentSpec spec;
        spec.name = "ablation3_page_size";
        spec.title = "Ablation 3: temperature-interface page size";
        spec.workloads = benches;
        spec.policies = {"SRRIP", "TRRIP-1"};
        for (const std::uint32_t page :
             {4096u, 16u * 1024, 2048u * 1024}) {
            const std::string label =
                page >= 1024 * 1024
                    ? std::to_string(page / (1024 * 1024)) + "MB"
                    : std::to_string(page / 1024) + "kB";
            spec.configs.push_back({label, [page](SimOptions &o) {
                                        o.pageSize = page;
                                    }});
        }
        spec.options = defaultOptions();
        const auto results = runExperiment(spec);

        banner("Ablation 3: page size of the temperature interface "
               "(TRRIP-1 speedup %)");
        printHeader("benchmark", {"4kB", "16kB", "2MB"});
        for (const auto &name : benches) {
            std::vector<double> row;
            for (std::size_t c = 0; c < 3; ++c)
                row.push_back(results.speedupPercent(
                    name, "SRRIP", "TRRIP-1", c, c));
            printRow(name, row);
        }
    }

    {
        ExperimentSpec spec;
        spec.name = "ablation4_fdip";
        spec.title = "Ablation 4: pseudo-FDIP contribution";
        spec.workloads = proxyNames();
        spec.policies = {"SRRIP"};
        spec.configs = {
            {"fdip", nullptr},
            {"nofdip",
             [](SimOptions &o) { o.core.fdipEnabled = false; }},
        };
        spec.options = defaultOptions();
        const auto results = runExperiment(spec);

        banner("Ablation 4: pseudo-FDIP contribution (SRRIP speedup % "
               "over no-FDIP)");
        printHeader("benchmark", {"fdip-gain"});
        std::vector<double> fdip_gains;
        for (const auto &name : spec.workloads) {
            const double gain = results.speedupPercent(
                name, "SRRIP", "SRRIP", /*config=*/0,
                /*baseline_config=*/1);
            printRow(name, {gain});
            fdip_gains.push_back(gain);
        }
        printRow("geomean", {geomeanPercent(fdip_gains)});
    }

    {
        // Two workload-axis entries per benchmark: the default
        // (training input differs from evaluation) and a matched
        // variant training on the evaluation input itself.
        ExperimentSpec spec;
        spec.name = "ablation5_profile_input";
        spec.title = "Ablation 5: profile input robustness";
        for (const auto &name : benches) {
            spec.workloads.push_back(name);
            spec.workloads.push_back(name + "+same");
        }
        spec.paramsFor = [](const std::string &label) {
            const auto plus = label.find("+same");
            WorkloadParams params =
                proxyParams(label.substr(0, plus));
            if (plus != std::string::npos) {
                params.trainSeed = params.seed;
                params.trainZipfSkew = params.zipfSkew;
            }
            return params;
        };
        spec.policies = {"SRRIP", "TRRIP-1"};
        spec.options = defaultOptions();
        const auto results = runExperiment(spec);

        banner("Ablation 5: profile input robustness "
               "(TRRIP-1 speedup %)");
        printHeader("benchmark", {"diff-input", "same-input"});
        for (const auto &name : benches)
            printRow(name,
                     {results.speedupPercent(name, "SRRIP", "TRRIP-1"),
                      results.speedupPercent(name + "+same", "SRRIP",
                                             "TRRIP-1")});
    }

    {
        ExperimentSpec spec;
        spec.name = "ablation6_btb";
        spec.title = "Ablation 6: TRRIP applied to the BTB";
        spec.workloads = benches;
        spec.policies = {"SRRIP", "TRRIP-1"};
        spec.configs = {
            {"base", nullptr},
            {"btb",
             [](SimOptions &o) { o.branch.trripBtb = true; }},
        };
        spec.filter = [](const CellId &id) {
            return id.policy != 0 || id.config == 0;
        };
        spec.options = defaultOptions();
        const auto results = runExperiment(spec);

        banner("Ablation 6: TRRIP applied to the BTB (paper section 6 "
               "future work)");
        printHeader("benchmark", {"base-spd%", "btb-spd%", "btbMiss-%"});
        for (const auto &name : benches) {
            const auto &base = results.result(name, "TRRIP-1", 0);
            const auto &with_btb = results.result(name, "TRRIP-1", 1);
            printRow(
                name,
                {results.speedupPercent(name, "SRRIP", "TRRIP-1", 0, 0),
                 results.speedupPercent(name, "SRRIP", "TRRIP-1", 1, 0),
                 CoDesignPipeline::reductionPercent(
                     static_cast<double>(base.branch.btbMisses),
                     static_cast<double>(with_btb.branch.btbMisses))});
        }
    }

    std::printf("\nTakeaways: the variants are near-equivalent "
                "(paper section 4.4); page handling is second-order "
                "at mobile page sizes but matters at 2MB; FDIP is a "
                "small orthogonal gain; profiles tolerate input "
                "drift (the industry practice the paper notes).\n");
    return 0;
}
