/**
 * @file
 * Reproduces paper Fig. 7: coverage of the top-Nth-percentile costly
 * instruction misses (misses that starved decode, weighted by exposed
 * stall) by TRRIP's .text.hot section -- (a) over all code and
 * (b) excluding external (PLT / shared-library) code.
 */

#include <cstdio>
#include <map>

#include "analysis/costly_miss.hh"
#include "harness.hh"

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    const std::vector<double> percentiles{50, 60, 70, 80, 90};
    std::vector<std::string> cols;
    for (double p : percentiles)
        cols.push_back(std::to_string(static_cast<int>(p)) + "%");

    ExperimentSpec spec;
    spec.name = "fig7_coverage";
    spec.title = "Figure 7: costly-miss coverage by hot text";
    spec.workloads = proxyNames();
    spec.policies = {"TRRIP-1"};
    spec.options = defaultOptions();
    spec.probes = [](const SimOptions &, const CellId &) {
        return std::make_shared<CostlyMissTracker>();
    };
    const auto results = runExperiment(spec);

    banner("Figure 7a: costly-miss coverage by hot text (%), "
           "all code");
    std::map<std::string, std::vector<double>> excl_rows;
    printHeader("benchmark", cols);
    for (const auto &name : spec.workloads) {
        const auto &rec = results.at(name, "TRRIP-1");
        const auto *tracker = rec.probeAs<CostlyMissTracker>();
        std::vector<double> incl, excl;
        for (double p : percentiles) {
            incl.push_back(100.0 * tracker->hotCoverage(
                                       rec.artifacts.image, p, false));
            excl.push_back(100.0 * tracker->hotCoverage(
                                       rec.artifacts.image, p, true));
        }
        printRow(name, incl);
        excl_rows[name] = excl;
    }

    banner("Figure 7b: coverage excluding external code (%)");
    printHeader("benchmark", cols);
    for (const auto &name : spec.workloads)
        printRow(name, excl_rows[name]);

    std::printf("\nPaper: external-heavy benchmarks (bullet, clamscan, "
                "omnetpp, rapidjson) show low coverage in (a); once "
                "external code is excluded (b), nearly all costly "
                "misses land in hot code.\n");
    return 0;
}
