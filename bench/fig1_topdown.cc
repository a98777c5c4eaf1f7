/**
 * @file
 * Reproduces paper Fig. 1: Top-Down cycle breakdown of the hottest
 * mobile system-software components (interp, ui, graphics, render,
 * js_runtime), compiled with PGO, on the Table 1 configuration.
 * The paper's phone PMU profile is substituted by the simulator's
 * cycle accounting (sim/core_model.hh).
 */

#include <cstdio>

#include "harness.hh"

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    ExperimentSpec spec;
    spec.name = "fig1_topdown";
    spec.title = "Figure 1: Top-Down breakdown of system software (PGO)";
    spec.workloads = systemComponentNames();
    spec.policies = {"SRRIP"};
    spec.options = defaultOptions();
    const auto results = runExperiment(spec);

    banner(spec.title);
    printHeader("component", {"retire", "backend", "mispred.",
                              "frontend"});
    for (const auto &name : spec.workloads) {
        const TopDown &td = results.result(name, "SRRIP").topdown;
        // Fig. 1 folds the buckets into four groups: frontend =
        // ifetch, backend = depend+issue+mem+other.
        const double backend =
            td.depend + td.issue + td.mem + td.other;
        printRow(name,
                 {td.fraction(td.retire), td.fraction(backend),
                  td.fraction(td.mispred), td.fraction(td.ifetch)});
    }
    std::printf("\nPaper: every component stays noticeably "
                "frontend-bound even with PGO applied.\n");
    return 0;
}
