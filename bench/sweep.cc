/**
 * @file
 * Generic grid sweep -- the scaffold future experiments plug into
 * without writing a new binary.  The axes come from the environment:
 *   TRRIP_SWEEP_WORKLOADS  comma list (default: all ten proxies)
 *   TRRIP_SWEEP_POLICIES   comma list of registry policy specs, e.g.
 *                          "SRRIP(bits=3),DRRIP(psel_bits=8)"
 *                          (commas inside parentheses belong to the
 *                          spec, not the list; default: Fig. 6 set)
 *   TRRIP_INSTR_MILLIONS   per-cell budget
 *   TRRIP_JOBS             pool width
 * Output: the per-cell metric table plus BENCH_sweep.json (and .csv
 * with TRRIP_CSV=1), the standard sinks.
 */

#include <cstdlib>

#include "core/policy_registry.hh"
#include "harness.hh"

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    ExperimentSpec spec;
    spec.name = "sweep";
    spec.title = "Generic (workload x policy) sweep";
    spec.workloads = envList("TRRIP_SWEEP_WORKLOADS", proxyNames());
    spec.policies =
        envList("TRRIP_SWEEP_POLICIES", evaluatedPolicyNames());
    spec.options = defaultOptions();

    // The per-cell table is this bench's primary output, written
    // beside the standard sinks.
    TableSink table;
    runExperiment(spec, sharedRunner(), {&table});
    return 0;
}
