/**
 * @file
 * Microbenchmark: cost of one L2 access + fill decision per
 * replacement policy (simulator-side overhead; also a proxy for the
 * relative decision-logic complexity of each policy).  Each policy is
 * one experiment cell with a custom executor that times a fixed 16
 * passes of a deterministic 64k-request churn loop.
 *
 * BENCH_micro_policy.json carries only the deterministic counts
 * (accesses, misses); the timing goes to the PERF_micro_policy.json
 * sidecar (TRRIP_RESULTS_DIR) and the printed table.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "cache/cache.hh"
#include "core/policy_registry.hh"
#include "harness.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace trrip;

std::vector<MemRequest>
churnRequests()
{
    Rng rng(42);
    std::vector<MemRequest> reqs;
    reqs.reserve(65536);
    for (int i = 0; i < 65536; ++i) {
        MemRequest r;
        const bool inst = rng.chance(0.5);
        r.vaddr = r.paddr = rng.below(2 * 1024 * 1024);
        r.pc = r.vaddr;
        r.type = inst ? AccessType::InstFetch : AccessType::Load;
        r.temp = inst && rng.chance(0.4) ? Temperature::Hot
                                         : Temperature::None;
        r.priority = rng.chance(0.1);
        reqs.push_back(r);
    }
    return reqs;
}

std::string
sidecarPath()
{
    const char *dir = std::getenv("TRRIP_RESULTS_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/PERF_micro_policy.json";
}

} // namespace

int
main()
{
    using namespace trrip::exp;
    using namespace trrip::bench;

    constexpr unsigned kPasses = 16;

    ExperimentSpec spec;
    spec.name = "micro_policy";
    spec.title = "Microbenchmark: L2 access+fill cost per policy";
    spec.workloads = {"churn"};
    // Registry spec strings; the wide-RRPV SRRIP shows the parameter
    // grammar's cost is in the policy, not the construction path.
    spec.policies = {"LRU",  "SRRIP",    "SRRIP(bits=3)", "BRRIP",
                     "DRRIP", "SHiP",    "CLIP",     "Emissary",
                     "TRRIP-1", "TRRIP-2"};
    // Wall time per policy, kept out of the BENCH metrics.
    std::vector<double> ns_per_access(spec.policies.size(), 0.0);
    spec.runCell = [&ns_per_access](const CellContext &ctx) {
        const CacheGeometry geom{"L2", 128 * 1024, 8, 64};
        Cache cache(geom, PolicySpec(ctx.policy));
        const auto reqs = churnRequests();

        std::uint64_t misses = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned pass = 0; pass < kPasses; ++pass) {
            for (const MemRequest &r : reqs) {
                if (!cache.access(r)) {
                    ++misses;
                    cache.fill(r);
                }
            }
        }
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        const double accesses =
            static_cast<double>(kPasses) * static_cast<double>(reqs.size());
        ns_per_access[ctx.id.policy] = 1e9 * elapsed / accesses;
        CellOutcome out;
        out.metrics["accesses"] = accesses;
        out.metrics["misses"] = static_cast<double>(misses);
        return out;
    };
    // Timing cells must not compete for cores: force a serial runner
    // instead of the TRRIP_JOBS-wide shared pool.
    ExperimentRunner serial(1);
    runExperiment(spec, serial);

    banner(spec.title);
    printHeader("policy", {"ns/access", "Maccess/s"});
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
        const double ns = ns_per_access[p];
        printRow(spec.policies[p], {ns, ns > 0.0 ? 1e3 / ns : 0.0});
    }

    const std::string path = sidecarPath();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    out << "{\n  \"bench\": \"micro_policy\",\n";
    out << "  \"passes\": " << kPasses << ",\n";
    out << "  \"ns_per_access\": {";
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f",
                      p ? ", " : "", spec.policies[p].c_str(),
                      ns_per_access[p]);
        out << buf;
    }
    out << "}\n}\n";
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
