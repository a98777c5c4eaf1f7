/**
 * @file
 * Simulation-throughput benchmark: simulated Minstr/s per replacement
 * policy on the Fig. 6 workload mix (all ten proxy benchmarks).
 *
 * Timing is wall-clock and therefore machine-dependent, so it goes to
 * a separate PERF_throughput.json sidecar -- never into a BENCH_*.json
 * file, which stay byte-reproducible across runs, machines and thread
 * counts.  The grid runs on a dedicated single-threaded runner (cells
 * back to back on one core) after a warm-up pass that fills the shared
 * profile cache, so the measured time is simulation, not PGO training
 * or thread scheduling.
 *
 * Env knobs: TRRIP_INSTR_MILLIONS (per-cell budget), TRRIP_RESULTS_DIR
 * (sidecar directory), TRRIP_PERF_POLICIES (comma-separated policy
 * specs overriding the default set).
 *
 * Stub attribution (TRRIP_STUB_ATTRIBUTION=1): additionally runs the
 * mix with each engine layer stubbed to a no-op (CoreParams::stubMask,
 * kStub* in sim/core_model.hh) and reports the per-instruction cost
 * attributed to that layer as ns(full) - ns(stubbed) -- the
 * measurement behind the ROADMAP per-layer budget table, now
 * regenerable by CI.  Each (mask) point is measured over
 * TRRIP_STUB_ROUNDS interleaved rounds (default 3) taking the best
 * round, which rejects container frequency jitter.  Stubbed runs
 * simulate different behavior by construction; their timings go only
 * into the sidecar's "stub_attribution" block, never into BENCH data.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "util/logging.hh"

namespace {

std::string
sidecarPath()
{
    const char *dir = std::getenv("TRRIP_RESULTS_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/PERF_throughput.json";
}

struct PolicyTiming
{
    std::string policy;
    std::uint64_t instructions = 0;
    double wallSeconds = 0.0;

    double
    minstrPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(instructions) / 1e6 /
                         wallSeconds
                   : 0.0;
    }
};

/** One stub-attribution lever: a layer stubbed out of the engine. */
struct StubPoint
{
    const char *layer;
    unsigned mask;
    std::uint64_t instructions = 0;
    double bestWallSeconds = 0.0;

    double
    nsPerInstr() const
    {
        return instructions > 0
                   ? bestWallSeconds * 1e9 /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    /**
     * Per-instruction cost attributed to this lever's layer.  The
     * exec lever is producer-only, so its own rate IS the executor
     * cost; every other lever removes one layer from the full
     * engine, so its cost is the difference from @p full_ns.
     */
    double
    attributedNs(double full_ns) const
    {
        if (mask == trrip::kStubNone)
            return 0.0;
        return mask == trrip::kStubExec ? nsPerInstr()
                                        : full_ns - nsPerInstr();
    }
};

} // namespace

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    ExperimentSpec spec;
    spec.name = "throughput";
    spec.title = "Simulation throughput (simulated Minstr/s, serial)";
    spec.workloads = proxyNames();
    spec.options = defaultOptions();

    // Serial runner: per-policy wall time is one core simulating cells
    // back to back, directly comparable across policies and commits.
    ExperimentRunner runner(1);

    // Warm-up: collect every workload's training profile once so the
    // timed passes measure simulation only.  The cheapest way to walk
    // all workloads is a one-policy grid whose timing we discard.
    spec.policies = {"SRRIP"};
    runner.run(spec, {});

    banner(spec.title);
    const std::vector<std::string> policies = envList(
        "TRRIP_PERF_POLICIES",
        {"SRRIP", "LRU", "DRRIP", "SHiP", "TRRIP-2"});
    std::vector<PolicyTiming> timings;
    std::uint64_t total_instr = 0;
    double total_wall = 0.0;
    for (const std::string &policy : policies) {
        spec.policies = {policy};
        const ExperimentResults results = runner.run(spec, {});
        PolicyTiming t;
        t.policy = policy;
        t.wallSeconds = results.wallSeconds;
        for (const CellRecord &cell : results.cells()) {
            if (cell.valid)
                t.instructions += cell.result().instructions;
        }
        total_instr += t.instructions;
        total_wall += t.wallSeconds;
        std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f Minstr/s\n",
                    policy.c_str(),
                    static_cast<double>(t.instructions) / 1e6,
                    t.wallSeconds, t.minstrPerSec());
        timings.push_back(t);
    }

    PolicyTiming total;
    total.policy = "total";
    total.instructions = total_instr;
    total.wallSeconds = total_wall;
    std::printf("%-12s %8.2f Minstr in %7.2f s -> %7.2f Minstr/s\n",
                "total", static_cast<double>(total_instr) / 1e6,
                total_wall, total.minstrPerSec());

    // --- Optional per-layer stub attribution sweep. ---
    std::vector<StubPoint> stubs;
    double stub_setup_seconds = 0.0;
    const char *attr_env = std::getenv("TRRIP_STUB_ATTRIBUTION");
    if (attr_env && *attr_env && std::string(attr_env) != "0") {
        const char *pol_env = std::getenv("TRRIP_STUB_POLICY");
        const std::string stub_policy =
            (pol_env && *pol_env) ? pol_env : "SRRIP";
        int rounds = 3;
        if (const char *r = std::getenv("TRRIP_STUB_ROUNDS"))
            rounds = std::max(1, std::atoi(r));

        stubs = {
            {"none", kStubNone},
            {"hier", kStubHier},
            {"branch", kStubBranch},
            {"mmu", kStubMmu},
            {"exec", kStubExec},
        };
        banner("Stub attribution (" + stub_policy +
               "): best of " + std::to_string(rounds) +
               " interleaved rounds");
        spec.policies = {stub_policy};

        // Per-cell fixed setup (workload build, classification,
        // layout, load, hierarchy construction) is identical for
        // every lever and is NOT engine work.  It cancels in the
        // differenced levers but would inflate the full and exec
        // rows -- grossly so at small CI budgets -- so it is
        // measured once with a 1-instruction budget and subtracted
        // from every lever's wall time.
        double setup_wall = 0.0;
        spec.configs.clear();
        spec.configs.push_back({"setup", [](SimOptions &o) {
                                    o.maxInstructions = 1;
                                }});
        for (int round = 0; round < rounds; ++round) {
            const ExperimentResults results = runner.run(spec, {});
            if (setup_wall == 0.0 ||
                results.wallSeconds < setup_wall) {
                setup_wall = results.wallSeconds;
            }
        }

        for (int round = 0; round < rounds; ++round) {
            for (StubPoint &stub : stubs) {
                const unsigned mask = stub.mask;
                spec.configs.clear();
                spec.configs.push_back(
                    {stub.layer, [mask](SimOptions &o) {
                         o.core.stubMask = mask;
                     }});
                const ExperimentResults results = runner.run(spec, {});
                std::uint64_t instr = 0;
                for (const CellRecord &cell : results.cells()) {
                    if (cell.valid)
                        instr += cell.result().instructions;
                }
                stub.instructions = instr;
                if (stub.bestWallSeconds == 0.0 ||
                    results.wallSeconds < stub.bestWallSeconds) {
                    stub.bestWallSeconds = results.wallSeconds;
                }
            }
        }
        spec.configs.clear();

        // Net out the fixed setup (floored at zero: the setup run is
        // itself a noisy measurement).
        stub_setup_seconds = setup_wall;
        for (StubPoint &stub : stubs) {
            stub.bestWallSeconds =
                std::max(0.0, stub.bestWallSeconds - setup_wall);
        }

        const double full_ns = stubs.front().nsPerInstr();
        double attributed_sum = 0.0;
        std::printf("per-cell setup: %.3f s (subtracted from every "
                    "lever)\n", setup_wall);
        std::printf("%-8s %14s %14s\n", "layer", "stubbed ns/i",
                    "attributed ns");
        std::printf("%-8s %14.2f %14s\n", "full", full_ns, "-");
        for (const StubPoint &stub : stubs) {
            if (stub.mask == kStubNone)
                continue;
            const double attributed = stub.attributedNs(full_ns);
            attributed_sum += attributed;
            std::printf("%-8s %14.2f %14.2f\n", stub.layer,
                        stub.nsPerInstr(), attributed);
        }
        std::printf("%-8s %14s %14.2f  (full - sum of levers)\n",
                    "core", "-", full_ns - attributed_sum);
    }

    const std::string path = sidecarPath();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    out << "{\n  \"bench\": \"throughput\",\n";
    out << "  \"budget_instructions\": "
        << resolveBudget(spec.options) << ",\n";
    out << "  \"workloads\": " << spec.workloads.size() << ",\n";
    out << "  \"policies\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const PolicyTiming &t = timings[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"policy\": \"%s\", \"instructions\": %llu, "
                      "\"wall_seconds\": %.6f, "
                      "\"minstr_per_sec\": %.3f}%s\n",
                      t.policy.c_str(),
                      static_cast<unsigned long long>(t.instructions),
                      t.wallSeconds, t.minstrPerSec(),
                      i + 1 < timings.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"total\": {\"instructions\": %llu, "
                  "\"wall_seconds\": %.6f, \"minstr_per_sec\": %.3f}%s\n",
                  static_cast<unsigned long long>(total.instructions),
                  total.wallSeconds, total.minstrPerSec(),
                  stubs.empty() ? "" : ",");
    out << buf;
    if (!stubs.empty()) {
        const double full_ns = stubs.front().nsPerInstr();
        std::snprintf(buf, sizeof(buf),
                      "  \"stub_setup_seconds\": %.6f,\n",
                      stub_setup_seconds);
        out << buf;
        out << "  \"stub_attribution\": [\n";
        for (std::size_t i = 0; i < stubs.size(); ++i) {
            const StubPoint &stub = stubs[i];
            std::snprintf(buf, sizeof(buf),
                          "    {\"layer\": \"%s\", \"ns_per_instr\": %.3f, "
                          "\"attributed_ns_per_instr\": %.3f}%s\n",
                          stub.layer, stub.nsPerInstr(),
                          stub.attributedNs(full_ns),
                          i + 1 < stubs.size() ? "," : "");
            out << buf;
        }
        out << "  ]\n";
    }
    out << "}\n";
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
