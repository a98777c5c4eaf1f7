/**
 * @file
 * Measures what the experiment-orchestration layer buys on one fixed
 * grid (4 workloads x 4 policies):
 *   1. serial, per-row profile collection (worst case; the serial
 *      seed harness sat between 1 and 2 -- it cached profiles per
 *      workload within a sweep but re-collected them per config and
 *      per binary, as in the old fig8/fig9 loops).  A row -- one
 *      workload and config, all four policies as the lanes of one
 *      engine -- collects once either way, so on this one-config
 *      grid 1 and 2 do the same work;
 *   2. serial, shared ProfileCache;
 *   3. TRRIP_JOBS-wide pool, shared ProfileCache.
 * Profile reuse pays off when a workload spans several rows (configs
 * or binaries); the pool scales the rows across cores.
 *
 * A saturation sweep follows: the same grid submitted k times
 * concurrently (k = 1, 2, 4, 8) to one warm TRRIP_JOBS-wide runner,
 * reporting cells/second per in-flight count.  submit() is
 * non-blocking and cells steal across specs, so cells/sec should
 * plateau once the in-flight work covers the pool -- the number a
 * fleet scheduler needs to pick its specs-per-host.
 *
 * Timing is machine-dependent, so besides the printed table the
 * rows go to a PERF_runner_scaling.json sidecar (TRRIP_RESULTS_DIR)
 * making the orchestration-layer speedup machine-checkable alongside
 * the throughput sidecars.  BENCH_* files never carry timing.
 */

#include <chrono>
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
    return base + "/PERF_runner_scaling.json";
}

} // namespace

int
main()
{
    using namespace trrip;
    using namespace trrip::exp;
    using namespace trrip::bench;

    ExperimentSpec spec;
    spec.name = "runner_scaling";
    spec.title = "Orchestration scaling on a 4x4 grid";
    spec.workloads = {"python", "deepsjeng", "gcc", "sqlite"};
    spec.policies = {"SRRIP", "CLIP", "TRRIP-1", "TRRIP-2"};
    spec.options = defaultOptions();

    struct Mode
    {
        const char *label;
        const char *key;
        unsigned threads;
        bool reuse;
    };
    const Mode modes[] = {
        {"serial, per-row profiles", "serial_per_cell_profiles", 1,
         false},
        {"serial, shared profile cache", "serial_shared_cache", 1,
         true},
        {"parallel, shared profile cache", "parallel_shared_cache",
         ExperimentRunner::defaultJobs(), true},
    };

    struct Row
    {
        const Mode *mode;
        unsigned threadsUsed;
        double wallSeconds;
        double speedup;
        std::uint64_t collections;
        std::uint64_t hits;
    };
    std::vector<Row> rows;

    banner(spec.title);
    double base_wall = 0.0;
    for (const Mode &mode : modes) {
        ExperimentRunner runner(mode.threads);
        runner.setProfileReuse(mode.reuse);
        const auto results = runner.run(spec);
        if (base_wall == 0.0)
            base_wall = results.wallSeconds;
        Row row;
        row.mode = &mode;
        row.threadsUsed = results.threadsUsed;
        row.wallSeconds = results.wallSeconds;
        row.speedup = results.wallSeconds > 0.0
                          ? base_wall / results.wallSeconds
                          : 0.0;
        row.collections = results.profileCollections;
        row.hits = results.profileHits;
        rows.push_back(row);
        std::printf("%-34s %2u threads  %6.2fs wall  %5.2fx vs "
                    "per-row   (%llu profile collections, %llu "
                    "hits)\n",
                    mode.label, row.threadsUsed, row.wallSeconds,
                    row.speedup,
                    static_cast<unsigned long long>(row.collections),
                    static_cast<unsigned long long>(row.hits));
    }
    std::printf("\nProfile reuse removes repeated instrumented runs "
                "across rows; the pool then scales the rows across "
                "cores.\n");

    // --- Saturation sweep: k grids in flight on one warm runner. ---
    banner("Submission saturation (cells/second vs in-flight grids)");
    struct SatRow
    {
        unsigned inFlight;
        std::size_t cells;
        double wallSeconds;
        double cellsPerSec;
    };
    std::vector<SatRow> saturation;
    {
        ExperimentRunner runner(0);
        // Warm the profile cache so the sweep times evaluation runs,
        // not first-touch profile collection.
        runner.run(spec);
        for (const unsigned k : {1u, 2u, 4u, 8u}) {
            std::vector<PendingRun> pending;
            const auto t0 = std::chrono::steady_clock::now();
            for (unsigned i = 0; i < k; ++i)
                pending.push_back(runner.submit(spec));
            for (PendingRun &run : pending)
                run.wait();
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            SatRow row;
            row.inFlight = k;
            row.cells = k * spec.cellCount();
            row.wallSeconds = wall;
            row.cellsPerSec =
                wall > 0.0 ? static_cast<double>(row.cells) / wall
                           : 0.0;
            saturation.push_back(row);
            std::printf("%2u grid(s) in flight  %3zu cells  %6.2fs "
                        "wall  %7.2f cells/s\n",
                        row.inFlight, row.cells, row.wallSeconds,
                        row.cellsPerSec);
        }
    }

    const std::string path = sidecarPath();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    out << "{\n  \"bench\": \"runner_scaling\",\n";
    out << "  \"budget_instructions\": "
        << resolveBudget(spec.options) << ",\n";
    out << "  \"cells\": " << spec.cellCount() << ",\n";
    out << "  \"modes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"mode\": \"%s\", \"threads\": %u, "
                      "\"wall_seconds\": %.6f, "
                      "\"speedup_vs_per_cell\": %.3f, "
                      "\"profile_collections\": %llu, "
                      "\"profile_hits\": %llu}%s\n",
                      row.mode->key, row.threadsUsed, row.wallSeconds,
                      row.speedup,
                      static_cast<unsigned long long>(row.collections),
                      static_cast<unsigned long long>(row.hits),
                      i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ],\n";
    out << "  \"saturation\": [\n";
    for (std::size_t i = 0; i < saturation.size(); ++i) {
        const SatRow &row = saturation[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "    {\"in_flight\": %u, \"cells\": %zu, "
                      "\"wall_seconds\": %.6f, \"cells_per_sec\": "
                      "%.3f}%s\n",
                      row.inFlight, row.cells, row.wallSeconds,
                      row.cellsPerSec,
                      i + 1 < saturation.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
