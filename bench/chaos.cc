/**
 * @file
 * Chaos bench: proves the failure-containment contract end to end.
 *
 * Three phases, mirroring the acceptance criteria of the robustness
 * layer:
 *
 *  1. A fault-free mixed proxy+trace grid establishes the reference
 *     BENCH files.
 *  2. A matrix of TRRIP_FAULT-style configurations runs the same grid
 *     in Retry mode: the grid must complete without aborting, every
 *     retried cell must converge, and the converged BENCH files must
 *     be byte-identical to the fault-free ones.  Every site the
 *     matrix names must fire at least once, and faults must fire at
 *     >= 3 distinct sites; the per-site counts are printed.
 *  3. A high-rate Skip-mode run proves the accounting: every final
 *     cell failure appears as exactly one categorized error row.
 *
 * Exits non-zero when any check fails.  The pinned goldens are
 * checked by ctest -L golden and bench/perf's gate, not here.  Env
 * knobs: TRRIP_JOBS, TRRIP_TRACE_DIR, TRRIP_RESULTS_DIR.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "trace/generate.hh"
#include "trace/replay.hh"
#include "util/fault.hh"

namespace {

using namespace trrip;
using namespace trrip::exp;
using namespace trrip::bench;

std::string
traceDir()
{
    const char *dir = std::getenv("TRRIP_TRACE_DIR");
    return (dir && *dir) ? dir : "mini_traces";
}

std::string
resultsPath(const std::string &file)
{
    const char *dir = std::getenv("TRRIP_RESULTS_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/" + file;
}

/** Whole-file read for the BENCH byte comparisons; empty on failure. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

} // namespace

int
main()
{
    banner("chaos: fault injection vs the containment contract");
    FaultInjector &injector = FaultInjector::instance();
    injector.configure("");

    const std::string dir = traceDir();
    const std::vector<std::string> pack =
        trace::generateMiniTracePack(dir);
    bool all_ok = true;

    // A mixed proxy+trace grid, small enough to iterate on but wide
    // enough that every injection site is live: pipeline builds
    // (proxy workloads), trace chunk reads (trace workloads), cell
    // compute, and journal writes (the sink_write site, exercised by
    // attaching a run journal below).
    const auto makeSpec = [&](const std::string &name) {
        ExperimentSpec spec;
        spec.name = name;
        spec.title = "chaos grid";
        spec.workloads = {"python", "gcc"};
        for (const std::string &path : pack)
            spec.workloads.push_back(trace::kTracePrefix + path);
        spec.policies = {"SRRIP", "TRRIP-1"};
        spec.options = defaultOptions();
        spec.options.maxInstructions = 200000;
        return spec;
    };

    // -------------------------------------------- 1. fault-free ref
    const std::string ref_json = resultsPath("BENCH_chaos_ref.json");
    const std::string ref_csv = resultsPath("BENCH_chaos_ref.csv");
    {
        ExperimentRunner runner;
        ExperimentSpec spec = makeSpec("chaos");
        JsonSink json(ref_json);
        CsvSink csv(ref_csv);
        const ExperimentResults results = runner.run(spec, {&json, &csv});
        printRunSummary(results);
        if (results.cellsFailed != 0) {
            std::printf("FAIL: fault-free run produced %llu error rows\n",
                        static_cast<unsigned long long>(
                            results.cellsFailed));
            all_ok = false;
        }
    }
    const std::string ref_json_bytes = slurp(ref_json);
    const std::string ref_csv_bytes = slurp(ref_csv);
    all_ok = all_ok && !ref_json_bytes.empty();

    // ---------------------------------------- 2. retry convergence
    // Each config names a different site mix; rates are high enough
    // to fire constantly yet low enough that 8 attempts converge
    // (attempts re-roll the draw, so a p-rate fault leaves ~p^8
    // residual per cell).  A trace row loads its chunks once for all
    // of its policy lanes, so the trace_read rates are per row; a
    // proxy row builds its workload once per attempt, so the build
    // rates are per row attempt (at build:1/4 and build:1/6 these
    // seeds never fire it).
    const std::vector<std::string> matrix = {
        "cell:1/4,seed=7",
        "trace_read:1/32,build:2/7,seed=11",
        "cell:1/5,trace_read:1/128,build:1/4,sink_write:1/3,seed=13",
    };
    // Firings per site over the whole matrix (configure() zeroes the
    // injector's tallies, so each config's are read after its run).
    std::array<std::uint64_t, kNumFaultSites> fired_at{};
    bool converged = true, bench_identical = true;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
        injector.configure(matrix[k]);
        const std::string out_json = resultsPath(
            "BENCH_chaos_faulty" + std::to_string(k) + ".json");
        const std::string out_csv = resultsPath(
            "BENCH_chaos_faulty" + std::to_string(k) + ".csv");
        const std::string journal = resultsPath(
            "JOURNAL_chaos_faulty" + std::to_string(k) + ".jsonl");
        std::remove(journal.c_str());

        ExperimentRunner runner;
        ExperimentSpec spec = makeSpec("chaos");
        spec.onError.mode = OnError::Mode::Retry;
        spec.onError.maxAttempts = 8;
        // The journal gives the sink_write site a target (its append
        // path carries the injection point) and doubles as a resume
        // smoke test input.
        spec.journal = journal;
        JsonSink json(out_json);
        CsvSink csv(out_csv);
        const ExperimentResults results = runner.run(spec, {&json, &csv});
        printRunSummary(results);

        std::printf("  config '%s': %llu attempts failed, %llu cells "
                    "retried; fired:",
                    matrix[k].c_str(),
                    static_cast<unsigned long long>(
                        results.failedAttempts),
                    static_cast<unsigned long long>(
                        results.cellsRetried));
        for (std::size_t s = 0; s < kNumFaultSites; ++s) {
            const auto site = static_cast<FaultSite>(s);
            fired_at[s] += injector.firedCount(site);
            std::printf(" %s=%llu", faultSiteName(site),
                        static_cast<unsigned long long>(
                            injector.firedCount(site)));
        }
        std::printf("\n");
        if (results.cellsFailed != 0) {
            std::printf("FAIL: retry mode left %llu unconverged "
                        "cells\n",
                        static_cast<unsigned long long>(
                            results.cellsFailed));
            converged = false;
        }
        if (injector.totalFired() == 0) {
            std::printf("FAIL: config fired no faults\n");
            converged = false;
        }
        if (slurp(out_json) != ref_json_bytes ||
            slurp(out_csv) != ref_csv_bytes) {
            std::printf("FAIL: converged BENCH differs from the "
                        "fault-free reference\n");
            bench_identical = false;
        }
    }
    all_ok = all_ok && converged && bench_identical;

    // A site that the matrix names but that never fires is a dead
    // injection point: the containment path behind it went untested.
    int sites_fired = 0;
    for (std::size_t s = 0; s < kNumFaultSites; ++s) {
        const char *name = faultSiteName(static_cast<FaultSite>(s));
        const bool named = std::ranges::any_of(
            matrix, [name](const std::string &spec) {
                return spec.find(std::string(name) + ":") !=
                       std::string::npos;
            });
        std::printf("site %-10s fired %llu times over the matrix\n",
                    name, static_cast<unsigned long long>(fired_at[s]));
        sites_fired += fired_at[s] > 0 ? 1 : 0;
        if (named && fired_at[s] == 0) {
            std::printf("FAIL: site %s is named in the matrix but "
                        "never fired\n",
                        name);
            all_ok = false;
        }
    }
    if (sites_fired < 3) {
        std::printf("FAIL: faults fired at only %d distinct sites; "
                    "the matrix must cover >= 3\n",
                    sites_fired);
        all_ok = false;
    }

    // ------------------------------------------ 2b. journal resume
    // Resubmit the last faulty spec with its journal: every cell
    // must replay from the journal (no recompute) and the BENCH file
    // must still be byte-identical to the fault-free reference.
    {
        injector.configure("");
        const std::string journal = resultsPath(
            "JOURNAL_chaos_faulty" +
            std::to_string(matrix.size() - 1) + ".jsonl");
        const std::string out_json =
            resultsPath("BENCH_chaos_resume.json");
        ExperimentRunner runner;
        ExperimentSpec spec = makeSpec("chaos");
        spec.journal = journal;
        JsonSink json(out_json);
        const ExperimentResults results = runner.run(spec, {&json});
        printRunSummary(results);
        if (results.cellsResumed == 0) {
            std::printf("FAIL: resume replayed no cells from %s\n",
                        journal.c_str());
            all_ok = false;
        }
        if (slurp(out_json) != ref_json_bytes) {
            std::printf("FAIL: resumed BENCH differs from the "
                        "fault-free reference\n");
            all_ok = false;
        }
    }

    // ----------------------------------------- 3. skip accounting
    // High rates, no retries: the grid must still complete, and every
    // final failure must surface as exactly one categorized error row.
    {
        injector.configure("cell:1/2,trace_read:1/2,build:1/3,seed=29");
        ExperimentRunner runner;
        ExperimentSpec spec = makeSpec("chaos");
        spec.onError.mode = OnError::Mode::Skip;
        JsonSink json(resultsPath("BENCH_chaos_skip.json"));
        const ExperimentResults results = runner.run(spec, {&json});
        printRunSummary(results);
        const std::uint64_t skip_failed = results.cellsFailed;
        std::uint64_t skip_error_rows = 0;
        for (const CellRecord &rec : results.cells()) {
            if (!rec.valid || !rec.failed)
                continue;
            ++skip_error_rows;
            if (rec.errorCategory.empty() || rec.errorMessage.empty()) {
                std::printf("FAIL: error row without category/message "
                            "(%s / %s)\n",
                            rec.workload.c_str(), rec.policy.c_str());
                all_ok = false;
            }
        }
        if (skip_failed != skip_error_rows) {
            std::printf("FAIL: %llu cell failures vs %llu error rows\n",
                        static_cast<unsigned long long>(skip_failed),
                        static_cast<unsigned long long>(
                            skip_error_rows));
            all_ok = false;
        }
        if (skip_failed == 0) {
            std::printf("FAIL: skip run fired no failures at 1/2 "
                        "rates\n");
            all_ok = false;
        }
    }
    injector.configure("");

    std::printf("%s\n", all_ok ? "chaos: PASS" : "chaos: FAIL");
    return all_ok ? 0 : 1;
}
