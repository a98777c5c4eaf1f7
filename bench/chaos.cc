/**
 * @file
 * Chaos bench: proves the failure-containment contract end to end.
 *
 * Four phases, mirroring the acceptance criteria of the robustness
 * layer:
 *
 *  1. Injection disabled: all 19 single-core golden fingerprints (16
 *     proxy plus 3 trace-replay tuples from sim/golden.hh) must be
 *     unchanged -- the containment machinery costs nothing when quiet.
 *     (The 5 multi-core fingerprints are guarded by test_multicore
 *     and bench/multicore.)
 *  2. A fault-free mixed proxy+trace grid establishes the reference
 *     BENCH files.
 *  3. A matrix of TRRIP_FAULT-style configurations (faults at >= 3
 *     distinct sites) runs the same grid in Retry mode: the grid must
 *     complete without aborting, every retried cell must converge,
 *     and the converged BENCH files must be byte-identical to the
 *     fault-free ones.
 *  4. A high-rate Skip-mode run proves the accounting: every final
 *     cell failure appears as exactly one categorized error row.
 *
 * Results stream to PERF_chaos.json; tools/check_perf_floor.py
 * enforces the chaos block and cross-checks declared error rows
 * against the BENCH files in CI.  Env knobs: TRRIP_JOBS,
 * TRRIP_TRACE_DIR, TRRIP_RESULTS_DIR.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/golden.hh"
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

/**
 * Re-verify the pinned proxy golden tuples through the parallel
 * submit() path (same idiom as bench/throughput_parallel.cc).
 */
std::size_t
verifyGoldens(ExperimentRunner &runner)
{
    const std::vector<GoldenCase> &cases = goldenCases();
    ExperimentSpec spec;
    spec.name = "chaos_golden";
    for (std::size_t i = 0; i < cases.size(); ++i)
        spec.workloads.push_back("case-" + std::to_string(i));
    spec.policies = {"pinned"};
    spec.runCell = [&cases](const CellContext &ctx) {
        const GoldenCase &c = cases[ctx.id.workload];
        auto pipeline = ctx.arena->makeUnique<CoDesignPipeline>(
            proxyParams(c.workload));
        const RunArtifacts art = pipeline->run(c.policy, c.options());
        CellOutcome out;
        out.metrics["fingerprint_ok"] =
            goldenFingerprint(art.result) == c.expected ? 1.0 : 0.0;
        return out;
    };
    const ExperimentResults results = runner.run(spec, {});
    std::size_t matched = 0;
    for (const CellRecord &cell : results.cells())
        matched += cell.metrics.at("fingerprint_ok") == 1.0 ? 1 : 0;
    return matched;
}

/** Same for the pinned trace-replay tuples (bench/trace_replay.cc). */
std::size_t
verifyTraceGoldens(ExperimentRunner &runner, const std::string &dir)
{
    const std::vector<TraceGoldenCase> &cases = traceGoldenCases();
    ExperimentSpec spec;
    spec.name = "chaos_trace_golden";
    for (std::size_t i = 0; i < cases.size(); ++i)
        spec.workloads.push_back("case-" + std::to_string(i));
    spec.policies = {"pinned"};
    spec.runCell = [&cases, &dir](const CellContext &ctx) {
        const TraceGoldenCase &c = cases[ctx.id.workload];
        const std::string path = trace::miniTracePath(dir, c.trace);
        const RunArtifacts art =
            trace::runTrace(path, c.policy, c.options(),
                            ctx.profiles->traceIndex(path));
        CellOutcome out;
        out.metrics["fingerprint_ok"] =
            goldenFingerprint(art.result) == c.expected ? 1.0 : 0.0;
        return out;
    };
    const ExperimentResults results = runner.run(spec, {});
    std::size_t matched = 0;
    for (const CellRecord &cell : results.cells())
        matched += cell.metrics.at("fingerprint_ok") == 1.0 ? 1 : 0;
    return matched;
}

struct FaultConfig
{
    const char *spec;
    int sites; //!< Distinct sites the spec names.
};

} // namespace

int
main()
{
    banner("chaos: fault injection vs the containment contract");
    FaultInjector::instance().configure("");

    const std::string dir = traceDir();
    const std::vector<std::string> pack =
        trace::generateMiniTracePack(dir);
    bool all_ok = true;

    // ---------------------------------------------------- 1. goldens
    // With injection disabled the containment layer must be inert:
    // every pinned fingerprint still matches through the pool.
    std::size_t golden_total = 0, golden_matched = 0;
    {
        ExperimentRunner runner;
        golden_total = goldenCases().size() + traceGoldenCases().size();
        golden_matched = verifyGoldens(runner) +
                         verifyTraceGoldens(runner, dir);
    }
    std::printf("golden fingerprints (injection disabled): %zu/%zu "
                "matched\n",
                golden_matched, golden_total);
    all_ok = all_ok && golden_matched == golden_total;

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

    // -------------------------------------------- 2. fault-free ref
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

    // ---------------------------------------- 3. retry convergence
    // Each config names a different site mix; rates are high enough
    // to fire constantly yet low enough that 8 attempts converge
    // (attempts re-roll the draw, so a p-rate fault leaves ~p^8
    // residual per cell).  A trace row loads its chunks once for all
    // of its policy lanes, so the trace_read rates are per row.
    const std::vector<FaultConfig> matrix = {
        {"cell:1/4,seed=7", 1},
        {"trace_read:1/32,build:1/4,seed=11", 2},
        {"cell:1/5,trace_read:1/128,build:1/6,sink_write:1/3,seed=13", 4},
    };
    int sites_injected = 0;
    bool converged = true, bench_identical = true;
    std::uint64_t total_fired = 0;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
        FaultInjector::instance().configure(matrix[k].spec);
        FaultInjector::instance().resetCounts();
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

        const std::uint64_t fired =
            FaultInjector::instance().totalFired();
        total_fired += fired;
        sites_injected = std::max(sites_injected, matrix[k].sites);
        std::printf("  config '%s': %llu faults fired, %llu attempts "
                    "failed, %llu cells retried\n",
                    matrix[k].spec,
                    static_cast<unsigned long long>(fired),
                    static_cast<unsigned long long>(
                        results.failedAttempts),
                    static_cast<unsigned long long>(
                        results.cellsRetried));
        if (results.cellsFailed != 0) {
            std::printf("FAIL: retry mode left %llu unconverged "
                        "cells\n",
                        static_cast<unsigned long long>(
                            results.cellsFailed));
            converged = false;
        }
        if (fired == 0) {
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

    // ------------------------------------------ 3b. journal resume
    // Resubmit the last faulty spec with its journal: every cell
    // must replay from the journal (no recompute) and the BENCH file
    // must still be byte-identical to the fault-free reference.
    {
        FaultInjector::instance().configure("");
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

    // ----------------------------------------- 4. skip accounting
    // High rates, no retries: the grid must still complete, and every
    // final failure must surface as exactly one categorized error row.
    std::uint64_t skip_failed = 0, skip_error_rows = 0;
    {
        FaultInjector::instance().configure(
            "cell:1/2,trace_read:1/2,build:1/3,seed=29");
        FaultInjector::instance().resetCounts();
        ExperimentRunner runner;
        ExperimentSpec spec = makeSpec("chaos");
        spec.onError.mode = OnError::Mode::Skip;
        JsonSink json(resultsPath("BENCH_chaos_skip.json"));
        const ExperimentResults results = runner.run(spec, {&json});
        printRunSummary(results);
        skip_failed = results.cellsFailed;
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
    FaultInjector::instance().configure("");

    // ------------------------------------------------- PERF sidecar
    {
        const std::string path = resultsPath("PERF_chaos.json");
        std::ofstream perf(path);
        perf << "{\n  \"bench\": \"chaos\",\n"
             << "  \"golden_fingerprints\": {\"total\": " << golden_total
             << ", \"matched\": " << golden_matched << "},\n"
             << "  \"fault_matrix\": [";
        for (std::size_t k = 0; k < matrix.size(); ++k)
            perf << (k ? ", " : "") << '"' << matrix[k].spec << '"';
        perf << "],\n  \"error_rows\": {\"declared\": " << skip_failed
             << ", \"found\": " << skip_error_rows << "},\n"
             << "  \"chaos\": {\"sites_injected\": " << sites_injected
             << ", \"total_fired\": " << total_fired
             << ", \"converged\": " << (converged ? "true" : "false")
             << ", \"bench_identical\": "
             << (bench_identical ? "true" : "false") << "}\n}\n";
        std::printf("wrote %s\n", path.c_str());
    }

    std::printf("%s\n", all_ok ? "chaos: PASS" : "chaos: FAIL");
    return all_ok ? 0 : 1;
}
