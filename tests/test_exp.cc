/**
 * @file
 * Tests for the experiment-orchestration layer: runner determinism
 * across thread counts, profile-cache de-duplication, cell filtering,
 * custom executors, and the machine-readable sinks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/costly_miss.hh"
#include "analysis/reuse_distance.hh"
#include "exp/json_util.hh"
#include "exp/pool.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "workloads/builder.hh"

namespace trrip {
namespace {

exp::ExperimentSpec
tinySpec()
{
    exp::ExperimentSpec spec;
    spec.name = "test_grid";
    spec.workloads = {"python", "deepsjeng"};
    spec.policies = {"SRRIP", "TRRIP-1", "CLIP"};
    spec.options.maxInstructions = 200000;
    return spec;
}

void
expectIdentical(const exp::ExperimentResults &a,
                const exp::ExperimentResults &b)
{
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
        const auto &ra = a.cells()[i];
        const auto &rb = b.cells()[i];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.policy, rb.policy);
        ASSERT_EQ(ra.valid, rb.valid);
        if (!ra.valid)
            continue;
        EXPECT_EQ(ra.result().instructions, rb.result().instructions);
        EXPECT_EQ(ra.result().cycles, rb.result().cycles);
        EXPECT_EQ(ra.result().l2.demandMisses,
                  rb.result().l2.demandMisses);
        EXPECT_EQ(ra.metrics, rb.metrics);
    }
}

// Reads the kernel's live thread count for this process; -1 when
// /proc is unavailable.
int
processThreadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return -1;
}

TEST(ExperimentRunner, FourThreadsBitIdenticalToOne)
{
    // Four rows, so four pool items: a row's policies run as the
    // lanes of one item.
    exp::ExperimentSpec spec = tinySpec();
    spec.workloads = {"python", "deepsjeng", "gcc", "sqlite"};
    exp::ExperimentRunner serial(1);
    exp::ExperimentRunner pool(4);
    const auto a = serial.run(spec);
    const auto b = pool.run(spec);
    EXPECT_EQ(b.threadsUsed, 4u);
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
        const auto &ra = a.cells()[i];
        const auto &rb = b.cells()[i];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.policy, rb.policy);
        EXPECT_EQ(ra.result().instructions, rb.result().instructions);
        // Exact equality, not tolerance: the schedule must not leak
        // into the simulation.
        EXPECT_EQ(ra.result().cycles, rb.result().cycles);
        EXPECT_EQ(ra.result().l2.demandMisses,
                  rb.result().l2.demandMisses);
        EXPECT_EQ(ra.result().l2InstMpki, rb.result().l2InstMpki);
        EXPECT_EQ(ra.metrics, rb.metrics);
    }
}

TEST(ExperimentRunner, RowLanesMatchSoloRuns)
{
    // A row's policies run as the lanes of one pool item; each lane
    // must match its policy run alone, and a 2-row grid can use at
    // most two workers.
    exp::ExperimentRunner runner(4);
    const auto results = runner.run(tinySpec());
    EXPECT_EQ(results.threadsUsed, 2u);
    const exp::ExperimentSpec spec = tinySpec();
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        CoDesignPipeline pipeline(proxyParams(spec.workloads[w]));
        for (std::size_t p = 0; p < spec.policies.size(); ++p) {
            const RunArtifacts solo =
                pipeline.run(spec.policies[p], spec.options);
            EXPECT_EQ(results.at(w, p).metrics,
                      exp::defaultMetrics(solo.result));
            EXPECT_EQ(results.at(w, p).artifacts.resolvedPolicies,
                      solo.resolvedPolicies);
        }
    }
}

TEST(ExperimentRunner, RunJoinsEveryThreadItStarts)
{
    const int before = processThreadCount();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status not available";
    exp::ExperimentRunner runner(4);
    const auto first = runner.run(tinySpec());
    // run() joins every worker it started before it returns...
    EXPECT_EQ(processThreadCount(), before);
    const auto second = runner.run(tinySpec());
    EXPECT_EQ(processThreadCount(), before);
    // ... and a later run on the same runner gives the same results.
    expectIdentical(first, second);

    // Under a deadline the watchdog is the one thread beyond the
    // workers, and worker 0 is the calling thread, so the run starts
    // threadsUsed threads in all.  The first four cells wait for each
    // other, so all four workers are alive when they count.
    runner.setCellTimeout(60'000);
    exp::ExperimentSpec spec;
    spec.name = "thread_count";
    spec.workloads = {"w"};
    spec.policies = {"a", "b", "c", "d", "e", "f"};
    std::latch first_four(4);
    std::mutex mu;
    int peak = 0;
    spec.runCell = [&](const exp::CellContext &ctx) {
        if (ctx.id.policy < 4)
            first_four.arrive_and_wait();
        const int now = processThreadCount();
        std::lock_guard<std::mutex> lock(mu);
        peak = std::max(peak, now);
        return exp::CellOutcome{};
    };
    const auto timed = runner.run(spec);
    EXPECT_EQ(timed.threadsUsed, 4u);
    EXPECT_EQ(peak, before + static_cast<int>(timed.threadsUsed));
    EXPECT_EQ(processThreadCount(), before);
}

TEST(ExperimentRunner, DefaultJobsRespectsEnv)
{
    // Reads the variable only: no runner or pool is built with these
    // values.
    using exp::ExperimentRunner;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setenv("TRRIP_JOBS", "3", 1);
    EXPECT_EQ(ExperimentRunner::defaultJobs(), 3u);
    // Anything but a whole positive decimal count that fits unsigned
    // takes the hardware concurrency.  The prefixed forms parse to a
    // count other than hw, so a prefix parser fails them.
    const std::string other = std::to_string(hw + 1);
    const std::vector<std::string> bad_values = {
        "4294967297", "99999999999", other + "x", " " + other,
        "+" + other,  other + ".5",  "-1",        "0",
        "",           "abc"};
    for (const std::string &bad : bad_values) {
        setenv("TRRIP_JOBS", bad.c_str(), 1);
        EXPECT_EQ(ExperimentRunner::defaultJobs(), hw) << '"' << bad << '"';
    }
    unsetenv("TRRIP_JOBS");
    EXPECT_EQ(ExperimentRunner::defaultJobs(), hw);
}

TEST(ExperimentRunner, DefaultCellTimeoutRespectsEnv)
{
    // Reads the variable only: no runner, pool or watchdog is built.
    using exp::ExperimentRunner;
    setenv("TRRIP_CELL_TIMEOUT_MS", "1000", 1);
    EXPECT_EQ(ExperimentRunner::defaultCellTimeoutMs(), 1000u);
    // A prefix parser reads "1e3" as 1 ms and "150ms" as 150 ms; the
    // last value is 2^64.  Every one must arm no deadline.
    for (const char *bad : {"1e3", "150ms", "-5", "0", "",
                            "18446744073709551616"}) {
        setenv("TRRIP_CELL_TIMEOUT_MS", bad, 1);
        EXPECT_EQ(ExperimentRunner::defaultCellTimeoutMs(), 0u)
            << '"' << bad << '"';
    }
    unsetenv("TRRIP_CELL_TIMEOUT_MS");
    EXPECT_EQ(ExperimentRunner::defaultCellTimeoutMs(), 0u);
}

TEST(ExperimentRunner, CellsSeeWorkerIds)
{
    exp::ExperimentSpec spec;
    spec.name = "worker_ids";
    spec.workloads = {"w"};
    spec.policies = {"a", "b", "c", "d", "e", "f"};
    std::mutex mu;
    std::set<unsigned> workers;
    std::atomic<int> cells{0};
    spec.runCell = [&](const exp::CellContext &ctx) {
        {
            std::lock_guard<std::mutex> lock(mu);
            workers.insert(ctx.worker);
        }
        cells.fetch_add(1);
        return exp::CellOutcome{};
    };
    exp::ExperimentRunner runner(2);
    runner.run(spec);
    EXPECT_EQ(cells.load(), 6);
    for (unsigned w : workers)
        EXPECT_LT(w, 2u);
}

TEST(WorkerPool, RunsEveryItemOnConcurrentWorkers)
{
    exp::WorkerPool pool(3, 0);
    std::atomic<int> sum{0};
    // The first three items wait for each other: they can only all
    // arrive if three workers run at once.
    std::latch first_three(3);
    const exp::WorkerPool::Failures failures = pool.run(
        16, [&](std::size_t item, exp::WorkerContext &wc) {
            EXPECT_LT(wc.worker, 3u);
            EXPECT_NE(wc.cancel, nullptr);
            if (item < 3)
                first_three.arrive_and_wait();
            sum.fetch_add(static_cast<int>(item));
        });
    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(sum.load(), 120); // 0 + 1 + ... + 15.
}

TEST(WorkerPool, ClaimsItemsInIndexOrder)
{
    // One worker runs the items in the order they are claimed.
    exp::WorkerPool pool(1, 0);
    std::vector<std::size_t> order;
    pool.run(5, [&](std::size_t item, exp::WorkerContext &) {
        order.push_back(item);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, WorkerZeroIsTheCallingThread)
{
    // A one-worker run starts no thread; in a wider run, worker 0's
    // items run on the caller and every other worker's do not.
    for (const unsigned threads : {1u, 3u}) {
        exp::WorkerPool pool(threads, 0);
        std::vector<std::thread::id> ran_on(12);
        std::vector<unsigned> worker(12);
        pool.run(ran_on.size(),
                 [&](std::size_t item, exp::WorkerContext &wc) {
                     ran_on[item] = std::this_thread::get_id();
                     worker[item] = wc.worker;
                 });
        for (std::size_t item = 0; item < ran_on.size(); ++item)
            EXPECT_EQ(ran_on[item] == std::this_thread::get_id(),
                      worker[item] == 0)
                << threads << " workers, item " << item;
    }
}

TEST(ExperimentRunner, GridCollectsEachWorkloadProfileOnce)
{
    exp::ExperimentRunner runner(4);
    const auto results = runner.run(tinySpec());
    // One instrumented run per workload.  A row asks the cache once
    // for all of its policy lanes, and each workload is one row here,
    // so nothing asks twice.
    EXPECT_EQ(results.profileCollections, 2u);
    EXPECT_EQ(results.profileHits, 0u);
    // The cells of one workload share one Profile object.
    for (std::size_t w = 0; w < 2; ++w) {
        const Profile *first =
            results.at(w, 0).artifacts.profile.get();
        ASSERT_NE(first, nullptr);
        for (std::size_t p = 1; p < 3; ++p)
            EXPECT_EQ(results.at(w, p).artifacts.profile.get(), first);
    }
}

TEST(ExperimentRunner, FilterSkipsCells)
{
    auto spec = tinySpec();
    spec.filter = [](const exp::CellId &id) { return id.policy == 0; };
    exp::ExperimentRunner runner(2);
    const auto results = runner.run(spec);
    for (const auto &rec : results.cells())
        EXPECT_EQ(rec.valid, rec.id.policy == 0);
}

TEST(ExperimentRunner, ConfigAxisAppliesMutators)
{
    auto spec = tinySpec();
    spec.workloads = {"python"};
    spec.policies = {"SRRIP"};
    spec.configs = {
        {"base", nullptr},
        {"nofdip",
         [](SimOptions &o) { o.core.fdipEnabled = false; }},
    };
    exp::ExperimentRunner runner(2);
    const auto results = runner.run(spec);
    EXPECT_EQ(results.at(0, 0, 1).config, "nofdip");
    // Disabling FDIP must change timing.
    EXPECT_NE(results.at(0, 0, 0).result().cycles,
              results.at(0, 0, 1).result().cycles);
}

TEST(ExperimentRunner, PerLevelPolicyThroughConfigAxis)
{
    // The L1-I (or any level) runs a registered policy purely via
    // spec strings: the policy axis drives the L2, a config mutator
    // assigns the L1-I spec.
    exp::ExperimentSpec spec;
    spec.name = "per_level";
    spec.workloads = {"python"};
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 200000;
    spec.configs = {
        {"l1i=LRU", nullptr},
        {"l1i=TRRIP-1",
         [](SimOptions &o) { o.hier.l1iPolicy = "TRRIP-1"; }},
    };
    exp::ExperimentRunner runner(2);
    const auto results = runner.run(spec);
    const auto &base = results.at(0, 0, 0).artifacts.resolvedPolicies;
    const auto &trrip = results.at(0, 0, 1).artifacts.resolvedPolicies;
    ASSERT_EQ(base.size(), 4u);
    EXPECT_EQ(base[0].first, "L1I");
    EXPECT_EQ(base[0].second, "LRU");
    EXPECT_EQ(trrip[0].second, "TRRIP-1(bits=2)");
    // A temperature-aware L1-I changes instruction-side behavior.
    EXPECT_NE(results.at(0, 0, 0).result().cycles,
              results.at(0, 0, 1).result().cycles);
}

TEST(ExperimentRunner, CustomRunCellBypassesSimulation)
{
    exp::ExperimentSpec spec;
    spec.name = "custom";
    spec.workloads = {"not-a-proxy"};
    spec.policies = {"a", "b"};
    spec.runCell = [](const exp::CellContext &ctx) {
        exp::CellOutcome out;
        out.metrics["policy_index"] =
            static_cast<double>(ctx.id.policy);
        return out;
    };
    exp::ExperimentRunner runner(2);
    const auto results = runner.run(spec);
    EXPECT_EQ(results.at(0, 1).metrics.at("policy_index"), 1.0);
}

TEST(ExperimentRunner, ProbesAreKeptPerCell)
{
    auto spec = tinySpec();
    spec.workloads = {"python"};
    spec.policies = {"SRRIP"};
    spec.probes = [](const SimOptions &opts, const exp::CellId &) {
        return std::make_shared<ReuseDistanceProfiler>(opts.hier.l2);
    };
    exp::ExperimentRunner runner(1);
    const auto results = runner.run(spec);
    const auto *prof =
        results.at(0, 0).probeAs<ReuseDistanceProfiler>();
    ASSERT_NE(prof, nullptr);
    EXPECT_GT(prof->base().total(), 0u);
    EXPECT_EQ(results.at(0, 0).probeAs<CostlyMissTracker>(), nullptr);
}

TEST(ProfileCache, OneCollectionPerDistinctKey)
{
    const auto wl_a = buildWorkload(proxyParams("python"));
    const auto wl_b = buildWorkload(proxyParams("deepsjeng"));
    exp::ProfileCache cache;
    const auto p1 = cache.get(wl_a, 100000);
    const auto p2 = cache.get(wl_a, 100000);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(cache.collections(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    cache.get(wl_a, 200000); // New budget -> new key.
    cache.get(wl_b, 100000); // New workload -> new key.
    EXPECT_EQ(cache.collections(), 3u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(ProfileCache, DistinguishesTrainingInputs)
{
    WorkloadParams same = proxyParams("python");
    same.trainSeed = same.seed;
    same.trainZipfSkew = same.zipfSkew;
    const auto wl_diff = buildWorkload(proxyParams("python"));
    const auto wl_same = buildWorkload(same);
    exp::ProfileCache cache;
    cache.get(wl_diff, 100000);
    cache.get(wl_same, 100000);
    EXPECT_EQ(cache.collections(), 2u);
}

TEST(ProfileCache, OneWorkloadPerDistinctParams)
{
    // Equal parameters share one build; any differing field builds
    // anew -- the training input, as ablation 5's "+same" labels
    // change under the same name, or a data region's size.
    WorkloadParams same = proxyParams("python");
    same.trainSeed = same.seed;
    WorkloadParams bigger = proxyParams("python");
    ASSERT_FALSE(bigger.regions.empty());
    bigger.regions.front().sizeBytes *= 2;
    exp::ProfileCache cache;
    const auto a = cache.workload(proxyParams("python"));
    const auto b = cache.workload(proxyParams("python"));
    const auto c = cache.workload(same);
    const auto d = cache.workload(bigger);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(c->params, same);
    EXPECT_EQ(d->params, bigger);
    // Workloads are not profiles: they count as neither.
    EXPECT_EQ(cache.collections(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(ProfileCache, ConcurrentRequestsCollectOnce)
{
    const auto wl = buildWorkload(proxyParams("python"));
    exp::ProfileCache cache;
    std::vector<std::shared_ptr<const Profile>> seen(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(
            [&, t] { seen[t] = cache.get(wl, 150000); });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(cache.collections(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    for (int t = 1; t < 4; ++t)
        EXPECT_EQ(seen[t].get(), seen[0].get());
}

TEST(Sinks, JsonSinkWritesTrajectory)
{
    const std::string path = "test_exp_sink.json";
    auto spec = tinySpec();
    spec.workloads = {"python"};
    exp::ExperimentRunner runner(2);
    exp::JsonSink json(path);
    std::vector<exp::ResultSink *> sinks{&json};
    runner.run(spec, sinks);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    EXPECT_NE(text.find("\"experiment\": \"test_grid\""),
              std::string::npos);
    // Policy labels are canonicalized: every resolved parameter is
    // spelled out, and each cell records the per-level policies.
    EXPECT_NE(text.find("\"policy\": \"TRRIP-1(bits=2)\""),
              std::string::npos);
    EXPECT_NE(text.find("\"resolved_policies\": {\"L1I\": \"LRU\", "
                        "\"L1D\": \"LRU\", \"L2\": "
                        "\"TRRIP-1(bits=2)\", \"SLC\": \"LRU\"}"),
              std::string::npos);
    EXPECT_NE(text.find("\"l2_inst_mpki\""), std::string::npos);
    // No timing or cache-statistics fields: BENCH JSON must be
    // byte-reproducible across runs, TRRIP_JOBS, retries and resumes.
    EXPECT_EQ(text.find("wall_seconds"), std::string::npos);
    EXPECT_EQ(text.find("profile_collections"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Sinks, CsvSinkWritesOneRowPerCell)
{
    const std::string path = "test_exp_sink.csv";
    auto spec = tinySpec();
    exp::ExperimentRunner runner(2);
    exp::CsvSink csv(path);
    std::vector<exp::ResultSink *> sinks{&csv};
    runner.run(spec, sinks);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t rows = 0;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("workload,policy,config", 0), 0u);
    const auto fields = [](const std::string &row) {
        // Count top-level commas (quoted fields hide theirs).
        std::size_t n = 1;
        bool quoted = false;
        for (char c : row) {
            quoted ^= c == '"';
            n += !quoted && c == ',';
        }
        return n;
    };
    const std::size_t header_fields = fields(line);
    bool saw_quoted_clip = false;
    while (std::getline(in, line)) {
        ++rows;
        // Canonical labels contain commas, so they must be quoted and
        // every row must keep the header's column count.
        EXPECT_EQ(fields(line), header_fields) << line;
        if (line.find("\"CLIP(bits=2,leader_sets=32,psel_bits=10)\"") !=
            std::string::npos)
            saw_quoted_clip = true;
    }
    EXPECT_EQ(rows, spec.cellCount());
    EXPECT_TRUE(saw_quoted_clip);
    std::remove(path.c_str());
}

// A sink that cannot write its file stops the process and names the
// path: a BENCH file that silently went missing would pass any check
// that reads only the exit code.
TEST(Sinks, SinksStopOnAPathInAMissingDirectory)
{
    const exp::ExperimentSpec spec = tinySpec();
    const exp::ExperimentResults results(spec, {});
    EXPECT_EXIT(exp::JsonSink("test_exp_no_such_dir/a.json").begin(spec),
                ::testing::ExitedWithCode(1),
                "JsonSink: cannot open test_exp_no_such_dir/a.json");
    EXPECT_EXIT(
        {
            exp::CsvSink csv("test_exp_no_such_dir/a.csv");
            csv.begin(spec);
            csv.end(results);
        },
        ::testing::ExitedWithCode(1),
        "CsvSink: cannot open test_exp_no_such_dir/a.csv");
}

TEST(Sinks, SinksStopWhenTheirWritesFail)
{
    // /dev/full opens, and every write to it fails at the flush.
    if (!std::ifstream("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    const exp::ExperimentSpec spec = tinySpec();
    const exp::ExperimentResults results(spec, {});
    EXPECT_EXIT(
        {
            exp::JsonSink json("/dev/full");
            json.begin(spec);
            json.end(results);
        },
        ::testing::ExitedWithCode(1), "JsonSink: cannot write /dev/full");
    EXPECT_EXIT(
        {
            exp::CsvSink csv("/dev/full");
            csv.begin(spec);
            csv.end(results);
        },
        ::testing::ExitedWithCode(1), "CsvSink: cannot write /dev/full");
}

TEST(JsonCodec, EveryControlByteRoundTripsEscaped)
{
    // JSON strings admit no raw byte below 0x20: each must leave
    // jsonEscape as an escape and come back from jsonUnescape intact.
    for (int c = 0; c < 0x20; ++c) {
        const std::string raw = std::string("a") + static_cast<char>(c) +
                                "b";
        const std::string escaped = exp::jsonEscape(raw);
        for (const char e : escaped)
            EXPECT_GE(static_cast<unsigned char>(e), 0x20) << c;
        EXPECT_EQ(exp::jsonUnescape(escaped), raw) << c;
    }
    EXPECT_EQ(exp::jsonEscape("a\rb\x01" "c"), "a\\rb\\u0001c");
    EXPECT_EQ(exp::jsonEscape("\b\f\n\t\x1f"), "\\b\\f\\n\\t\\u001f");
    // A \u escape the codec never writes stays verbatim.
    EXPECT_EQ(exp::jsonUnescape("\\u0041\\u00"), "\\u0041\\u00");
}

} // namespace
} // namespace trrip
