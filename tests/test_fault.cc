/**
 * @file
 * Tests for the failure-containment layer: the SimError taxonomy, the
 * deterministic fault injector, the success-or-error cell contract
 * under every OnError mode, watchdog timeout cancellation, trace
 * corruption context, the pool's item-boundary catch, and journal
 * write/load/resume byte-identity.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exp/journal.hh"
#include "exp/pool.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "util/error.hh"
#include "util/fault.hh"

namespace trrip {
namespace {

/** Injection must never leak into other tests in this binary. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::instance().configure("");
        FaultInjector::instance().resetCounts();
    }
    void TearDown() override
    {
        FaultInjector::instance().configure("");
    }
};

exp::ExperimentSpec
tinySpec()
{
    exp::ExperimentSpec spec;
    spec.name = "fault_grid";
    spec.workloads = {"python", "deepsjeng"};
    spec.policies = {"SRRIP", "TRRIP-1", "CLIP"};
    spec.options.maxInstructions = 200000;
    return spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ------------------------------------------------------------ taxonomy

TEST(SimErrorTest, DescribeCarriesCategoryAndContextChain)
{
    SimError e(ErrorCategory::TraceCorrupt, "bad magic");
    e.addContext("trace '/tmp/x.trrtrc'");
    SimError moved = std::move(e).withContext("cell 3");
    EXPECT_EQ(moved.category(), ErrorCategory::TraceCorrupt);
    EXPECT_EQ(moved.message(), "bad magic");
    ASSERT_EQ(moved.context().size(), 2u);
    EXPECT_EQ(moved.context()[0], "trace '/tmp/x.trrtrc'");
    EXPECT_EQ(moved.context()[1], "cell 3");
    EXPECT_EQ(std::string(moved.what()),
              "[trace_corrupt] bad magic; trace '/tmp/x.trrtrc'; "
              "cell 3");
}

TEST(SimErrorTest, CategoryNames)
{
    EXPECT_STREQ(errorCategoryName(ErrorCategory::TraceCorrupt),
                 "trace_corrupt");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Timeout), "timeout");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Injected),
                 "injected");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Internal),
                 "internal");
}

TEST(SimErrorTest, CancelTokenFlipsAndRearms)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    token.rearm();
    EXPECT_FALSE(token.cancelled());
}

// ------------------------------------------------------------ injector

TEST_F(FaultTest, MalformedSpecsThrow)
{
    auto &inj = FaultInjector::instance();
    EXPECT_THROW(inj.configure("bogus_site:1/2"), SimError);
    EXPECT_THROW(inj.configure("cell:1"), SimError);
    EXPECT_THROW(inj.configure("cell:x/2"), SimError);
    EXPECT_THROW(inj.configure("cell:1/0"), SimError);
    EXPECT_THROW(inj.configure("cell:3/2"), SimError);
    EXPECT_THROW(inj.configure("seed=banana"), SimError);
    // Every number is one whole decimal of its own width: no wrap to
    // a 1/1 rate, no rate that never fires, no sign, no blank.
    EXPECT_THROW(inj.configure("cell:1/4294967297"), SimError);
    EXPECT_THROW(inj.configure("cell:1/18446744073709551617"), SimError);
    EXPECT_THROW(inj.configure("seed=-1"), SimError);
    EXPECT_THROW(inj.configure("cell:+1/2"), SimError);
    EXPECT_THROW(inj.configure("cell: 1/2"), SimError);
    // A throwing configure leaves injection off.
    EXPECT_FALSE(inj.enabled());
    inj.configure("cell:1/2,seed=3");
    EXPECT_TRUE(inj.enabled());
    inj.configure("");
    EXPECT_FALSE(inj.enabled());
}

TEST_F(FaultTest, ScopedDrawsAreDeterministicAndRerollPerAttempt)
{
    auto &inj = FaultInjector::instance();
    inj.configure("cell:1/3,seed=42");

    auto drawSequence = [&](std::uint64_t key, unsigned attempt) {
        FaultInjector::Scope scope(key, attempt);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(inj.shouldFail(FaultSite::Cell));
        return fired;
    };

    const auto a1 = drawSequence(7, 1);
    const auto a1_again = drawSequence(7, 1);
    EXPECT_EQ(a1, a1_again); // Same (cell, attempt): same faults.

    const auto a2 = drawSequence(7, 2);
    EXPECT_NE(a1, a2); // A retry re-rolls.
    const auto other = drawSequence(8, 1);
    EXPECT_NE(a1, other); // Another cell draws independently.

    // Rate sanity: 1/3 over 64 draws should fire well within (0, 64).
    const int fires = static_cast<int>(
        std::count(a1.begin(), a1.end(), true));
    EXPECT_GT(fires, 0);
    EXPECT_LT(fires, 64);
}

TEST_F(FaultTest, UnscopedDrawsCountOnTheCallingThread)
{
    // Outside any scope a draw keys on 0 with the calling thread's own
    // ordinals: two threads drawing at once each see the sequence that
    // one thread sees alone, whatever the interleaving.
    auto &inj = FaultInjector::instance();
    inj.configure("cell:1/3,seed=9");
    const auto draws = [&inj] {
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(inj.shouldFail(FaultSite::Cell));
        return fired;
    };
    std::vector<bool> a, b, alone;
    {
        std::jthread ta([&] { a = draws(); });
        std::jthread tb([&] { b = draws(); });
    }
    std::jthread([&] { alone = draws(); }).join();
    EXPECT_EQ(a, alone);
    EXPECT_EQ(b, alone);
    EXPECT_NE(std::count(alone.begin(), alone.end(), true), 0);
}

TEST_F(FaultTest, UnnamedSitesNeverFireAndCountsAccumulate)
{
    auto &inj = FaultInjector::instance();
    inj.configure("build:1/1,seed=1");
    FaultInjector::Scope scope(0, 1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(inj.shouldFail(FaultSite::TraceRead));
        EXPECT_TRUE(inj.shouldFail(FaultSite::Build));
    }
    EXPECT_EQ(inj.firedCount(FaultSite::TraceRead), 0u);
    EXPECT_EQ(inj.checkedCount(FaultSite::TraceRead), 10u);
    EXPECT_EQ(inj.firedCount(FaultSite::Build), 10u);
    EXPECT_EQ(inj.totalFired(), 10u);
    EXPECT_THROW(inj.maybeInject(FaultSite::Build), SimError);
}

// ------------------------------------------------- OnError containment

TEST_F(FaultTest, SkipModeContainsFailuresAsErrorRows)
{
    const std::string json_path = "fault_skip_rows.json";
    const std::string csv_path = "fault_skip_rows.csv";
    FaultInjector::instance().configure("cell:1/2,seed=5");
    exp::ExperimentRunner runner(2);
    auto spec = tinySpec();
    spec.onError.mode = exp::OnError::Mode::Skip;
    exp::JsonSink json(json_path);
    exp::CsvSink csv(csv_path);
    const exp::ExperimentResults results = runner.run(spec, {&json, &csv});

    std::uint64_t failed = 0;
    for (const auto &rec : results.cells()) {
        ASSERT_TRUE(rec.valid);
        if (rec.failed) {
            ++failed;
            EXPECT_EQ(rec.errorCategory, "injected");
            EXPECT_NE(rec.errorMessage.find("injected fault"),
                      std::string::npos);
            EXPECT_TRUE(rec.metrics.empty());
        } else {
            EXPECT_FALSE(rec.metrics.empty());
        }
    }
    EXPECT_GT(failed, 0u); // 1/2 over 6 cells: ~always fires.
    EXPECT_EQ(results.cellsFailed, failed);

    // Every failed cell reaches the BENCH files as an error row: one
    // "error" object per failed cell in the JSON...
    const std::string text = slurp(json_path);
    const auto count = [&text](const std::string &needle) {
        std::size_t n = 0;
        for (auto pos = text.find(needle); pos != std::string::npos;
             pos = text.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"error\": {"), failed);
    EXPECT_EQ(count("\"error\": {\"category\": \"injected\", "
                    "\"message\": \"injected fault"),
              failed);

    // ...and in the CSV, two trailing error columns that exactly the
    // failed rows fill.
    const auto fields = [](const std::string &row) {
        std::vector<std::string> out(1);
        bool quoted = false;
        for (char c : row) {
            quoted ^= c == '"';
            if (!quoted && c == ',')
                out.emplace_back();
            else
                out.back() += c;
        }
        return out;
    };
    std::istringstream rows(slurp(csv_path));
    std::string line;
    ASSERT_TRUE(std::getline(rows, line));
    const std::vector<std::string> header = fields(line);
    ASSERT_GE(header.size(), 2u);
    EXPECT_EQ(header[header.size() - 2], "error_category");
    EXPECT_EQ(header.back(), "error_message");
    std::size_t n_rows = 0, error_rows = 0;
    while (std::getline(rows, line)) {
        ++n_rows;
        const std::vector<std::string> row = fields(line);
        ASSERT_EQ(row.size(), header.size()) << line;
        const std::string &category = row[row.size() - 2];
        if (category.empty() && row.back().empty())
            continue;
        ++error_rows;
        EXPECT_EQ(category, "injected") << line;
        EXPECT_NE(row.back().find("injected fault"), std::string::npos)
            << line;
    }
    EXPECT_EQ(n_rows, spec.cellCount());
    EXPECT_EQ(error_rows, failed);
    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

TEST_F(FaultTest, RetryModeConvergesToFaultFreeResults)
{
    exp::ExperimentRunner runner(2);
    const exp::ExperimentResults clean = runner.run(tinySpec(), {});

    // seed=5 at 2/3: every cell fails at least once but converges
    // within 10 attempts (draws are deterministic; see util/fault.hh).
    FaultInjector::instance().configure("cell:2/3,seed=5");
    auto spec = tinySpec();
    spec.onError.mode = exp::OnError::Mode::Retry;
    spec.onError.maxAttempts = 10;
    const exp::ExperimentResults retried = runner.run(spec, {});
    FaultInjector::instance().configure("");

    EXPECT_EQ(retried.cellsFailed, 0u);
    EXPECT_GT(retried.failedAttempts, 0u);
    EXPECT_GT(retried.cellsRetried, 0u);
    ASSERT_EQ(clean.cells().size(), retried.cells().size());
    for (std::size_t i = 0; i < clean.cells().size(); ++i) {
        EXPECT_EQ(clean.cells()[i].metrics, retried.cells()[i].metrics);
        EXPECT_FALSE(retried.cells()[i].failed);
    }
}

TEST_F(FaultTest, AbortModeThrowsLowestFailedCellFromWait)
{
    FaultInjector::instance().configure("cell:1/1,seed=1");
    // Serial runner: cell 0 deterministically fails first, so the
    // rethrown error is pinned to it.
    exp::ExperimentRunner runner(1);
    auto spec = tinySpec();
    spec.onError.mode = exp::OnError::Mode::Abort;
    bool threw = false;
    try {
        runner.run(spec, {});
    } catch (const SimError &e) {
        threw = true;
        EXPECT_EQ(e.category(), ErrorCategory::Injected);
        // The rethrown error names the lowest-index failed cell.
        EXPECT_NE(std::string(e.what()).find("cell 0"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(threw);
    FaultInjector::instance().configure("");

    // The runner must still be usable after an aborted grid.
    const exp::ExperimentResults after = runner.run(tinySpec(), {});
    EXPECT_EQ(after.cellsFailed, 0u);
}

TEST_F(FaultTest, BuildFaultsAreContainedPerWorkload)
{
    FaultInjector::instance().configure("build:1/1,seed=2");
    exp::ExperimentRunner runner(2);
    auto spec = tinySpec();
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults results = runner.run(spec, {});
    // Every cell needs its workload's pipeline; with builds always
    // failing, every cell fails -- but as contained error rows.
    for (const auto &rec : results.cells()) {
        ASSERT_TRUE(rec.valid);
        EXPECT_TRUE(rec.failed);
    }
    EXPECT_EQ(results.cellsFailed, results.cells().size());
}

TEST_F(FaultTest, BuildFaultRowsDoNotDependOnJobs)
{
    // Each row attempt draws `build` once per proxy core under its
    // own (first pending cell, attempt) scope, so which cells fail,
    // and how, depends on neither the worker count nor the schedule.
    // Every run configures afresh, so no run inherits another's
    // draws.
    exp::ExperimentSpec spec;
    spec.name = "build_fault_jobs";
    spec.workloads = {"python", "gcc", "sqlite", "deepsjeng"};
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 20'000;
    spec.onError.mode = exp::OnError::Mode::Skip;

    using Failures =
        std::vector<std::tuple<std::size_t, std::string, std::string>>;
    const auto failures = [&spec](unsigned jobs) {
        FaultInjector::instance().configure("build:1/2,seed=3");
        exp::ExperimentRunner runner(jobs);
        const exp::ExperimentResults results = runner.run(spec, {});
        Failures out;
        for (std::size_t i = 0; i < results.cells().size(); ++i) {
            const exp::CellRecord &rec = results.cells()[i];
            if (rec.failed)
                out.emplace_back(i, rec.errorCategory, rec.errorMessage);
        }
        return out;
    };
    const Failures serial = failures(1);
    ASSERT_FALSE(serial.empty());
    ASSERT_LT(serial.size(), spec.cellCount());
    for (int run = 0; run < 50; ++run)
        ASSERT_EQ(failures(4), serial) << "4 jobs, run " << run;
    for (int run = 0; run < 20; ++run)
        ASSERT_EQ(failures(2), serial) << "2 jobs, run " << run;
}

TEST_F(FaultTest, SharedTraceRowsDoNotDependOnJobs)
{
    // Four config rows replay one trace and share its index, which
    // the profile cache builds for whichever row asks first.  The
    // build draws no fault, so each row's trace_read draws are its
    // own chunk loads under its own scope, whoever built the index.
    const std::string file = "fault_shared_trace.trrtrc";
    trace::generateMiniTrace("dispatch", file);
    exp::ExperimentSpec spec;
    spec.name = "shared_trace_jobs";
    spec.workloads = {std::string(trace::kTracePrefix) + file};
    spec.policies = {"SRRIP"};
    for (int c = 0; c < 4; ++c)
        spec.configs.push_back({"cfg" + std::to_string(c), nullptr});
    spec.options.maxInstructions = 20'000;
    spec.onError.mode = exp::OnError::Mode::Skip;

    using Failures =
        std::vector<std::tuple<std::size_t, std::string, std::string>>;
    const auto failures = [&spec](const std::string &faults,
                                  unsigned jobs) {
        FaultInjector::instance().configure(faults);
        exp::ExperimentRunner runner(jobs);
        const exp::ExperimentResults results = runner.run(spec, {});
        Failures out;
        for (std::size_t i = 0; i < results.cells().size(); ++i) {
            const exp::CellRecord &rec = results.cells()[i];
            if (rec.failed)
                out.emplace_back(i, rec.errorCategory, rec.errorMessage);
        }
        return out;
    };
    for (const int seed : {2, 4, 7, 8}) {
        const std::string faults =
            "trace_read:1/16,seed=" + std::to_string(seed);
        const Failures serial = failures(faults, 1);
        ASSERT_FALSE(serial.empty()) << faults;
        ASSERT_LT(serial.size(), spec.cellCount()) << faults;
        for (int run = 0; run < 40; ++run)
            ASSERT_EQ(failures(faults, 4), serial)
                << faults << ", 4 jobs, run " << run;
    }
    std::remove(file.c_str());
}

// --------------------------------------------------- timeout watchdog

/**
 * One python x SRRIP cell far longer than a 150 ms deadline can
 * simulate, with a @p profile_instructions training run (0: the
 * budget), run under that deadline: the cell must fail as a
 * contained timeout row.
 */
void
expectWatchdogTimeout(exp::ExperimentRunner &runner,
                      InstCount profile_instructions)
{
    runner.setCellTimeout(150);
    exp::ExperimentSpec spec;
    spec.name = "timeout_grid";
    spec.workloads = {"python"};
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 2'000'000'000;
    spec.options.profileInstructions = profile_instructions;
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults results = runner.run(spec, {});
    ASSERT_EQ(results.cells().size(), 1u);
    const auto &rec = results.cells()[0];
    ASSERT_TRUE(rec.failed);
    EXPECT_EQ(rec.errorCategory, "timeout");
    EXPECT_EQ(rec.errorMessage,
              "cell deadline exceeded; cell 0: workload python, policy "
              "SRRIP");
    EXPECT_EQ(results.cellsFailed, 1u);
}

TEST_F(FaultTest, WatchdogCancelsOverrunningEngine)
{
    exp::ExperimentRunner runner(2);
    // A short training run: the deadline fires in the engine.
    expectWatchdogTimeout(runner, 20'000);
    EXPECT_EQ(runner.profiles().collections(), 1u);

    // With the deadline lifted the same runner completes normally.
    runner.setCellTimeout(0);
    exp::ExperimentSpec spec = tinySpec();
    spec.workloads = {"python"};
    spec.options.maxInstructions = 50'000;
    const exp::ExperimentResults after = runner.run(spec, {});
    EXPECT_EQ(after.cellsFailed, 0u);
}

TEST_F(FaultTest, WatchdogCancelsOverrunningTrainingRun)
{
    exp::ExperimentRunner runner(2);
    // The training run is as long as the budget: the deadline fires
    // in it, and the cancelled collection leaves no profile behind.
    expectWatchdogTimeout(runner, 0);
    EXPECT_EQ(runner.profiles().collections(), 0u);
}

TEST_F(FaultTest, TimedOutRowDoesNotCancelTheNextRowOnItsWorker)
{
    // One worker runs the long row, whose deadline fires, and then the
    // short row, which must start with a fresh deadline and token.
    exp::ExperimentRunner runner(1);
    runner.setCellTimeout(150);
    exp::ExperimentSpec spec;
    spec.name = "timeout_then_short";
    spec.workloads = {"python"};
    spec.policies = {"SRRIP", "TRRIP-1"};
    spec.configs = {
        {"long", [](SimOptions &o) { o.maxInstructions = 2'000'000'000; }},
        {"short", [](SimOptions &o) { o.maxInstructions = 50'000; }},
    };
    spec.options.profileInstructions = 10'000;
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults results = runner.run(spec, {});
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
        const exp::CellRecord &slow = results.at(0, p, 0);
        EXPECT_TRUE(slow.failed) << slow.policy;
        EXPECT_EQ(slow.errorCategory, "timeout") << slow.policy;
        const exp::CellRecord &fast = results.at(0, p, 1);
        EXPECT_FALSE(fast.failed) << fast.policy << ": "
                                  << fast.errorMessage;
        EXPECT_GE(fast.result().instructions, 50'000u) << fast.policy;
    }
    EXPECT_EQ(results.cellsFailed, 2u);
}

// ------------------------------------------------ trace error context

TEST_F(FaultTest, ReaderCorruptionCarriesOffsetContext)
{
    const std::string file = "fault_corrupt.trrtrc";
    std::ofstream(file, std::ios::binary) << "trriptrc";
    try {
        trace::TraceReader reader(file);
        ADD_FAILURE() << "a truncated header was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt);
        EXPECT_NE(e.message().find("(byte offset 8)"), std::string::npos)
            << e.message();
        EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
            << e.what();
    }
    std::remove(file.c_str());
}

TEST_F(FaultTest, InjectedTraceReadNamesTheChunkAndOffset)
{
    // The first chunk load is the injection site's first draw: the
    // source's constructor throws it with the chunk's context, the
    // text the chaos bench's error rows carry.
    const std::string file = "fault_trace_read.trrtrc";
    trace::generateMiniTrace("dispatch", file);
    FaultInjector::instance().configure("trace_read:1/1");
    try {
        trace::TraceEventSource source(file);
        ADD_FAILURE() << "trace_read:1/1 did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Injected);
        EXPECT_TRUE(e.message().ends_with("(chunk 0, byte offset 64)"))
            << e.message();
    }
    std::remove(file.c_str());
}

TEST_F(FaultTest, MissingTraceWorkloadFailsAsContainedCell)
{
    exp::ExperimentRunner runner(1);
    exp::ExperimentSpec spec;
    spec.name = "missing_trace";
    spec.workloads = {std::string(trace::kTracePrefix) +
                      "/no/such/file.trrtrc"};
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 100000;
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults results = runner.run(spec, {});
    ASSERT_EQ(results.cells().size(), 1u);
    const auto &rec = results.cells()[0];
    ASSERT_TRUE(rec.failed);
    EXPECT_EQ(rec.errorCategory, "trace_corrupt");
    EXPECT_NE(rec.errorMessage.find("cannot open"), std::string::npos)
        << rec.errorMessage;
}

// ---------------------------------------------- item-boundary catch

TEST_F(FaultTest, PoolReturnsItemFailuresInItemOrder)
{
    exp::WorkerPool pool(2, 0);
    const exp::WorkerPool::Failures failures = pool.run(
        8, [](std::size_t item, exp::WorkerContext &) {
            if (item % 2 == 0)
                throw SimError(ErrorCategory::Internal,
                               "item " + std::to_string(item));
        });
    ASSERT_EQ(failures.size(), 4u);
    for (std::size_t k = 0; k < failures.size(); ++k) {
        EXPECT_EQ(failures[k].first, 2 * k);
        EXPECT_EQ(failures[k].second.category(), ErrorCategory::Internal);
        EXPECT_EQ(failures[k].second.message(),
                  "item " + std::to_string(2 * k));
    }

    // Other throws are wrapped, not fatal, and the same pool runs
    // again.
    const exp::WorkerPool::Failures wrapped = pool.run(
        2, [](std::size_t item, exp::WorkerContext &) {
            if (item == 0)
                throw std::runtime_error("plain exception");
            throw 42;
        });
    ASSERT_EQ(wrapped.size(), 2u);
    EXPECT_EQ(wrapped[0].second.category(), ErrorCategory::Internal);
    EXPECT_EQ(wrapped[0].second.message(), "plain exception");
    EXPECT_EQ(wrapped[1].second.category(), ErrorCategory::Internal);
    EXPECT_EQ(wrapped[1].second.message(), "unknown exception");
}

/** A custom-executor grid whose cell @p thrower throws a non-exception. */
exp::ExperimentSpec
throwingSpec(std::size_t cells, std::size_t thrower)
{
    exp::ExperimentSpec spec;
    spec.name = "non_std_throw";
    spec.workloads = {"w"};
    for (std::size_t p = 0; p < cells; ++p)
        spec.policies.push_back(std::string(1, static_cast<char>('a' + p)));
    spec.runCell = [thrower](const exp::CellContext &ctx) {
        if (ctx.id.policy == thrower)
            throw 42;
        return exp::CellOutcome{{}, {{"ok", 1.0}}};
    };
    return spec;
}

TEST_F(FaultTest, NonStdThrowFailsItsCellUnderSkip)
{
    exp::ExperimentRunner runner(2);
    exp::ExperimentSpec spec = throwingSpec(2, 1);
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults results = runner.run(spec, {});
    ASSERT_EQ(results.cells().size(), 2u);
    EXPECT_FALSE(results.cells()[0].failed);
    EXPECT_EQ(results.cells()[0].metrics.at("ok"), 1.0);
    const exp::CellRecord &rec = results.cells()[1];
    EXPECT_TRUE(rec.failed);
    EXPECT_EQ(rec.errorCategory, "internal");
    EXPECT_EQ(rec.errorMessage,
              "unknown exception; cell 1: workload w, policy b");
    EXPECT_TRUE(rec.metrics.empty());
    EXPECT_EQ(results.cellsFailed, 1u);
}

TEST_F(FaultTest, NonStdThrowAbortsTheGrid)
{
    exp::ExperimentRunner runner(1);
    exp::ExperimentSpec spec = throwingSpec(1, 0);
    spec.onError.mode = exp::OnError::Mode::Abort;
    try {
        runner.run(spec, {});
        ADD_FAILURE() << "an aborted grid returned normally";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Internal);
        EXPECT_EQ(e.message(), "unknown exception");
    }
}

// ------------------------------------------------------------ journal

TEST_F(FaultTest, JournalRoundTripSkipsTornLines)
{
    const std::string path = "fault_journal.jsonl";
    std::remove(path.c_str());
    {
        exp::RunJournal journal(path);
        ASSERT_TRUE(journal.valid());
        exp::JournalEntry ok;
        ok.cell = 0;
        ok.workload = "python";
        ok.policy = "SRRIP";
        // Control bytes in a label reach the file escaped.
        ok.config = "cfg\r\x01" "end";
        ok.metrics = {{"ipc", 1.2345678901234567},
                      {"cycles", 1e7}};
        ok.resolvedPolicies = {{"L1I", "LRU"}, {"L2", "SRRIP(bits=2)"}};
        journal.append(ok);
    }
    // A torn trailing line (the crash case).
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"cell\": 2, \"workload\": \"py";
    }

    {
        std::istringstream lines(slurp(path));
        std::string line;
        ASSERT_TRUE(std::getline(lines, line));
        EXPECT_NE(line.find("cfg\\r\\u0001end"), std::string::npos);
        for (const char c : line)
            EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    }

    const auto loaded = exp::RunJournal::load(path);
    ASSERT_EQ(loaded.size(), 1u); // Only the intact line.
    const auto &entry = loaded.at(0);
    EXPECT_EQ(entry.workload, "python");
    EXPECT_EQ(entry.config, "cfg\r\x01" "end");
    EXPECT_EQ(entry.metrics.at("ipc"), 1.2345678901234567);
    EXPECT_EQ(entry.metrics.at("cycles"), 1e7);
    ASSERT_EQ(entry.resolvedPolicies.size(), 2u);
    EXPECT_EQ(entry.resolvedPolicies[1].second, "SRRIP(bits=2)");

    // Flipping a metric byte invalidates the fingerprint.
    std::string text = slurp(path);
    const auto pos = text.find("1.2345678901234567");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '2';
    std::ofstream(path, std::ios::binary) << text;
    EXPECT_TRUE(exp::RunJournal::load(path).empty());
    std::remove(path.c_str());
}

TEST_F(FaultTest, JournalSkipsEditedLines)
{
    const std::string path = "fault_journal_edits.jsonl";
    std::remove(path.c_str());
    {
        exp::RunJournal journal(path);
        ASSERT_TRUE(journal.valid());
        exp::JournalEntry ok;
        ok.cell = 2;
        ok.workload = "python";
        ok.policy = "SRRIP";
        ok.metrics = {{"ipc", 1.5}};
        journal.append(ok);
    }
    const std::string line = slurp(path);
    ASSERT_EQ(exp::RunJournal::load(path).count(2), 1u);

    // The fingerprint covers every byte the writer wrote: a reader
    // that truncated 2.5 to 2 would accept the first four edits as
    // cell 2, and a parser that takes any spacing and key order would
    // read the last two back as the same entry.
    const std::pair<const char *, const char *> kEdits[] = {
        {"\"cell\": 2,", "\"cell\": 2.5,"},
        {"\"cell\": 2,", "\"cell\": -1,"},
        {"\"cell\": 2,", "\"cell\": 2e0,"},
        {"\"cell\": 2,", "\"cell\": 99999999999999999999,"},
        {"\"ipc\": 1.5", "\"ipc\":  1.5"},
        {"\"workload\": \"python\", \"policy\": \"SRRIP\"",
         "\"policy\": \"SRRIP\", \"workload\": \"python\""},
    };
    for (const auto &[from, to] : kEdits) {
        std::string text = line;
        const auto pos = text.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        text.replace(pos, std::strlen(from), to);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
        EXPECT_TRUE(exp::RunJournal::load(path).empty()) << to;
    }
    std::remove(path.c_str());
}

TEST_F(FaultTest, ResumeReproducesByteIdenticalBench)
{
    const std::string journal = "fault_resume.jsonl";
    const std::string clean_json = "fault_resume_clean.json";
    const std::string crashed_json = "fault_resume_crashed.json";
    const std::string resumed_json = "fault_resume_resumed.json";
    std::remove(journal.c_str());

    // Uninterrupted reference run (no journal).
    {
        exp::ExperimentRunner runner(2);
        exp::JsonSink sink(clean_json);
        std::vector<exp::ResultSink *> sinks{&sink};
        runner.run(tinySpec(), sinks);
    }

    // "Crashing" run: injected faults fail a subset of cells (Skip
    // mode), so the journal holds ok lines only for the survivors.
    std::uint64_t crashed_failed = 0;
    {
        FaultInjector::instance().configure("cell:1/2,seed=5");
        exp::ExperimentRunner runner(2);
        auto spec = tinySpec();
        spec.onError.mode = exp::OnError::Mode::Skip;
        spec.journal = journal;
        exp::JsonSink sink(crashed_json);
        std::vector<exp::ResultSink *> sinks{&sink};
        const auto results = runner.run(spec, sinks);
        crashed_failed = results.cellsFailed;
        FaultInjector::instance().configure("");
    }
    ASSERT_GT(crashed_failed, 0u);

    // Resume: the journaled survivors replay, the failed cells
    // re-execute (injection now off), and the BENCH bytes must match
    // the uninterrupted run exactly.
    {
        exp::ExperimentRunner runner(2);
        auto spec = tinySpec();
        spec.journal = journal;
        exp::JsonSink sink(resumed_json);
        std::vector<exp::ResultSink *> sinks{&sink};
        const auto results = runner.run(spec, sinks);
        EXPECT_EQ(results.cellsFailed, 0u);
        EXPECT_GT(results.cellsResumed, 0u);
        EXPECT_EQ(results.cellsResumed + crashed_failed,
                  results.cells().size());
    }
    EXPECT_EQ(slurp(resumed_json), slurp(clean_json));
    EXPECT_NE(slurp(crashed_json), slurp(clean_json));

    std::remove(journal.c_str());
    std::remove(clean_json.c_str());
    std::remove(crashed_json.c_str());
    std::remove(resumed_json.c_str());
}

// ------------------------------------------------------ grouped rows

TEST_F(FaultTest, ResumeFromHalfARowRunsOnlyTheMissingLanes)
{
    const std::string journal = "fault_half_row.jsonl";
    const std::string clean_json = "fault_half_row_clean.json";
    const std::string resumed_json = "fault_half_row_resumed.json";
    std::remove(journal.c_str());
    exp::ExperimentSpec spec = tinySpec();
    spec.workloads = {"python"};
    spec.policies = {"SRRIP", "TRRIP-1", "CLIP", "LRU"};

    {
        exp::ExperimentRunner runner(2);
        exp::JsonSink sink(clean_json);
        runner.run(spec, {&sink});
    }
    // A journal holding the first half of the row.
    {
        exp::ExperimentRunner runner(2);
        exp::ExperimentSpec half = spec;
        half.journal = journal;
        half.filter = [](const exp::CellId &id) {
            return id.policy < 2;
        };
        runner.run(half, {});
    }
    // Resume: the probe factory sees exactly the lanes that execute.
    std::mutex mutex;
    std::set<std::size_t> executed;
    {
        exp::ExperimentRunner runner(2);
        exp::ExperimentSpec resumed = spec;
        resumed.journal = journal;
        resumed.probes = [&](const SimOptions &,
                             const exp::CellId &id) {
            std::lock_guard<std::mutex> lock(mutex);
            executed.insert(id.policy);
            return std::shared_ptr<LaneProbe>();
        };
        exp::JsonSink sink(resumed_json);
        const exp::ExperimentResults results =
            runner.run(resumed, {&sink});
        EXPECT_EQ(results.cellsResumed, 2u);
        EXPECT_EQ(results.cellsFailed, 0u);
    }
    EXPECT_EQ(executed, (std::set<std::size_t>{2, 3}));
    EXPECT_EQ(slurp(resumed_json), slurp(clean_json));

    std::remove(journal.c_str());
    std::remove(clean_json.c_str());
    std::remove(resumed_json.c_str());
}

TEST_F(FaultTest, SkipModeSurvivingLanesMatchAFaultFreeRun)
{
    exp::ExperimentRunner runner(2);
    const exp::ExperimentResults clean = runner.run(tinySpec(), {});

    FaultInjector::instance().configure("cell:1/2,seed=5");
    exp::ExperimentSpec spec = tinySpec();
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults faulty = runner.run(spec, {});
    FaultInjector::instance().configure("");

    // The case that matters: a row whose lanes partly failed their
    // own cell draws, so the survivors ran without their neighbours.
    bool mixed_row = false;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        std::size_t failed = 0;
        for (std::size_t p = 0; p < spec.policies.size(); ++p)
            failed += faulty.at(w, p).failed ? 1 : 0;
        mixed_row = mixed_row ||
                    (failed > 0 && failed < spec.policies.size());
    }
    EXPECT_TRUE(mixed_row);
    ASSERT_EQ(clean.cells().size(), faulty.cells().size());
    for (std::size_t i = 0; i < clean.cells().size(); ++i) {
        const exp::CellRecord &rec = faulty.cells()[i];
        if (rec.failed)
            EXPECT_EQ(rec.errorCategory, "injected");
        else
            EXPECT_EQ(rec.metrics, clean.cells()[i].metrics);
    }
}

TEST_F(FaultTest, TimedOutGroupFailsEveryPendingLane)
{
    exp::ExperimentRunner runner(2);
    runner.setCellTimeout(150);
    exp::ExperimentSpec spec;
    spec.name = "timeout_row";
    spec.workloads = {"python"};
    spec.policies = {"SRRIP", "TRRIP-1", "CLIP"};
    // A budget far beyond what the row's deadline can simulate, after
    // a short training run.
    spec.options.maxInstructions = 2'000'000'000;
    spec.options.profileInstructions = 10'000;
    spec.onError.mode = exp::OnError::Mode::Skip;
    const exp::ExperimentResults results = runner.run(spec, {});
    ASSERT_EQ(results.cells().size(), 3u);
    for (const exp::CellRecord &rec : results.cells()) {
        EXPECT_TRUE(rec.failed);
        EXPECT_EQ(rec.errorCategory, "timeout");
    }
    EXPECT_EQ(results.cellsFailed, 3u);
}

} // namespace
} // namespace trrip
