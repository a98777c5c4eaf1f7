/**
 * @file
 * trrip_perf: the simulator's host-performance benchmark (README.md).
 *
 *   trrip_perf [--workload NAME] [--seed S] [--seconds N]
 *              [--trace [0|1]] [--smoke] [--out DIR]
 *
 * Without --workload the binary re-executes itself once per workload,
 * so each workload gets its own process and its own peak RSS.  Each
 * metric prints as one `workload metric value unit` line; the last
 * line of a single-workload run is one JSON object with the verdict
 * and the end-to-end metrics (the per-layer metrics with --trace).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "exp/json_util.hh"
#include "perf.hh"

extern char **environ;

namespace {

using namespace trrip;
using namespace trrip::perf;

/**
 * setup_s is the median of repeated cold set-ups: at least this many,
 * and more until kSetupSeconds are spent, so the millisecond-scale
 * trace set-up gets as steady a median as the proxy ones.
 */
constexpr unsigned kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
/**
 * Fewest timed passes a --seconds run makes, and the pass pairs of a
 * --trace run without --seconds.
 */
constexpr unsigned kMinPasses = 3;
/** Interleaved rounds of the stub-lever attribution. */
constexpr unsigned kStubRounds = 3;

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "trrip_perf: %s\nusage: trrip_perf [--workload NAME] "
                 "[--seed S] [--seconds N] [--trace [0|1]] [--smoke] "
                 "[--out DIR]\nworkloads:",
                 error.c_str());
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                args.workload = value();
                if (!findWorkload(args.workload))
                    usage("unknown workload '" + args.workload + "'");
            } else if (arg == "--seed") {
                args.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                args.seconds = std::stod(value());
                if (!(args.seconds >= 0.0))
                    usage("--seconds must be >= 0");
            } else if (arg == "--trace") {
                args.trace = true;
                if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                                     std::string(argv[i + 1]) == "1")) {
                    args.trace = value() == "1";
                }
            } else if (arg == "--smoke") {
                args.smoke = true;
            } else if (arg == "--out") {
                args.out = value();
            } else {
                usage("unknown argument '" + arg + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    // --smoke emits every metric, so it includes the traced run.
    args.trace = args.trace || args.smoke;
    return args;
}

/**
 * The benchmark depends only on its arguments: drop every TRRIP_*
 * knob (budget, jobs, engine mode, deadlines, fault injection).
 */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("TRRIP_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

/** One process per workload, run one after another. */
int
runAll(const Args &args)
{
    std::size_t correct = 0;
    for (const Workload &w : workloads()) {
        std::vector<std::string> words = {
            "trrip_perf", "--workload", w.name,
            "--seed",     std::to_string(args.seed),
            "--out",      args.out};
        if (args.seconds > 0) {
            words.push_back("--seconds");
            words.push_back(exp::jsonNumber(args.seconds));
        }
        if (args.smoke)
            words.push_back("--smoke");
        else if (args.trace)
            words.insert(words.end(), {"--trace", "1"});
        std::vector<char *> child_argv;
        for (std::string &word : words)
            child_argv.push_back(word.data());
        child_argv.push_back(nullptr);

        std::fflush(stdout);
        const pid_t pid = fork();
        if (pid == 0) {
            execv("/proc/self/exe", child_argv.data());
            std::perror("trrip_perf: execv");
            _exit(127);
        }
        int status = 0;
        if (pid > 0 && waitpid(pid, &status, 0) == pid &&
            WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            ++correct;
        }
    }
    std::printf("trrip_perf: %zu/%zu workloads correct\n", correct,
                workloads().size());
    return correct == workloads().size() ? 0 : 1;
}

void
printMetric(const std::string &workload, const Metric &m)
{
    const Summary s = summarize(m.samples);
    std::printf("%s %s %s %s  # q1 %s q3 %s n %zu\n", workload.c_str(),
                m.name.c_str(), exp::jsonNumber(s.median).c_str(),
                m.unit.c_str(), exp::jsonNumber(s.q1).c_str(),
                exp::jsonNumber(s.q3).c_str(), m.n ? m.n : s.n);
}

/** The verdict line: the last line of a single-workload run. */
void
printResult(const RunInfo &info, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                info.correct ? "true" : "false",
                static_cast<unsigned long long>(info.attempted),
                static_cast<unsigned long long>(info.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    exp::jsonNumber(summarize(metrics[i].samples).median)
                        .c_str(),
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
runWorkload(const Args &args)
{
    std::filesystem::create_directories(args.out);
    const Context ctx = makeContext(*findWorkload(args.workload), args);
    const Workload &workload = *ctx.workload;
    SpanLog log;
    SpanLog *spans = args.trace ? &log : nullptr;
    RunInfo info;
    info.mode = args.smoke ? "smoke" : args.trace ? "trace" : "timed";

    // Set-up, repeated from cold; the last one's warm runner (and its
    // profile cache) serves the timed passes of a warm workload.
    std::vector<SetupSample> setups;
    std::unique_ptr<exp::ExperimentRunner> runner;
    for (double spent = 0.0;
         setups.empty() ||
         (!args.smoke &&
          (setups.size() < kSetupReps || spent < kSetupSeconds));) {
        runner = std::make_unique<exp::ExperimentRunner>(ctx.jobs);
        setups.push_back(setUp(ctx, runner->profiles(), spans));
        spent += setups.back().total;
    }
    if (workload.cold)
        runner.reset();

    // The timed passes: a closed loop, each pass waiting for the one
    // before.  A traced run pairs every pass with a traced pass of the
    // same grid, alternating which goes first so that order effects
    // cancel in the tracing overhead.
    std::vector<PassOutcome> passes, traced;
    std::vector<std::vector<CellTrace>> cell_traces;
    const auto traced_pass = [&] {
        Scope pass(spans, "pass");
        TracedExecutor executor(ctx.spec, spans, pass.id());
        traced.push_back(runPass(ctx,
                                 TracedExecutor::traced(ctx.spec, executor),
                                 runner.get(), true));
        cell_traces.push_back(executor.cells());
    };
    const double t0 = now();
    const double timed_s = args.trace ? args.seconds / 2 : args.seconds;
    const unsigned fixed = args.smoke   ? 1
                           : args.trace ? kMinPasses
                                        : workload.passes;
    while (true) {
        const bool traced_first = args.trace && passes.size() % 2 == 1;
        if (traced_first)
            traced_pass();
        passes.push_back(runPass(ctx, ctx.spec, runner.get(), false));
        if (args.trace && !traced_first)
            traced_pass();
        const bool done =
            args.seconds > 0 && !args.smoke
                ? passes.size() >= kMinPasses && now() - t0 >= timed_s
                : passes.size() >= fixed;
        if (done)
            break;
    }
    info.passes = static_cast<unsigned>(passes.size());

    LayerTimes layers;
    if (args.trace) {
        exp::ExperimentRunner serial(1);
        layers = attributeLayers(ctx, ctx.jobs == 1 && runner ? *runner
                                                              : serial,
                                 args.smoke ? kSmokeBudget : kStubBudget,
                                 args.smoke ? 1 : kStubRounds, spans);
    }
    // Read before the correctness gate, so it measures the workload.
    const double peak_rss_mb = peakRssMb();

    const GoldenReport golden =
        verifyGoldens(args.out + "/golden_traces", std::min(4u, hostCpus()));
    info.checks["goldens"] = std::to_string(golden.matched) + "/" +
                             std::to_string(golden.total);
    info.correct = golden.total > 0 && golden.matched == golden.total;

    bool identical = !passes.front().benchBytes.empty();
    bool same_fingerprints = true;
    std::vector<double> wall, rate;
    for (const PassOutcome &pass : passes) {
        identical = identical &&
                    pass.benchBytes == passes.front().benchBytes;
        wall.push_back(pass.wall);
        rate.push_back(static_cast<double>(pass.instructions) / 1e6 /
                       pass.wall);
        info.attempted += pass.cells;
        info.failed += pass.failed;
    }
    for (const PassOutcome &pass : traced) {
        identical = identical &&
                    pass.benchBytes == passes.front().benchBytes;
        same_fingerprints = same_fingerprints &&
                            pass.fingerprints ==
                                passes.front().fingerprints;
        info.attempted += pass.cells;
        info.failed += pass.failed;
    }
    info.checks["bench_bytes"] =
        identical ? "identical across all passes" : "DIFFER";
    info.correct = info.correct && identical;
    if (args.trace) {
        info.checks["traced_fingerprints"] =
            same_fingerprints ? "equal to untraced" : "DIFFER";
        info.correct = info.correct && same_fingerprints;
    }

    std::vector<double> setup_s;
    for (const SetupSample &s : setups)
        setup_s.push_back(s.total);
    const SimSummary sim = simSummary(ctx.spec, passes.front());
    const std::vector<Metric> end_to_end = {
        {"minstr_per_s", "Minstr/s", rate},
        {"wall_s", "s", wall},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MB", {peak_rss_mb}},
        {"sim_l2i_miss_ratio", "ratio", {sim.l2iMissRatio}},
        {"sim_cycle_ratio", "ratio", {sim.cycleRatio}},
    };
    const std::vector<Metric> layer_metrics =
        args.trace ? layerMetrics(traced, cell_traces, wall, setups, layers)
                   : std::vector<Metric>{};

    const std::string &name = workload.name;
    for (const Metric &m : end_to_end)
        printMetric(name, m);
    printMetric(name, {"cell_error_rate", "ratio",
                       {static_cast<double>(info.failed) /
                        static_cast<double>(info.attempted)}});
    std::printf("%s sim_l2i_mpki_cut_pct %s %%  # paper 26.5; model "
                "unvalidated\n",
                name.c_str(),
                exp::jsonNumber((1.0 - sim.l2iMissRatio) * 100.0).c_str());
    std::printf("%s sim_speedup_pct %s %%  # paper 3.9; model "
                "unvalidated\n",
                name.c_str(),
                exp::jsonNumber((1.0 / sim.cycleRatio - 1.0) * 100.0)
                    .c_str());
    for (const Metric &m : layer_metrics)
        printMetric(name, m);
    for (const auto &[check, verdict] : info.checks)
        std::printf("%s check %s: %s\n", name.c_str(), check.c_str(),
                    verdict.c_str());

    writeRecord(ctx, info, end_to_end, layer_metrics);
    if (spans)
        writeTrace(ctx, log);
    printResult(info, args.trace ? layer_metrics : end_to_end);
    return info.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    const Args args = parseArgs(argc, argv);
    return args.workload.empty() ? runAll(args) : runWorkload(args);
}
