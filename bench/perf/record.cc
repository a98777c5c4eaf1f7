/**
 * @file
 * Summary statistics and the two files a run leaves: the stamped
 * PERF_<workload>.json record and the TRACE_<workload>.json spans.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "exp/json_util.hh"
#include "perf.hh"
#include "util/logging.hh"

namespace trrip::perf {

using exp::jsonEscape;
using exp::jsonNumber;

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.median = n % 2 ? samples[n / 2]
                     : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    // Python's statistics.quantiles(samples, n=4), 'exclusive' method.
    const auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter carries over the
    // peak of whatever process image exec replaced (a Python launcher
    // outweighs the trace workload).
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * `git rev-parse HEAD` of the source tree this binary was built from,
 * else "unknown" (a tree that is not a git checkout).
 */
std::string
gitRev()
{
    const std::string root = TRRIP_PERF_SOURCE_ROOT;
    if (root.find('\'') != std::string::npos ||
        !std::filesystem::exists(root + "/.git")) {
        return "unknown";
    }
    std::string rev;
    const std::string cmd =
        "git -C '" + root + "' rev-parse HEAD 2>/dev/null";
    if (FILE *pipe = popen(cmd.c_str(), "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), pipe))
            rev += buf;
        pclose(pipe);
    }
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' '))
        rev.pop_back();
    return rev.empty() ? "unknown" : rev;
}

std::string
quoted(const std::string &s)
{
    return '"' + jsonEscape(s) + '"';
}

std::string
stringArray(const std::vector<std::string> &values)
{
    std::string out = "[";
    for (const std::string &value : values) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(value);
    }
    return out + "]";
}

void
writeMetrics(std::ofstream &out, const std::vector<Metric> &metrics)
{
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const Summary s = summarize(m.samples);
        out << (i ? ",\n" : "\n") << "    " << quoted(m.name)
            << ": {\"unit\": " << quoted(m.unit)
            << ", \"median\": " << jsonNumber(s.median)
            << ", \"q1\": " << jsonNumber(s.q1)
            << ", \"q3\": " << jsonNumber(s.q3)
            << ", \"n\": " << (m.n ? m.n : s.n) << ", \"samples\": [";
        for (std::size_t k = 0; k < m.samples.size(); ++k)
            out << (k ? ", " : "") << jsonNumber(m.samples[k]);
        out << "]}";
    }
    out << "\n  }";
}

std::ofstream
openOut(const Context &ctx, const std::string &stem)
{
    const std::string path =
        ctx.args.out + "/" + stem + "_" + ctx.workload->name + ".json";
    std::ofstream out(path);
    fatal_if(!out, "cannot write ", path);
    return out;
}

} // namespace

void
writeRecord(const Context &ctx, const RunInfo &info,
            const std::vector<Metric> &end_to_end,
            const std::vector<Metric> &layers)
{
    std::ofstream out = openOut(ctx, "PERF");
    out << "{\n  \"schema\": \"trrip_perf/1\""
        << ",\n  \"workload\": " << quoted(ctx.workload->name)
        << ",\n  \"mode\": " << quoted(info.mode)
        << ",\n  \"rev\": " << quoted(gitRev())
        << ",\n  \"build\": {\"type\": " << quoted(TRRIP_PERF_BUILD_TYPE)
        << ", \"flags\": " << quoted(TRRIP_PERF_FLAGS)
        << ", \"lto\": " << quoted(TRRIP_PERF_LTO)
        << ", \"compiler\": " << quoted(TRRIP_PERF_COMPILER) << "}"
        << ",\n  \"host\": {\"nproc\": " << hostCpus()
        << ", \"cpu\": " << quoted(cpuModel()) << "}"
        << ",\n  \"seed\": " << ctx.args.seed
        << ",\n  \"budget_instructions\": " << ctx.budget
        << ",\n  \"jobs\": " << ctx.jobs
        << ",\n  \"passes\": " << info.passes
        << ",\n  \"seconds\": " << jsonNumber(ctx.args.seconds)
        << ",\n  \"workloads\": " << stringArray(ctx.spec.workloads)
        << ",\n  \"policies\": " << stringArray(ctx.spec.policies)
        << ",\n  \"caches\": \"simulated caches start empty in every "
           "cell\""
        << ",\n  \"model\": \"unvalidated: the sim_* metrics are the "
           "model's own TRRIP-2 vs SRRIP outcome, not a measured error\""
        << ",\n  \"correct\": " << (info.correct ? "true" : "false")
        << ",\n  \"attempted\": " << info.attempted
        << ",\n  \"failed\": " << info.failed << ",\n  \"checks\": {";
    bool first = true;
    for (const auto &[name, verdict] : info.checks) {
        out << (first ? "" : ", ") << quoted(name) << ": "
            << quoted(verdict);
        first = false;
    }
    out << "},\n  \"end_to_end\": ";
    writeMetrics(out, end_to_end);
    out << ",\n  \"layers\": ";
    writeMetrics(out, layers);
    out << "\n}\n";
}

void
writeTrace(const Context &ctx, const SpanLog &log)
{
    std::ofstream out = openOut(ctx, "TRACE");
    out << "{\n  \"workload\": " << quoted(ctx.workload->name)
        << ",\n  \"clock\": \"seconds on the steady clock since the "
           "process started\""
        << ",\n  \"spans\": [";
    const std::vector<SpanLog::Span> spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanLog::Span &s = spans[i];
        out << (i ? ",\n" : "\n") << "    {\"id\": " << i
            << ", \"name\": " << quoted(s.name)
            << ", \"start\": " << jsonNumber(s.start)
            << ", \"end\": " << jsonNumber(s.end)
            << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
            << "}";
    }
    out << "\n  ]\n}\n";
}

} // namespace trrip::perf
