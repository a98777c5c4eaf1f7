#include "exp/sink.hh"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "core/policy_registry.hh"
#include "exp/json_util.hh"
#include "util/logging.hh"

namespace trrip::exp {

std::string
defaultSinkPath(const std::string &stem, const std::string &ext)
{
    const char *dir = std::getenv("TRRIP_RESULTS_DIR");
    std::string path = dir && *dir ? dir : ".";
    if (path.back() != '/')
        path += '/';
    return path + "BENCH_" + stem + "." + ext;
}

// --------------------------------------------------------------- tables

void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printHeader(const std::string &first,
            const std::vector<std::string> &columns, int width)
{
    std::printf("%-12s", first.c_str());
    for (const auto &c : columns)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

void
printRow(const std::string &first, const std::vector<double> &values,
         int width, int precision)
{
    std::printf("%-12s", first.c_str());
    for (double v : values)
        std::printf("%*.*f", width, precision, v);
    std::printf("\n");
}

TableSink::TableSink(std::vector<std::string> metrics) :
    metrics_(std::move(metrics))
{
    if (metrics_.empty())
        metrics_ = {"cycles", "ipc", "l2_inst_mpki", "l2_data_mpki"};
}

void
TableSink::begin(const ExperimentSpec &spec)
{
    banner(spec.title.empty() ? spec.name : spec.title);
    std::vector<std::string> cols{"policy", "config"};
    cols.insert(cols.end(), metrics_.begin(), metrics_.end());
    printHeader("workload", cols, 14);
}

void
TableSink::cell(const CellRecord &record)
{
    std::printf("%-12s%14s%14s", record.workload.c_str(),
                record.policy.c_str(), record.config.c_str());
    if (record.failed) {
        std::printf("  ERROR[%s] %s\n", record.errorCategory.c_str(),
                    record.errorMessage.c_str());
        return;
    }
    for (const auto &name : metrics_) {
        const auto it = record.metrics.find(name);
        if (it == record.metrics.end())
            std::printf("%14s", "-");
        else
            std::printf("%14.3f", it->second);
    }
    std::printf("\n");
}

void
printRunSummary(const ExperimentResults &results)
{
    std::size_t live = 0;
    for (const auto &rec : results.cells())
        live += rec.valid ? 1 : 0;
    std::printf("[%s] %zu cells on %u threads in %.2fs; profile "
                "cache: %llu collections, %llu hits",
                results.spec().name.c_str(), live,
                results.threadsUsed, results.wallSeconds,
                static_cast<unsigned long long>(
                    results.profileCollections),
                static_cast<unsigned long long>(results.profileHits));
    if (results.cellsFailed || results.cellsRetried ||
        results.cellsResumed) {
        std::printf("; %llu failed, %llu retried, %llu resumed "
                    "(%llu failed attempts)",
                    static_cast<unsigned long long>(
                        results.cellsFailed),
                    static_cast<unsigned long long>(
                        results.cellsRetried),
                    static_cast<unsigned long long>(
                        results.cellsResumed),
                    static_cast<unsigned long long>(
                        results.failedAttempts));
    }
    std::printf("\n");
}

// ----------------------------------------------------------------- JSON

namespace {

void
writeStringArray(std::ofstream &out, const char *key,
                 const std::vector<std::string> &values)
{
    out << "  \"" << key << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << '"' << jsonEscape(values[i]) << '"';
    out << "],\n";
}

/**
 * Fully resolved registry label when @p label parses as a policy
 * spec, @p label verbatim otherwise (free-form axes stay as-is).
 */
std::string
canonicalLabel(const std::string &label)
{
    return PolicyRegistry::instance().canonicalLabel(label);
}

std::vector<std::string>
canonicalLabels(const std::vector<std::string> &labels)
{
    std::vector<std::string> out;
    out.reserve(labels.size());
    for (const auto &label : labels)
        out.push_back(canonicalLabel(label));
    return out;
}

/**
 * RFC 4180 CSV field quoting.  Canonical policy labels contain commas
 * ("DRRIP(bits=2,leader_sets=32,...)"), so label fields must be
 * quoted or every metric column after them shifts.
 */
std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n\r") == std::string::npos)
        return value;
    std::string out = "\"";
    for (char c : value) {
        if (c == '"')
            out += '"';
        out += c;
    }
    return out + "\"";
}

} // namespace

JsonSink::JsonSink(std::string path) : path_(std::move(path)) {}

void
JsonSink::begin(const ExperimentSpec &spec)
{
    if (path_.empty())
        path_ = defaultSinkPath(spec.name, "json");
    out_.open(path_);
    fatal_if(!out_, "JsonSink: cannot open ", path_);
    firstCell_ = true;
    std::vector<std::string> configs;
    for (std::size_t c = 0; c < spec.configCount(); ++c)
        configs.push_back(spec.configLabel(c));
    out_ << "{\n  \"experiment\": \"" << jsonEscape(spec.name)
         << "\",\n  \"title\": \"" << jsonEscape(spec.title) << "\",\n";
    writeStringArray(out_, "workloads", spec.workloads);
    writeStringArray(out_, "policies", canonicalLabels(spec.policies));
    writeStringArray(out_, "configs", configs);
    out_ << "  \"cells\": [";
}

void
JsonSink::cell(const CellRecord &record)
{
    out_ << (firstCell_ ? "\n" : ",\n");
    firstCell_ = false;
    out_ << "    {\"workload\": \"" << jsonEscape(record.workload)
         << "\", \"policy\": \""
         << jsonEscape(canonicalLabel(record.policy))
         << "\", \"config\": \"" << jsonEscape(record.config) << "\"";
    if (record.failed) {
        // The schema-stable error row: category + message instead of
        // a metrics object.  The message carries no wall-clock or
        // address material, so BENCH output stays byte-reproducible
        // for a given outcome set.
        out_ << ", \"error\": {\"category\": \""
             << jsonEscape(record.errorCategory) << "\", \"message\": \""
             << jsonEscape(record.errorMessage) << "\"}}";
        return;
    }
    if (!record.artifacts.resolvedPolicies.empty()) {
        out_ << ", \"resolved_policies\": {";
        bool first = true;
        for (const auto &[level, desc] :
             record.artifacts.resolvedPolicies) {
            out_ << (first ? "" : ", ") << '"' << jsonEscape(level)
                 << "\": \"" << jsonEscape(desc) << '"';
            first = false;
        }
        out_ << "}";
    }
    out_ << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : record.metrics) {
        out_ << (first ? "" : ", ") << '"' << jsonEscape(name)
             << "\": " << jsonNumber(value);
        first = false;
    }
    out_ << "}}";
}

void
JsonSink::end(const ExperimentResults &results)
{
    // Deliberately no wall time, thread count, or cache statistics:
    // the file must be byte-identical across runs, TRRIP_JOBS
    // settings, retries and journal resumes, so it can be diffed for
    // regression tracking (timing and cache hit rates live on
    // stdout; see printRunSummary).
    (void)results;
    out_ << "\n  ]\n}\n";
    out_.close();
    fatal_if(!out_, "JsonSink: cannot write ", path_);
    inform("wrote ", path_);
}

// ------------------------------------------------------------------ CSV

CsvSink::CsvSink(std::string path) : path_(std::move(path)) {}

void
CsvSink::begin(const ExperimentSpec &spec)
{
    if (path_.empty())
        path_ = defaultSinkPath(spec.name, "csv");
}

void
CsvSink::end(const ExperimentResults &results)
{
    std::ofstream out(path_);
    fatal_if(!out, "CsvSink: cannot open ", path_);
    // The rows are the valid records, in index order: the cells the
    // runner fed this sink.
    std::set<std::string> columns;
    bool any_failed = false;
    for (const CellRecord &row : results.cells()) {
        if (!row.valid)
            continue;
        for (const auto &[name, _] : row.metrics)
            columns.insert(name);
        any_failed = any_failed || row.failed;
    }
    out << "workload,policy,config";
    for (const auto &c : columns)
        out << ',' << c;
    // Error columns only exist when the run produced an error row,
    // so fault-free output is byte-identical to the pre-error-row
    // schema.
    if (any_failed)
        out << ",error_category,error_message";
    out << '\n';
    for (const CellRecord &row : results.cells()) {
        if (!row.valid)
            continue;
        out << csvField(row.workload) << ','
            << csvField(canonicalLabel(row.policy)) << ','
            << csvField(row.config);
        for (const auto &c : columns) {
            const auto it = row.metrics.find(c);
            out << ',';
            if (it != row.metrics.end())
                out << jsonNumber(it->second);
        }
        if (any_failed) {
            out << ',' << csvField(row.errorCategory) << ','
                << csvField(row.errorMessage);
        }
        out << '\n';
    }
    out.close();
    fatal_if(!out, "CsvSink: cannot write ", path_);
    inform("wrote ", path_);
}

} // namespace trrip::exp
