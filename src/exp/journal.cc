#include "exp/journal.hh"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>

#include "exp/json_util.hh"
#include "util/fault.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace trrip::exp {

namespace {

constexpr std::string_view kFingerprintKey = ", \"fingerprint\": \"";

/** Bytes of closing(): the key, 16 hex digits and the closing `"}`. */
constexpr std::size_t kClosingBytes = kFingerprintKey.size() + 16 + 2;

/** What ends a line whose bytes before it are @p payload. */
std::string
closing(std::string_view payload)
{
    std::uint64_t h = kFnv1aBasis;
    for (const char c : payload)
        h = fnv1a(h, static_cast<std::uint8_t>(c));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(kFingerprintKey) + hex + "\"}";
}

/** @p entry as its one-line JSON form (no newline). */
std::string
journalLine(const JournalEntry &entry)
{
    std::string line = "{\"cell\": " + std::to_string(entry.cell) +
                       ", \"workload\": \"" + jsonEscape(entry.workload) +
                       "\", \"policy\": \"" + jsonEscape(entry.policy) +
                       "\", \"config\": \"" + jsonEscape(entry.config) +
                       "\", \"resolved_policies\": [";
    const char *sep = "";
    for (const auto &[level, desc] : entry.resolvedPolicies) {
        line += sep;
        line += "[\"" + jsonEscape(level) + "\", \"" +
                jsonEscape(desc) + "\"]";
        sep = ", ";
    }
    line += "], \"metrics\": {";
    sep = "";
    for (const auto &[name, value] : entry.metrics) {
        line += sep;
        line += "\"" + jsonEscape(name) + "\": " + jsonNumber(value);
        sep = ", ";
    }
    line += "}";
    return line + closing(line);
}

/** Reads journalLine()'s layout front to back; any other byte fails. */
struct PayloadReader
{
    std::string_view rest;
    bool ok = true;

    /** Consume @p text if it comes next. */
    bool
    skip(std::string_view text)
    {
        if (!ok || !rest.starts_with(text))
            return false;
        rest.remove_prefix(text.size());
        return true;
    }

    /** Consume @p text, which must come next. */
    void literal(std::string_view text) { ok = skip(text); }

    /** A quoted jsonEscape()d string, unescaped. */
    std::string
    string()
    {
        literal("\"");
        // The body escapes every quote, and a backslash escapes the
        // byte after it.
        std::size_t end = 0;
        while (end < rest.size() && rest[end] != '"')
            end += rest[end] == '\\' ? 2 : 1;
        ok = ok && end < rest.size();
        if (!ok)
            return {};
        std::string out = jsonUnescape(std::string(rest.substr(0, end)));
        rest.remove_prefix(end + 1);
        return out;
    }

    /** A number as std::to_string() or jsonNumber() wrote it. */
    template <typename T>
    T
    number()
    {
        T value{};
        const auto [ptr, ec] =
            std::from_chars(rest.data(), rest.data() + rest.size(), value);
        ok = ok && ec == std::errc();
        if (ok)
            rest.remove_prefix(static_cast<std::size_t>(ptr - rest.data()));
        return value;
    }
};

/** The entry journalLine() wrote as @p payload (its bytes before the
 *  fingerprint), or nullopt for any other layout. */
std::optional<JournalEntry>
parsePayload(std::string_view payload)
{
    PayloadReader r{payload};
    JournalEntry entry;
    r.literal("{\"cell\": ");
    entry.cell = r.number<std::size_t>();
    r.literal(", \"workload\": ");
    entry.workload = r.string();
    r.literal(", \"policy\": ");
    entry.policy = r.string();
    r.literal(", \"config\": ");
    entry.config = r.string();
    r.literal(", \"resolved_policies\": [");
    while (r.ok && !r.skip("]")) {
        if (!entry.resolvedPolicies.empty())
            r.literal(", ");
        r.literal("[");
        std::string level = r.string();
        r.literal(", ");
        std::string desc = r.string();
        r.literal("]");
        entry.resolvedPolicies.emplace_back(std::move(level),
                                            std::move(desc));
    }
    r.literal(", \"metrics\": {");
    while (r.ok && !r.skip("}")) {
        if (!entry.metrics.empty())
            r.literal(", ");
        std::string name = r.string();
        r.literal(": ");
        entry.metrics[std::move(name)] = r.number<double>();
    }
    if (!r.ok || !r.rest.empty())
        return std::nullopt;
    return entry;
}

} // namespace

RunJournal::RunJournal(std::string path) : path_(std::move(path))
{
    out_.open(path_, std::ios::app);
    if (!out_)
        warn("journal '", path_, "': cannot open for appending");
}

void
RunJournal::append(const JournalEntry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!out_)
        return;
    // The sink_write injection site, absorbed by a bounded retry: an
    // exhausted retry costs this cell's resumability, never the cell
    // or a byte of BENCH output.
    for (unsigned attempt = 0; attempt < 3; ++attempt) {
        if (!FaultInjector::instance().shouldFail(
                FaultSite::SinkWrite)) {
            out_ << journalLine(entry) << '\n' << std::flush;
            if (!out_) {
                warn("journal '", path_, "': write failed for cell ",
                     entry.cell);
                out_.clear();
            }
            return;
        }
    }
    warn("journal '", path_, "': dropped entry for cell ", entry.cell,
         " after repeated write faults");
}

std::map<std::size_t, JournalEntry>
RunJournal::load(const std::string &path)
{
    std::map<std::size_t, JournalEntry> entries;
    std::ifstream in(path);
    if (!in)
        return entries;  // Missing journal: a fresh run.
    std::string line;
    while (std::getline(in, line)) {
        // Check the fingerprint before parsing: a torn, edited or
        // foreign line never reaches the parser.
        if (line.size() < kClosingBytes)
            continue;
        const std::string_view payload =
            std::string_view(line).substr(0, line.size() - kClosingBytes);
        if (!line.ends_with(closing(payload)))
            continue;
        if (std::optional<JournalEntry> entry = parsePayload(payload))
            entries[entry->cell] = std::move(*entry);  // Last wins.
    }
    return entries;
}

} // namespace trrip::exp
