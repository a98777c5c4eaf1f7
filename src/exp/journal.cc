#include "exp/journal.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "exp/json_util.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace trrip::exp {

namespace {

/**
 * Integrity fingerprint: FNV-1a over a canonical rendering of the
 * payload fields.  Serialization round-trips exactly (strings
 * verbatim, doubles through %.17g/strtod), so recomputing this from
 * a parsed entry matches the stored value iff the line is intact.
 */
std::uint64_t
entryFingerprint(const JournalEntry &e)
{
    std::string buf = std::to_string(e.cell);
    const auto sep = [&] { buf += '\x1f'; };
    sep(); buf += e.workload;
    sep(); buf += e.policy;
    sep(); buf += e.config;
    for (const auto &[level, desc] : e.resolvedPolicies) {
        sep(); buf += level;
        sep(); buf += desc;
    }
    for (const auto &[name, value] : e.metrics) {
        sep(); buf += name;
        sep(); buf += jsonNumber(value);
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : buf) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Minimal scanner for the journal's own flat line schema. */
struct Parser
{
    const std::string &s;
    std::size_t pos = 0;
    bool ok = true;

    void
    ws()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t'))
            ++pos;
    }

    bool
    expect(char c)
    {
        ws();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        ok = false;
        return false;
    }

    bool
    peek(char c)
    {
        ws();
        return pos < s.size() && s[pos] == c;
    }

    std::string
    string()
    {
        if (!expect('"'))
            return {};
        std::string raw;
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '\\') {
                if (pos + 1 >= s.size()) {
                    ok = false;
                    return {};
                }
                raw += c;
                raw += s[pos + 1];
                pos += 2;
                continue;
            }
            if (c == '"') {
                ++pos;
                return jsonUnescape(raw);
            }
            raw += c;
            ++pos;
        }
        ok = false;  // Unterminated string (torn line).
        return {};
    }

    double
    number()
    {
        ws();
        char *end = nullptr;
        const double v = std::strtod(s.c_str() + pos, &end);
        if (end == s.c_str() + pos) {
            ok = false;
            return 0.0;
        }
        pos = static_cast<std::size_t>(end - s.c_str());
        return v;
    }

    /**
     * A whole decimal count that fits @p T: a sign, a fraction, an
     * exponent or an overflow fails the line (a fraction or exponent
     * stops the parse short of the next delimiter).
     */
    template <typename T>
    T
    count()
    {
        ws();
        const char *begin = s.data() + pos;
        T n = 0;
        const auto [ptr, ec] =
            std::from_chars(begin, s.data() + s.size(), n);
        if (ec != std::errc()) {
            ok = false;
            return 0;
        }
        pos = static_cast<std::size_t>(ptr - s.data());
        return n;
    }
};

/** Parse one journal line; also yields its "status" and stored
 *  fingerprint.  False on any syntax damage (torn trailing line). */
bool
parseLine(const std::string &line, JournalEntry &entry,
          std::string &status, std::uint64_t &fingerprint,
          bool &sawFingerprint)
{
    Parser p{line};
    if (!p.expect('{'))
        return false;
    if (p.peek('}'))
        return false;  // An empty object is not a journal entry.
    while (p.ok) {
        const std::string key = p.string();
        if (!p.expect(':'))
            return false;
        if (key == "cell") {
            entry.cell = p.count<std::size_t>();
        } else if (key == "status") {
            status = p.string();
        } else if (key == "workload") {
            entry.workload = p.string();
        } else if (key == "policy") {
            entry.policy = p.string();
        } else if (key == "config") {
            entry.config = p.string();
        } else if (key == "attempts") {
            entry.attempts = p.count<unsigned>();
        } else if (key == "error_category") {
            entry.errorCategory = p.string();
        } else if (key == "error_message") {
            entry.errorMessage = p.string();
        } else if (key == "fingerprint") {
            const std::string hex = p.string();
            fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
            sawFingerprint = true;
        } else if (key == "resolved_policies") {
            if (!p.expect('['))
                return false;
            while (!p.peek(']')) {
                if (!p.expect('['))
                    return false;
                const std::string level = p.string();
                if (!p.expect(','))
                    return false;
                const std::string desc = p.string();
                if (!p.expect(']'))
                    return false;
                entry.resolvedPolicies.emplace_back(level, desc);
                if (!p.peek(','))
                    break;
                p.expect(',');
            }
            if (!p.expect(']'))
                return false;
        } else if (key == "metrics") {
            if (!p.expect('{'))
                return false;
            while (!p.peek('}')) {
                const std::string name = p.string();
                if (!p.expect(':'))
                    return false;
                entry.metrics[name] = p.number();
                if (!p.peek(','))
                    break;
                p.expect(',');
            }
            if (!p.expect('}'))
                return false;
        } else {
            return false;  // Unknown key: not our schema.
        }
        if (p.peek('}')) {
            p.expect('}');
            return p.ok;
        }
        if (!p.expect(','))
            return false;
    }
    return false;
}

/** @p entry as its one-line JSON form (no newline). */
std::string
journalLine(const JournalEntry &entry)
{
    std::string line = "{\"cell\": " + std::to_string(entry.cell);
    line += ", \"status\": \"";
    line += entry.failed ? "error" : "ok";
    line += "\", \"workload\": \"" + jsonEscape(entry.workload) +
            "\", \"policy\": \"" + jsonEscape(entry.policy) +
            "\", \"config\": \"" + jsonEscape(entry.config) +
            "\", \"attempts\": " + std::to_string(entry.attempts);
    if (entry.failed) {
        line += ", \"error_category\": \"" +
                jsonEscape(entry.errorCategory) +
                "\", \"error_message\": \"" +
                jsonEscape(entry.errorMessage) + "\"";
        return line + "}";
    }
    line += ", \"resolved_policies\": [";
    bool first = true;
    for (const auto &[level, desc] : entry.resolvedPolicies) {
        line += first ? "" : ", ";
        line += "[\"" + jsonEscape(level) + "\", \"" +
                jsonEscape(desc) + "\"]";
        first = false;
    }
    line += "], \"metrics\": {";
    first = true;
    for (const auto &[name, value] : entry.metrics) {
        line += first ? "" : ", ";
        line += "\"" + jsonEscape(name) + "\": " + jsonNumber(value);
        first = false;
    }
    line += "}";
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      entryFingerprint(entry)));
    line += std::string(", \"fingerprint\": \"") + fp + "\"}";
    return line;
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
        if (line.empty())
            continue;
        JournalEntry entry;
        std::string status;
        std::uint64_t fingerprint = 0;
        bool sawFingerprint = false;
        if (!parseLine(line, entry, status, fingerprint,
                       sawFingerprint)) {
            continue;  // Torn or foreign line.
        }
        if (status != "ok")
            continue;  // Failed cells re-execute on resume.
        if (!sawFingerprint || fingerprint != entryFingerprint(entry))
            continue;  // Payload damage.
        entries[entry.cell] = std::move(entry);  // Last line wins.
    }
    return entries;
}

} // namespace trrip::exp
