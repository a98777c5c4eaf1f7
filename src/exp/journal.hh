/**
 * @file
 * Run journal: append-only JSONL record of completed cells, and the
 * resume half that reads it back.
 *
 * As each cell of a journaled grid completes, the runner appends one
 * line holding everything the sinks consume from that cell, in one
 * fixed layout:
 *
 *     {"cell": N, "workload": ..., "policy": ..., "config": ...,
 *      "resolved_policies": [[level, desc], ...], "metrics": {...},
 *      "fingerprint": "<16 hex digits>"}
 *
 * (on one line).  The metrics are rendered with the sinks' own %.17g
 * codec, so a replayed row reproduces the exact BENCH bytes, and the
 * fingerprint is FNV-1a over every byte of the line before it.
 * Resubmitting the spec with the same journal path loads the file,
 * skips every cell with an intact line, and re-emits the recorded
 * rows: the resumed run's BENCH files are byte-identical to an
 * uninterrupted one.
 *
 * Only completed cells are journaled: a failed cell has no line and
 * re-executes on resume.  load() checks each line's fingerprint
 * against the line's own bytes before it parses anything, so a torn
 * trailing line (the crash case journaling exists for), an edited
 * line and a line written in another layout (an older build's
 * journal) are skipped, not fatal, and their cells re-execute.  Lines
 * are written under a mutex and flushed individually, so the journal
 * is crash-consistent at line granularity.
 *
 * append() is the sink_write fault-injection site, absorbed by a
 * bounded internal retry: a journaling fault can cost resumability of
 * one cell (plus a warn), never the cell itself and never a byte of
 * BENCH output.
 */

#ifndef TRRIP_EXP_JOURNAL_HH
#define TRRIP_EXP_JOURNAL_HH

#include <cstddef>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trrip::exp {

/** One journal line: a completed cell, as the sinks consume it. */
struct JournalEntry
{
    std::size_t cell = 0;  //!< Deterministic cell index in the grid.
    std::string workload;
    std::string policy;
    std::string config;
    std::vector<std::pair<std::string, std::string>> resolvedPolicies;
    std::map<std::string, double> metrics;
};

/** Thread-safe append-mode journal writer. */
class RunJournal
{
  public:
    /** Opens @p path for appending (parent dir must exist). */
    explicit RunJournal(std::string path);

    bool valid() const { return static_cast<bool>(out_); }

    /**
     * Append one line and flush.  Never throws: a write failure (or
     * an exhausted injection retry) warns and drops the line -- the
     * cell stays good, it just will not be resumable.
     */
    void append(const JournalEntry &entry);

    /**
     * Parse @p path into cell -> entry (last intact line per cell
     * wins); a line whose fingerprint does not match its bytes is
     * skipped.  A missing file is an empty map (first run of a
     * journaled spec).
     */
    static std::map<std::size_t, JournalEntry>
    load(const std::string &path);

  private:
    std::string path_;
    std::ofstream out_;
    std::mutex mutex_;
};

} // namespace trrip::exp

#endif // TRRIP_EXP_JOURNAL_HH
