/**
 * @file
 * Run journal: append-only JSONL record of completed cells, and the
 * resume half that reads it back.
 *
 * As each cell of a journaled grid finishes, the runner appends one
 * flat JSON line holding everything the sinks consume from that cell
 * -- the axis labels, the metrics map (rendered with the sinks' own
 * %.17g codec, so a replayed row reproduces the exact BENCH bytes),
 * the resolved per-level policies, and a fingerprint over that
 * payload.  Resubmitting the spec with the same journal path loads
 * the file, skips every cell with a valid "ok" line, and re-emits the
 * recorded rows: the resumed run's BENCH files are byte-identical to
 * an uninterrupted one.
 *
 * Failed cells are journaled too (status "error") for the audit
 * trail, but load() never returns them: a failed cell is re-executed
 * on resume.  Torn trailing lines (the crash case journaling exists
 * for) and fingerprint mismatches are skipped, not fatal.  Lines are
 * written under a mutex and flushed individually, so the journal is
 * crash-consistent at line granularity.
 *
 * append() is the sink_write fault-injection site, absorbed by a
 * bounded internal retry: a journaling fault can cost resumability of
 * one cell (plus a warn), never the cell itself and never a byte of
 * BENCH output.
 */

#ifndef TRRIP_EXP_JOURNAL_HH
#define TRRIP_EXP_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trrip::exp {

/** One journal line (either outcome of one cell). */
struct JournalEntry
{
    std::size_t cell = 0;  //!< Deterministic cell index in the grid.
    std::string workload;
    std::string policy;
    std::string config;
    unsigned attempts = 0;

    bool failed = false;
    std::string errorCategory;  //!< Set when failed.
    std::string errorMessage;

    std::map<std::string, double> metrics;  //!< Set when !failed.
    std::vector<std::pair<std::string, std::string>> resolvedPolicies;
};

/** Thread-safe append-mode journal writer. */
class RunJournal
{
  public:
    /** Opens @p path for appending (parent dir must exist). */
    explicit RunJournal(std::string path);

    bool valid() const { return static_cast<bool>(out_); }
    const std::string &path() const { return path_; }

    /**
     * Append one line and flush.  Never throws: a write failure (or
     * an exhausted injection retry) warns and drops the line -- the
     * cell stays good, it just will not be resumable.
     */
    void append(const JournalEntry &entry);

    /**
     * Parse @p path into cell -> entry.  Only clean "ok" lines are
     * returned (last one per cell wins); error lines, unparseable
     * lines and fingerprint mismatches are skipped.  A missing file
     * is an empty map (first run of a journaled spec).
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
