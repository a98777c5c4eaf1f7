/**
 * @file
 * Streaming trace writer: append records, close, done.  Records are
 * buffered kChunkRecords at a time (never the whole trace) and flushed
 * with one fwrite per buffer, and finish() patches the record count
 * into the header.  Used by the deterministic mini-trace generator (trace/generate.hh) and by tests; the output
 * is a pure function of the appended records, so regenerated packs
 * are byte-identical.
 *
 * The trace is written to a unique temporary file next to the target
 * and moved onto it by finish(), so the target path only ever names a
 * complete trace.  A reader that has the old file mapped keeps
 * reading the old contents while a new pack is generated in place
 * (truncating the mapped file would fault the reader with SIGBUS).
 *
 * Errors are reported through ok()/error() rather than aborting, so
 * tests can exercise failure paths; a writer that is !ok() turns all
 * further calls into no-ops and leaves no temporary file behind.
 */

#ifndef TRRIP_TRACE_WRITER_HH
#define TRRIP_TRACE_WRITER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/format.hh"

namespace trrip::trace {

/** Append-only writer of the trace container format. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Buffer one record (flushes the buffer when full). */
    void append(const TraceInstr &instr);

    /**
     * Flush the buffer, patch the header, close and rename the
     * temporary file onto the target path.  Idempotent; also invoked
     * by the destructor.  Returns ok().
     */
    bool finish();

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    std::uint64_t recordsWritten() const { return header_.recordCount; }

  private:
    void flush();
    void setError(std::string message);

    std::string path_;
    std::string tmpPath_;   //!< Unique sibling of path_ being written.
    std::FILE *file_ = nullptr;
    TraceHeader header_;
    std::vector<TraceInstr> pending_;   //!< Unflushed records only.
    bool finished_ = false;
    std::string error_;
};

} // namespace trrip::trace

#endif // TRRIP_TRACE_WRITER_HH
