/**
 * @file
 * Streaming trace reader over an mmap'd file.
 *
 * The whole file is mapped read-only once; records are then served one
 * chunk at a time straight out of the mapping (zero copy; chunk
 * offsets are record-aligned by construction).  The full trace is
 * never materialized, so arbitrarily long traces stream in O(chunk)
 * memory.
 *
 * Constructors never abort: a missing, truncated or corrupt file
 * leaves the reader !valid() with a human-readable error().  Every
 * header field and every chunk-directory entry is bounds-checked
 * against the file size before anything is dereferenced, so hostile
 * inputs fail cleanly under ASan rather than walking off the map.
 *
 * Every reject path records uniform context -- the file path, the
 * chunk index where applicable, and the byte offset of the offending
 * field or payload -- both inside the error() string and as
 * structured accessors, and makeError() packages the failure as a
 * SimError(TraceCorrupt) for the containment layer.  Chunk loads are
 * also a fault-injection site (FaultSite::TraceRead), so a reader can
 * turn !valid() mid-stream; consumers must check, not assume.
 */

#ifndef TRRIP_TRACE_READER_HH
#define TRRIP_TRACE_READER_HH

#include <cstddef>
#include <string>

#include "trace/format.hh"
#include "util/error.hh"

namespace trrip::trace {

/** mmap-backed, chunk-at-a-time reader of one trace file. */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(TraceReader &&other) noexcept;
    TraceReader &operator=(TraceReader &&other) noexcept;
    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** errorChunk() when the failure is not tied to one chunk. */
    static constexpr std::uint32_t kNoChunk = ~0u;

    bool valid() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const std::string &path() const { return path_; }

    /** Failure taxonomy bucket; meaningful only when !valid(). */
    ErrorCategory errorCategory() const { return errorCategory_; }
    /** Chunk index of the failure, or kNoChunk; only when !valid(). */
    std::uint32_t errorChunk() const { return errorChunk_; }
    /** File byte offset of the failure; only when !valid(). */
    std::uint64_t errorOffset() const { return errorOffset_; }

    /** The recorded failure as a throwable SimError (!valid() only). */
    SimError makeError() const;

    std::uint64_t recordCount() const { return header_.recordCount; }
    std::uint32_t chunkCount() const { return header_.chunkCount; }

    /** Rewind the streaming cursor to the first record. */
    void reset();

    /**
     * The next record, or nullptr at end of trace.  The pointer stays
     * valid until the next chunk boundary is crossed (consumers copy
     * the fields they keep).  Undefined on an invalid reader.
     */
    const TraceInstr *
    next()
    {
        if (cursor_ == chunkEnd_ && !loadChunk(chunkIndex_ + 1))
            return nullptr;
        return cursor_++;
    }

    /** Records in chunk @p index (the last chunk may be short). */
    std::uint64_t chunkRecordCount(std::uint32_t index) const;

  private:
    void open(const std::string &path);
    /**
     * Record a failure with uniform context: @p offset is the file
     * byte offset of the offending field or payload, @p chunk the
     * chunk index when the failure is chunk-scoped.  First failure
     * wins; the mapping is released either way.
     */
    void fail(std::string message, std::uint64_t offset,
              std::uint32_t chunk = kNoChunk,
              ErrorCategory category = ErrorCategory::TraceCorrupt);
    /** Point the cursor at chunk @p index; false past the end. */
    bool loadChunk(std::uint32_t index);
    void unmap();

    std::string path_;
    std::string error_;
    ErrorCategory errorCategory_ = ErrorCategory::TraceCorrupt;
    std::uint32_t errorChunk_ = kNoChunk;
    std::uint64_t errorOffset_ = 0;
    const std::uint8_t *map_ = nullptr;
    std::size_t mapBytes_ = 0;
    TraceHeader header_;
    const TraceChunk *dir_ = nullptr;

    /** Streaming cursor: [cursor_, chunkEnd_) of chunk chunkIndex_. */
    const TraceInstr *cursor_ = nullptr;
    const TraceInstr *chunkEnd_ = nullptr;
    std::uint32_t chunkIndex_ = 0;
};

} // namespace trrip::trace

#endif // TRRIP_TRACE_READER_HH
