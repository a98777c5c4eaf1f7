/**
 * @file
 * Streaming trace reader over an mmap'd file.
 *
 * The whole file is mapped read-only once; records are then served
 * kChunkRecords at a time straight out of the mapping (zero copy: a
 * record starts every 64 bytes after the 64-byte header).  The full
 * trace is never materialized, so arbitrarily long traces stream in
 * O(chunk) memory.
 *
 * Every reject throws SimError(TraceCorrupt): a missing file, a short
 * header, a bad magic or version, and a file that is not exactly
 * 64 + 64 x recordCount bytes all fail in the constructor, before any
 * record is dereferenced, so hostile inputs fail cleanly under ASan
 * rather than walking off the map.  The message names the file path,
 * the chunk index where applicable and the byte offset of the
 * offending field or payload.  Chunk loads are also a fault-injection
 * site (FaultSite::TraceRead): next() then throws SimError(Injected)
 * with the same context.  The mapping is a member, so it is released
 * on every throw.
 */

#ifndef TRRIP_TRACE_READER_HH
#define TRRIP_TRACE_READER_HH

#include <cstddef>
#include <memory>
#include <string>

#include "trace/format.hh"
#include "util/error.hh"

namespace trrip::trace {

/** TraceReader's mapping deleter: munmap()s @c bytes bytes. */
struct Munmap
{
    std::size_t bytes = 0;
    void operator()(const std::uint8_t *map) const;
};

/** mmap-backed, chunk-at-a-time reader of one trace file. */
class TraceReader
{
  public:
    /** Opens and validates @p path; throws SimError on a reject. */
    explicit TraceReader(const std::string &path);

    std::uint64_t recordCount() const { return recordCount_; }

    /** Rewind the streaming cursor to the first record. */
    void reset();

    /**
     * The next record, or nullptr at end of trace.  The pointer stays
     * valid until the next chunk boundary is crossed (consumers copy
     * the fields they keep).
     */
    const TraceInstr *
    next()
    {
        if (cursor_ == chunkEnd_ && !loadChunk(chunkIndex_ + 1))
            return nullptr;
        return cursor_++;
    }

  private:
    /** No chunk: fail()'s chunk when the failure is not tied to one,
     *  and the cursor's before the first (~0 + 1 wraps to 0). */
    static constexpr std::uint64_t kNoChunk = ~0ull;

    /** Throw the reject as SimError with the uniform context suffix:
     *  @p offset is the file byte offset of the offending field or
     *  payload, @p chunk the chunk index when the failure is
     *  chunk-scoped. */
    [[noreturn]] void fail(const std::string &message,
                           std::uint64_t offset,
                           std::uint64_t chunk = kNoChunk,
                           ErrorCategory category =
                               ErrorCategory::TraceCorrupt) const;
    /** Point the cursor at chunk @p index; false past the end. */
    bool loadChunk(std::uint64_t index);

    std::string path_;
    std::unique_ptr<const std::uint8_t, Munmap> map_;
    std::uint64_t recordCount_ = 0;

    /** Streaming cursor: [cursor_, chunkEnd_) of chunk chunkIndex_. */
    const TraceInstr *cursor_ = nullptr;
    const TraceInstr *chunkEnd_ = nullptr;
    std::uint64_t chunkIndex_ = 0;
};

} // namespace trrip::trace

#endif // TRRIP_TRACE_READER_HH
