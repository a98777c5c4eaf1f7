#include "trace/reader.hh"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault.hh"

namespace trrip::trace {

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    open(path);
    reset();
}

TraceReader::~TraceReader()
{
    unmap();
}

TraceReader::TraceReader(TraceReader &&other) noexcept
{
    *this = std::move(other);
}

TraceReader &
TraceReader::operator=(TraceReader &&other) noexcept
{
    if (this == &other)
        return *this;
    unmap();
    path_ = std::move(other.path_);
    error_ = std::move(other.error_);
    errorCategory_ = other.errorCategory_;
    errorChunk_ = other.errorChunk_;
    errorOffset_ = other.errorOffset_;
    map_ = other.map_;
    mapBytes_ = other.mapBytes_;
    header_ = other.header_;
    dir_ = other.dir_;
    cursor_ = other.cursor_;
    chunkEnd_ = other.chunkEnd_;
    chunkIndex_ = other.chunkIndex_;
    other.map_ = nullptr;
    other.mapBytes_ = 0;
    other.dir_ = nullptr;
    other.cursor_ = other.chunkEnd_ = nullptr;
    return *this;
}

void
TraceReader::unmap()
{
    if (map_) {
        ::munmap(const_cast<std::uint8_t *>(map_), mapBytes_);
        map_ = nullptr;
        mapBytes_ = 0;
    }
}

void
TraceReader::fail(std::string message, std::uint64_t offset,
                  std::uint32_t chunk, ErrorCategory category)
{
    if (error_.empty()) {
        // Uniform context suffix across every reject path: the chunk
        // (when the failure is chunk-scoped) and the file byte offset
        // of the offending field or payload.
        error_ = "trace '" + path_ + "': " + std::move(message) + " (";
        if (chunk != kNoChunk)
            error_ += "chunk " + std::to_string(chunk) + ", ";
        error_ += "byte offset " + std::to_string(offset) + ")";
        errorCategory_ = category;
        errorChunk_ = chunk;
        errorOffset_ = offset;
    }
    unmap();
    dir_ = nullptr;
}

SimError
TraceReader::makeError() const
{
    return SimError(errorCategory_,
                    valid() ? "trace '" + path_ + "': no error recorded"
                            : error_);
}

void
TraceReader::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        fail("cannot open for reading", 0);
        return;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail("fstat failed", 0);
        return;
    }
    mapBytes_ = static_cast<std::size_t>(st.st_size);
    if (mapBytes_ < sizeof(TraceHeader)) {
        ::close(fd);
        fail("truncated header (file smaller than 64 bytes)",
             mapBytes_);
        return;
    }
    void *m = ::mmap(nullptr, mapBytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED) {
        map_ = nullptr;
        fail("mmap failed", 0);
        return;
    }
    map_ = static_cast<const std::uint8_t *>(m);

    // Validate everything against the file size before any payload
    // access; a corrupt or truncated file must fail here, not in
    // next().
    std::memcpy(&header_, map_, sizeof(header_));
    if (header_.magic != kTraceMagic) {
        fail("bad magic (not a trrip trace file)",
             offsetof(TraceHeader, magic));
        return;
    }
    if (header_.version != kTraceVersion) {
        fail("unsupported version " + std::to_string(header_.version),
             offsetof(TraceHeader, version));
        return;
    }
    if (header_.codec != 0) {
        fail("unknown codec " + std::to_string(header_.codec) +
                 " (only raw chunks, codec 0, are supported)",
             offsetof(TraceHeader, codec));
        return;
    }
    if (header_.recordCount == 0) {
        if (header_.chunkCount != 0)
            fail("empty trace with a non-empty chunk directory",
                 offsetof(TraceHeader, chunkCount));
        return;
    }
    if (header_.chunkRecords == 0) {
        fail("zero records per chunk",
             offsetof(TraceHeader, chunkRecords));
        return;
    }
    const std::uint64_t expected_chunks =
        (header_.recordCount + header_.chunkRecords - 1) /
        header_.chunkRecords;
    if (header_.chunkCount != expected_chunks) {
        fail("chunk count does not match the record count",
             offsetof(TraceHeader, chunkCount));
        return;
    }
    const std::uint64_t dir_bytes =
        static_cast<std::uint64_t>(header_.chunkCount) *
        sizeof(TraceChunk);
    if (header_.dirOffset < sizeof(TraceHeader) ||
        header_.dirOffset > mapBytes_ ||
        dir_bytes > mapBytes_ - header_.dirOffset) {
        fail("chunk directory out of bounds",
             offsetof(TraceHeader, dirOffset));
        return;
    }
    if (header_.dirOffset % alignof(TraceChunk) != 0) {
        fail("misaligned chunk directory",
             offsetof(TraceHeader, dirOffset));
        return;
    }
    dir_ = reinterpret_cast<const TraceChunk *>(map_ +
                                               header_.dirOffset);
    for (std::uint32_t c = 0; c < header_.chunkCount; ++c) {
        const TraceChunk &chunk = dir_[c];
        // The directory entry's own file offset: failures in the
        // entry point there, failures in the payload at the payload.
        const std::uint64_t entry_offset =
            header_.dirOffset + c * sizeof(TraceChunk);
        if (chunk.offset < sizeof(TraceHeader) ||
            chunk.offset > header_.dirOffset ||
            chunk.payloadBytes > header_.dirOffset - chunk.offset) {
            fail("chunk out of bounds", entry_offset, c);
            return;
        }
        if (chunk.payloadBytes !=
            chunkRecordCount(c) * sizeof(TraceInstr)) {
            fail("raw chunk has the wrong payload size", entry_offset,
                 c);
            return;
        }
        if (chunk.offset % alignof(TraceInstr) != 0) {
            fail("misaligned raw chunk", chunk.offset, c);
            return;
        }
    }
}

std::uint64_t
TraceReader::chunkRecordCount(std::uint32_t index) const
{
    const std::uint64_t begin =
        static_cast<std::uint64_t>(index) * header_.chunkRecords;
    if (begin >= header_.recordCount)
        return 0;
    const std::uint64_t left = header_.recordCount - begin;
    return left < header_.chunkRecords ? left : header_.chunkRecords;
}

void
TraceReader::reset()
{
    // ~0u + 1 wraps to chunk 0 on the first next().
    chunkIndex_ = ~0u;
    cursor_ = chunkEnd_ = nullptr;
}

bool
TraceReader::loadChunk(std::uint32_t index)
{
    if (!valid() || index >= header_.chunkCount)
        return false;
    const TraceChunk &chunk = dir_[index];
    // Chunk loads are the trace_read fault-injection site: a firing
    // turns the reader !valid() exactly as a mid-stream corruption
    // would, exercising the consumer's must-check contract.
    if (FaultInjector::instance().shouldFail(FaultSite::TraceRead)) {
        fail("injected fault at site trace_read", chunk.offset, index,
             ErrorCategory::Injected);
        cursor_ = chunkEnd_ = nullptr;
        return false;
    }
    // Zero copy: chunks are record-aligned in the mapping.
    cursor_ = reinterpret_cast<const TraceInstr *>(map_ + chunk.offset);
    chunkEnd_ = cursor_ + chunkRecordCount(index);
    chunkIndex_ = index;
    return true;
}

} // namespace trrip::trace
