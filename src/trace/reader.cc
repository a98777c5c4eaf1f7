#include "trace/reader.hh"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault.hh"

namespace trrip::trace {

void
Munmap::operator()(const std::uint8_t *map) const
{
    ::munmap(const_cast<std::uint8_t *>(map), bytes);
}

void
TraceReader::fail(const std::string &message, std::uint64_t offset,
                  std::uint64_t chunk, ErrorCategory category) const
{
    // Uniform context suffix across every reject path: the chunk
    // (when the failure is chunk-scoped) and the file byte offset of
    // the offending field or payload.
    std::string what = "trace '" + path_ + "': " + message + " (";
    if (chunk != kNoChunk)
        what += "chunk " + std::to_string(chunk) + ", ";
    what += "byte offset " + std::to_string(offset) + ")";
    throw SimError(category, std::move(what));
}

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail("cannot open for reading", 0);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail("fstat failed", 0);
    }
    const auto bytes = static_cast<std::size_t>(st.st_size);
    if (bytes < sizeof(TraceHeader)) {
        ::close(fd);
        fail("truncated header (file smaller than 64 bytes)", bytes);
    }
    void *m = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED)
        fail("mmap failed", 0);
    map_ = {static_cast<const std::uint8_t *>(m), Munmap{bytes}};

    // Validate everything against the file size before any record
    // access; a corrupt or truncated file must fail here, not in
    // next().
    TraceHeader header;
    std::memcpy(&header, map_.get(), sizeof(header));
    if (header.magic != kTraceMagic) {
        fail("bad magic (not a trrip trace file)",
             offsetof(TraceHeader, magic));
    }
    if (header.version != kTraceVersion) {
        fail("unsupported version " + std::to_string(header.version),
             offsetof(TraceHeader, version));
    }
    // Divide rather than multiply: a hostile count must not wrap.
    const std::size_t payload = bytes - sizeof(TraceHeader);
    if (payload % sizeof(TraceInstr) != 0 ||
        payload / sizeof(TraceInstr) != header.recordCount) {
        fail("record count " + std::to_string(header.recordCount) +
                 " does not match the file size " +
                 std::to_string(bytes),
             offsetof(TraceHeader, recordCount));
    }
    recordCount_ = header.recordCount;
    reset();
}

void
TraceReader::reset()
{
    chunkIndex_ = kNoChunk;
    cursor_ = chunkEnd_ = nullptr;
}

bool
TraceReader::loadChunk(std::uint64_t index)
{
    const std::uint64_t begin = index * kChunkRecords;
    if (begin >= recordCount_)
        return false;
    const std::uint64_t offset =
        sizeof(TraceHeader) + begin * sizeof(TraceInstr);
    // Chunk loads are the trace_read fault-injection site: a firing
    // throws exactly as a reject would, never for the end-of-trace
    // probe above.
    if (FaultInjector::instance().shouldFail(FaultSite::TraceRead)) {
        fail("injected fault at site trace_read", offset, index,
             ErrorCategory::Injected);
    }
    // Zero copy: records are 64-byte aligned in the mapping.
    cursor_ = reinterpret_cast<const TraceInstr *>(map_.get() + offset);
    chunkEnd_ = cursor_ + std::min<std::uint64_t>(kChunkRecords,
                                                  recordCount_ - begin);
    chunkIndex_ = index;
    return true;
}

} // namespace trrip::trace
