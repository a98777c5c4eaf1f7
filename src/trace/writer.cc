#include "trace/writer.hh"

#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

namespace trrip::trace {

TraceWriter::TraceWriter(const std::string &path) :
    path_(path), tmpPath_(path + ".XXXXXX")
{
    pending_.reserve(kChunkRecords);

    const int fd = ::mkstemp(tmpPath_.data());
    if (fd < 0) {
        setError("cannot open '" + path + "' for writing");
        return;
    }
    // mkstemp creates 0600; a trace is as readable as any output file.
    file_ = ::fchmod(fd, 0644) == 0 ? ::fdopen(fd, "wb") : nullptr;
    if (!file_) {
        ::close(fd);
        std::remove(tmpPath_.c_str());
        setError("cannot open '" + path + "' for writing");
        return;
    }
    // Placeholder header; finish() patches the record count in.
    if (std::fwrite(&header_, sizeof(header_), 1, file_) != 1)
        setError("cannot write header to '" + path + "'");
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::setError(std::string message)
{
    if (error_.empty())
        error_ = std::move(message);
}

void
TraceWriter::append(const TraceInstr &instr)
{
    if (!ok() || finished_)
        return;
    pending_.push_back(instr);
    ++header_.recordCount;
    if (pending_.size() == kChunkRecords)
        flush();
}

void
TraceWriter::flush()
{
    if (pending_.empty() || !ok())
        return;
    if (std::fwrite(pending_.data(), sizeof(TraceInstr),
                    pending_.size(), file_) != pending_.size()) {
        setError("short write flushing trace records");
        return;
    }
    pending_.clear();
}

bool
TraceWriter::finish()
{
    if (finished_ || !file_)
        return ok();
    flush();
    if (ok()) {
        if (std::fseek(file_, 0, SEEK_SET) != 0 ||
            std::fwrite(&header_, sizeof(header_), 1, file_) != 1 ||
            std::fflush(file_) != 0) {
            setError("cannot patch the trace header");
        }
    }
    finished_ = true;
    if (std::fclose(file_) != 0)
        setError("cannot close '" + tmpPath_ + "'");
    file_ = nullptr;
    bool exchanged = false;
    if (ok()) {
        // Over an existing trace, exchange the two names and unlink
        // the old file: ext4 forces writeback of a file renamed over
        // another (auto_da_alloc), which made regenerating a pack
        // slower than rewriting it in place.  Anything else (no trace
        // yet, a directory in the way) takes the plain rename.
        struct stat st;
        exchanged =
            ::stat(path_.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
            ::renameat2(AT_FDCWD, tmpPath_.c_str(), AT_FDCWD,
                        path_.c_str(), RENAME_EXCHANGE) == 0;
        if (!exchanged &&
            std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
            setError("cannot rename '" + tmpPath_ + "' to '" + path_ +
                     "'");
        }
    }
    // After an exchange the temporary name holds the old trace; after
    // a failure, the unfinished new one.
    if (exchanged || !ok())
        std::remove(tmpPath_.c_str());
    return ok();
}

} // namespace trrip::trace
