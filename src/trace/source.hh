/**
 * @file
 * TraceEventSource: replays an instruction trace through the batched
 * BBEventSource contract, so CoreModel, the golden harness and the
 * worker pool consume traces exactly like Executor-generated proxy
 * streams.
 *
 * Basic blocks are reconstructed on the fly from the flat record
 * stream.  A block closes at:
 *  - an explicit branch record (kind recovered from the register
 *    patterns, target from the next record's ip -- the ChampSim
 *    one-record-lookahead convention);
 *  - an ip discontinuity between consecutive non-branch records
 *    (sampled traces), emitted as an implicit taken direct jump;
 *  - the BBEvent::data capacity (kBBEventDataSlots): the block is
 *    split *before* the instruction that would overflow, with a pure
 *    fall-through seam (hasBranch = false), so no event ever drops a
 *    data access;
 *  - a maximum block length (kMaxBlockInstrs), split the same way;
 *  - the end of the trace: the stream is infinite per the
 *    BBEventSource contract, so the trace wraps to its first record
 *    through an implicit taken jump, and passes() counts completed
 *    laps.
 *
 * Block ids are assigned in order of first appearance of the block's
 * start ip.  Reconstruction is a pure function of the record stream,
 * so two sources over the same file produce identical events and
 * identical id assignments -- which is what lets the trace->Profile
 * pre-pass (trace/replay.hh) and the timed replay use separate source
 * instances without sharing tables.
 */

#ifndef TRRIP_TRACE_SOURCE_HH
#define TRRIP_TRACE_SOURCE_HH

#include <string>
#include <vector>

#include "trace/reader.hh"
#include "util/flat_map.hh"
#include "workloads/executor.hh"

namespace trrip::trace {

/** Longest reconstructed block (interval-model granularity). */
constexpr std::uint32_t kMaxBlockInstrs = 64;
/** Longest plausible encoded instruction; larger ip deltas between
 *  consecutive records are treated as discontinuities. */
constexpr std::uint64_t kMaxInstrBytes = 16;

/** One reconstructed static block (first-appearance snapshot). */
struct TraceBlockInfo
{
    Addr addr = 0;
    std::uint32_t instrs = 0;
    std::uint32_t bytes = 0;
};

/** Infinite, deterministic event stream over one trace file. */
class TraceEventSource final : public BBEventSource
{
  public:
    /** Opens the trace; throws SimError(TraceCorrupt) on a missing,
     *  corrupt or empty file -- a contained per-cell failure, not a
     *  process abort -- and SimError(Injected) on a trace_read
     *  fault. */
    explicit TraceEventSource(const std::string &path);

    /** Reconstruct the next block event (the stream never ends). */
    void next(BBEvent &ev);

    /** Batched emission into a caller-owned ring (BBEventSource). */
    void produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
                 std::uint32_t count) override;

    /** Completed laps over the trace. */
    std::uint64_t passes() const { return passes_; }

    /** Blocks discovered so far, indexed by block id. */
    const std::vector<TraceBlockInfo> &blocks() const
    { return blocks_; }

    std::uint64_t recordCount() const { return reader_.recordCount(); }

  private:
    /**
     * Advance the reader, wrapping at end of trace.  A chunk load
     * that fails (trace_read fault injection) throws out of next(),
     * so on a non-empty trace this never returns null.
     */
    const TraceInstr *
    advance(bool &wrapped)
    {
        if (const TraceInstr *rec = reader_.next())
            return rec;
        wrapped = true;
        ++passes_;
        reader_.reset();
        return reader_.next();
    }

    std::uint32_t idFor(Addr addr);

    TraceReader reader_;
    /**
     * Lookahead record, held by value: reader pointers only live to
     * the next chunk boundary, and the one-record lookahead
     * routinely straddles chunks.
     */
    TraceInstr cur_;
    Addr firstIp_ = 0;
    std::uint64_t passes_ = 0;
    FlatMap<std::uint32_t> blockIds_{1024};  //!< Start ip -> id.
    std::vector<TraceBlockInfo> blocks_;
};

} // namespace trrip::trace

#endif // TRRIP_TRACE_SOURCE_HH
