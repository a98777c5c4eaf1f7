#include "trace/source.hh"

namespace trrip::trace {

TraceEventSource::TraceEventSource(const std::string &path) :
    reader_(path)
{
    if (reader_.recordCount() == 0) {
        throw SimError(ErrorCategory::TraceCorrupt,
                       "trace '" + path + "': empty; an event source "
                       "needs at least one record");
    }
    cur_ = *reader_.next();
    firstIp_ = cur_.ip;
}

std::uint32_t
TraceEventSource::idFor(Addr addr)
{
    auto [slot, inserted] = blockIds_.tryEmplace(addr);
    if (inserted) {
        *slot = static_cast<std::uint32_t>(blocks_.size());
        blocks_.push_back(TraceBlockInfo{addr, 0, 0});
    }
    return *slot;
}

void
TraceEventSource::next(BBEvent &ev)
{
    // cur_ is the first unconsumed instruction: it starts the block.
    ev.bb = idFor(cur_.ip);
    ev.vaddr = cur_.ip;
    ev.instrs = 0;
    ev.bytes = 0;
    ev.numData = 0;
    ev.hasBranch = false;
    ev.fdipMispredict = false;

    while (true) {
        // How many data slots this instruction needs (ChampSim caps
        // at 4 loads + 2 stores, so one instruction always fits an
        // empty event).
        std::uint32_t accesses = 0;
        for (const std::uint64_t a : cur_.srcMem)
            accesses += a != 0;
        for (const std::uint64_t a : cur_.destMem)
            accesses += a != 0;

        // Split BEFORE the instruction that would overflow the data
        // array or the block-length cap: a pure fall-through seam
        // (hasBranch stays false), so no access is ever dropped.
        if (ev.instrs > 0 &&
            (ev.numData + accesses > kBBEventDataSlots ||
             ev.instrs >= kMaxBlockInstrs)) {
            break;
        }

        // Consume cur_ and look one record ahead (branch targets and
        // instruction sizes come from the successor's ip).
        const TraceInstr in = cur_;
        bool wrapped = false;
        cur_ = *advance(wrapped);

        const std::uint64_t delta = cur_.ip - in.ip;
        const bool contiguous =
            !wrapped && delta > 0 && delta <= kMaxInstrBytes;
        const std::uint32_t instr_bytes =
            contiguous ? static_cast<std::uint32_t>(delta) : 4;
        ev.instrs += 1;
        ev.bytes += instr_bytes;

        for (const std::uint64_t a : in.srcMem) {
            if (a != 0 && ev.numData < ev.data.size()) {
                DataAccessEvent &d = ev.data[ev.numData++];
                d.vaddr = a;
                d.pc = in.ip;
                d.isStore = false;
                d.dependent = false;
            }
        }
        for (const std::uint64_t a : in.destMem) {
            if (a != 0 && ev.numData < ev.data.size()) {
                DataAccessEvent &d = ev.data[ev.numData++];
                d.vaddr = a;
                d.pc = in.ip;
                d.isStore = true;
                d.dependent = false;
            }
        }

        if (in.isBranch) {
            const BranchKind kind = classifyBranch(in);
            ev.hasBranch = true;
            ev.branch = BranchInfo{};
            ev.branch.pc = in.ip;
            // One-record lookahead: a taken branch lands on the next
            // record; the wrap seam retargets the trace start.
            ev.branch.target = wrapped ? firstIp_ : cur_.ip;
            ev.branch.taken = wrapped || in.branchTaken != 0;
            ev.branch.conditional = kind == BranchKind::Conditional;
            ev.branch.isCall = kind == BranchKind::DirectCall ||
                               kind == BranchKind::IndirectCall;
            ev.branch.isReturn = kind == BranchKind::Return;
            ev.branch.isIndirect =
                kind == BranchKind::IndirectJump ||
                kind == BranchKind::IndirectCall ||
                kind == BranchKind::Return;
            break;
        }
        if (wrapped || !contiguous) {
            // End of trace or an ip discontinuity between non-branch
            // records (sampled trace): an implicit taken direct jump.
            ev.hasBranch = true;
            ev.branch = BranchInfo{};
            ev.branch.pc = in.ip;
            ev.branch.target = wrapped ? firstIp_ : cur_.ip;
            ev.branch.taken = true;
            break;
        }
    }

    // First-appearance snapshot of the block's shape.
    TraceBlockInfo &info = blocks_[ev.bb];
    if (info.instrs == 0) {
        info.instrs = ev.instrs;
        info.bytes = ev.bytes;
    }
}

void
TraceEventSource::produce(BBEvent *ring, std::uint32_t mask,
                          std::uint32_t pos, std::uint32_t count)
{
    for (std::uint32_t k = 0; k < count; ++k)
        next(ring[(pos + k) & mask]);
}

} // namespace trrip::trace
