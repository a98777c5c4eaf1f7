#include "sim/core_model.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace trrip {

CoreModel::CoreModel(BBEventSource &events, CacheHierarchy &hierarchy,
                     Mmu &mmu, BranchUnit &branch,
                     const CoreParams &params,
                     const BackendParams &backend) :
    events_(events), hier_(hierarchy), mmu_(mmu), branch_(branch),
    params_(params), backend_(backend),
    lineMask_(~static_cast<Addr>(hierarchy.params().l2.lineBytes - 1)),
    lineBytes_(hierarchy.params().l2.lineBytes),
    backendStallPerInstr_(backend.dependStallPerInstr +
                          backend.issueStallPerInstr +
                          backend.otherStallPerInstr)
{
    // Ring capacity: at least one healthy produce batch (~48 events)
    // beyond the FDIP window, rounded to a power of two so every
    // index is a masked add.
    window_ = params_.fdipLookahead + 1;
    const std::uint32_t cap = std::bit_ceil(
        std::max<std::uint32_t>(window_ + 48u, 64u));
    ring_.resize(cap);
    mask_ = cap - 1;
    fdipScan_ = params_.fdipEnabled && window_ >= 2;

    // The retire cost instrs / dispatchWidth is an FP division on the
    // per-event critical path (it feeds now_); block sizes repeat, so
    // the exact quotients are precomputed for every small size.  The
    // values are the identical doubles the division would produce.
    for (std::size_t n = 0; n < retireMemo_.size(); ++n) {
        retireMemo_[n] =
            static_cast<double>(n) / params_.dispatchWidth;
    }

    // Branch penalty by (mispredicted | redirect << 1); a mispredict
    // dominates a BTB redirect exactly as the old two-way branch did.
    const auto mp = static_cast<double>(params_.mispredictPenalty);
    const auto rd = static_cast<double>(params_.btbRedirectPenalty);
    branchPenalty_ = {0.0, mp, rd, mp};
}

template <unsigned Stub>
void
CoreModel::refill()
{
    const auto ahead = static_cast<std::uint32_t>(produced_ - head_);
    if (ahead >= window_)
        return;
    // The cooperative-cancellation poll: once per batch refill (every
    // few dozen events), never per event.  Unwinds out of run() as a
    // contained cell failure; the pool catches at the item boundary.
    // Message carries no progress counters: error rows are part of
    // the byte-reproducible BENCH contract and the cancellation
    // instant is wall-clock dependent.
    if (cancel_ && cancel_->cancelled())
        throw SimError(ErrorCategory::Timeout, "cell deadline exceeded");
    const auto n =
        static_cast<std::uint32_t>(ring_.size()) - ahead;
    events_.produce(ring_.data(), mask_,
                    static_cast<std::uint32_t>(produced_) & mask_, n);
    produced_ += n;
}

template <unsigned Stub>
void
CoreModel::fdipPrefetch(const BBEvent &tail)
{
    // FDIP runs ahead only while the predicted path is clean: any
    // likely-mispredicted branch in the window stops the run-ahead
    // (the paper's trace-based setup has no wrong-path prefetching).
    // The caller has already checked windowMispredicts_ == 0.
    const Addr first = tail.vaddr & lineMask_;
    const Addr last = (tail.vaddr + tail.bytes - 1) & lineMask_;
    for (Addr line = first; line <= last; line += lineBytes_) {
        MemRequest req;
        req.vaddr = line;
        req.paddr = line;
        req.pc = line;
        req.type = AccessType::InstPrefetch;
        if constexpr ((Stub & kStubMmu) == 0) {
            const MmuResult tr = mmu_.translate(line);
            req.paddr = tr.paddr;
            req.temp = tr.temp;
        }
        if constexpr ((Stub & kStubHier) == 0)
            hier_.instPrefetch(req, static_cast<Cycles>(now_));
    }
}

template <unsigned Stub>
void
CoreModel::processEvent(const BBEvent &ev)
{
    if constexpr ((Stub & kStubExec) != 0) {
        // Producer-only attribution: count and discard.
        instructions_ += ev.instrs;
        return;
    }

    constexpr bool stub_hier = (Stub & kStubHier) != 0;
    constexpr bool stub_mmu = (Stub & kStubMmu) != 0;
    constexpr bool stub_branch = (Stub & kStubBranch) != 0;

    // --- Instruction fetch, one access per newly touched line.
    const Addr first = ev.vaddr & lineMask_;
    const Addr last = (ev.vaddr + ev.bytes - 1) & lineMask_;
    Temperature fetch_temp = Temperature::None;
    for (Addr line = first; line <= last; line += lineBytes_) {
        if (line == lastFetchLine_)
            continue;
        lastFetchLine_ = line;
        MemRequest req;
        req.vaddr = line;
        req.paddr = line;
        req.pc = line;
        req.type = AccessType::InstFetch;
        if constexpr (!stub_mmu) {
            const MmuResult tr = mmu_.translate(line);
            if (tr.tlbMiss) {
                td_.other +=
                    static_cast<double>(params_.tlbWalkPenalty);
                now_ += static_cast<double>(params_.tlbWalkPenalty);
            }
            req.paddr = tr.paddr;
            req.temp = tr.temp;
            fetch_temp = tr.temp;
        }
        if constexpr (stub_hier)
            continue;
        const AccessOutcome out =
            hier_.instFetch(req, static_cast<Cycles>(now_));
        const double exposed =
            out.latency > params_.fetchQueueSlack
                ? static_cast<double>(out.latency -
                                      params_.fetchQueueSlack)
                : 0.0;
        td_.ifetch += exposed;
        now_ += exposed;
        if (out.l2DemandMiss) {
            const bool burst = now_ - lastInstL2Miss_ <=
                               params_.starvationBurstWindow;
            lastInstL2Miss_ = now_;
            // Every exposed miss is recorded for the costly-miss
            // analysis (Fig. 7); only clustered misses starve decode
            // hard enough to set Emissary's priority bit.
            if (out.latency >= params_.starvationThreshold &&
                costlyTracker_) {
                costlyTracker_->record(line, exposed);
            }
            if (burst && out.latency >= params_.starvationThreshold &&
                (starvationEvents_++ & 1) == 0) {
                hier_.markL2Priority(req.paddr);
            }
        }
    }

    // --- Branch resolution.
    if (!stub_branch && ev.hasBranch) {
        BranchInfo info = ev.branch;
        info.temp = fetch_temp; // PTE hint for the TRRIP-BTB option.
        const BranchOutcome out = branch_.predictAndUpdate(info);
        // Table-indexed penalty: a mispredict dominates a redirect,
        // and the no-penalty entry adds exactly 0.0.  The buckets are
        // integer counters, materialized at end of run.
        const unsigned idx =
            (out.mispredicted ? 1u : 0u) |
            ((out.btbMiss && ev.branch.taken) ? 2u : 0u);
        now_ += branchPenalty_[idx];
        mispredEvents_ += idx & 1u;
        redirectEvents_ += idx == 2u ? 1u : 0u;
    }

    // --- Retire plus synthetic backend components.  The backend
    // buckets stay in event order: their per-event products round,
    // so an end-of-run rate * instructions form would drift by ulps
    // -- visible in the byte-reproducible BENCH files.  Only the
    // integer-weighted buckets (mispred, see above) hoist exactly.
    const double instrs = static_cast<double>(ev.instrs);
    const double retire = retireCycles(ev.instrs);
    td_.retire += retire;
    td_.depend += instrs * backend_.dependStallPerInstr;
    td_.issue += instrs * backend_.issueStallPerInstr;
    td_.other += instrs * backend_.otherStallPerInstr;
    now_ += retire + instrs * backendStallPerInstr_;

    // --- Data accesses with MLP-aware exposure.
    for (std::uint8_t i = 0; i < ev.numData; ++i) {
        const DataAccessEvent &d = ev.data[i];
        MemRequest req;
        req.vaddr = d.vaddr;
        req.paddr = d.vaddr;
        req.pc = d.pc;
        req.type = d.isStore ? AccessType::Store : AccessType::Load;
        if constexpr (!stub_mmu) {
            const MmuResult tr = mmu_.translate(d.vaddr);
            if (tr.tlbMiss) {
                td_.other +=
                    static_cast<double>(params_.tlbWalkPenalty);
                now_ += static_cast<double>(params_.tlbWalkPenalty);
            }
            req.paddr = tr.paddr;
        }
        if constexpr (stub_hier)
            continue;
        const AccessOutcome out =
            hier_.dataAccess(req, static_cast<Cycles>(now_));
        if (out.latency == 0)
            continue;
        const double raw = static_cast<double>(out.latency);
        if (d.isStore) {
            const double exposed = raw * params_.storeExposedFraction;
            td_.mem += exposed;
            now_ += exposed;
        } else if (d.dependent) {
            // Pointer chase: the next access needs this value; the
            // OOO window hides almost none of the latency.
            const double exposed =
                raw * params_.dependentExposedFraction;
            missShadowEnd_ = now_ + raw;
            td_.mem += exposed;
            now_ += exposed;
        } else {
            double exposed = raw * params_.loadExposedFraction;
            if (now_ < missShadowEnd_)
                exposed /= params_.overlapMlp;
            missShadowEnd_ = now_ + raw;
            td_.mem += exposed;
            now_ += exposed;
        }
    }

    instructions_ += ev.instrs;
}

template <unsigned Stub>
void
CoreModel::stepLoop(InstCount target_instructions)
{
    constexpr bool stub_branch =
        (Stub & (kStubBranch | kStubExec)) != 0;
    while (instructions_ < target_instructions) {
        refill<Stub>();
        if (!stub_branch && fdipScan_) {
            // Lookahead cursor: stamp fdipMispredict exactly when an
            // event enters the window, i.e. with the predictor state
            // the event-at-a-time engine would have sampled.
            const std::uint64_t visible = head_ + window_;
            while (scanned_ < visible) {
                BBEvent &ev = ring_[scanned_ & mask_];
                ev.fdipMispredict =
                    ev.hasBranch &&
                    branch_.wouldMispredict(ev.branch);
                windowMispredicts_ += ev.fdipMispredict ? 1u : 0u;
                ++scanned_;
            }
            if (windowMispredicts_ == 0) {
                fdipPrefetch<Stub>(
                    ring_[(head_ + window_ - 1) & mask_]);
            }
        }
        const BBEvent &ev = ring_[head_ & mask_];
        if (!stub_branch && fdipScan_ && ev.fdipMispredict)
            --windowMispredicts_;
        processEvent<Stub>(ev);
        ++head_;
    }
}

SimResult
CoreModel::finalize()
{
    // Materialize the hoisted mispredict bucket.  Its per-event
    // contributions are integer penalties, so every partial sum of
    // the old accumulation was an exact integer double and
    // count * penalty reproduces the final value bit for bit -- the
    // one Top-Down bucket that hoists exactly (the fractional
    // backend buckets must stay in event order; see processEvent).
    td_.mispred =
        static_cast<double>(params_.mispredictPenalty) *
            static_cast<double>(mispredEvents_) +
        static_cast<double>(params_.btbRedirectPenalty) *
            static_cast<double>(redirectEvents_);

    SimResult res;
    res.instructions = instructions_;
    res.cycles = now_;
    res.topdown = td_;
    res.l2InstMpki = hier_.l2InstMpki(instructions_);
    res.l2DataMpki = hier_.l2DataMpki(instructions_);
    res.l1i = hier_.l1i().stats();
    res.l1d = hier_.l1d().stats();
    res.l2 = hier_.l2().stats();
    res.slc = hier_.slc().stats();
    res.prefetch = hier_.prefetchStats();
    res.branch = branch_.stats();
    res.tlb = mmu_.stats();
    res.l2HotEvictions = res.l2.evictionsByTemp[encodeTemperature(
        Temperature::Hot)];
    return res;
}

void
CoreModel::step(InstCount target_instructions)
{
    switch (params_.stubMask) {
      case kStubNone:
        return stepLoop<kStubNone>(target_instructions);
      case kStubHier:
        return stepLoop<kStubHier>(target_instructions);
      case kStubBranch:
        return stepLoop<kStubBranch>(target_instructions);
      case kStubMmu:
        return stepLoop<kStubMmu>(target_instructions);
      case kStubExec:
        return stepLoop<kStubExec>(target_instructions);
      default:
        panic("unsupported stub mask ", params_.stubMask,
              " (single kStub* levers only)");
    }
}

SimResult
CoreModel::run(InstCount max_instructions)
{
    step(max_instructions);
    return finalize();
}

} // namespace trrip
