#include "sim/core_model.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace trrip {

CoreModel::CoreModel(BBEventSource &events, CacheHierarchy &hierarchy,
                     Mmu &mmu, BranchUnit &branch,
                     const CoreParams &params,
                     const BackendParams &backend) :
    CoreModel(events, std::vector<CacheHierarchy *>{&hierarchy}, mmu,
              branch, params, backend)
{}

CoreModel::CoreModel(BBEventSource &events,
                     const std::vector<CacheHierarchy *> &lanes,
                     Mmu &mmu, BranchUnit &branch,
                     const CoreParams &params,
                     const BackendParams &backend) :
    events_(events), mmu_(mmu), branch_(branch), params_(params),
    backend_(backend),
    backendStallPerInstr_(backend.dependStallPerInstr +
                          backend.issueStallPerInstr +
                          backend.otherStallPerInstr)
{
    panic_if(lanes.empty(), "CoreModel needs at least one lane");
    lanes_.resize(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        lanes_[k].hier = lanes[k];
        // The frontend resolves lines at one granularity for all.
        panic_if(lanes[k]->params().l2.lineBytes !=
                     lanes[0]->params().l2.lineBytes,
                 "lanes of one CoreModel must share the L2 line size");
    }
    lineBytes_ = lanes[0]->params().l2.lineBytes;
    lineMask_ = ~static_cast<Addr>(lineBytes_ - 1);

    // Ring capacity: at least one healthy produce batch (~48 events)
    // beyond the FDIP window, rounded to a power of two so every
    // index is a masked add.
    window_ = params_.fdipLookahead + 1;
    const std::uint32_t cap = std::bit_ceil(
        std::max<std::uint32_t>(window_ + 48u, 64u));
    ring_.resize(cap);
    mask_ = cap - 1;
    fdipScan_ = params_.fdipEnabled && window_ >= 2;
    batch_.events.reserve(kBatchEvents);

    // The retire cost instrs / dispatchWidth is an FP division on the
    // per-event critical path (it feeds the clock); block sizes
    // repeat, so the exact quotients are precomputed for every small
    // size.  The values are the identical doubles the division would
    // produce.
    for (std::size_t n = 0; n < retireMemo_.size(); ++n) {
        retireMemo_[n] =
            static_cast<double>(n) / params_.dispatchWidth;
    }

    // Branch penalty by (mispredicted | redirect << 1); a mispredict
    // dominates a BTB redirect.
    const auto mp = static_cast<double>(params_.mispredictPenalty);
    const auto rd = static_cast<double>(params_.btbRedirectPenalty);
    branchPenalty_ = {0.0, mp, rd, mp};
}

void
CoreModel::refill()
{
    const auto ahead = static_cast<std::uint32_t>(produced_ - head_);
    if (ahead >= window_)
        return;
    // The cooperative-cancellation poll: once per ring refill (every
    // few dozen events), never per event.  Unwinds out of step() as a
    // contained cell failure; the pool catches at the item boundary.
    pollCancel(cancel_);
    const auto n =
        static_cast<std::uint32_t>(ring_.size()) - ahead;
    events_.produce(ring_.data(), mask_,
                    static_cast<std::uint32_t>(produced_) & mask_, n);
    produced_ += n;
}

template <unsigned Stub>
void
CoreModel::fdipLines(const BBEvent &tail, Batch::Event &rec)
{
    // FDIP runs ahead only while the predicted path is clean: any
    // likely-mispredicted branch in the window stops the run-ahead
    // (the paper's trace-based setup has no wrong-path prefetching).
    // The caller has already checked windowMispredicts_ == 0.
    const Addr first = tail.vaddr & lineMask_;
    const Addr last = (tail.vaddr + tail.bytes - 1) & lineMask_;
    for (Addr line = first; line <= last; line += lineBytes_) {
        Batch::Line &out = batch_.lines.emplace_back();
        out.vaddr = line;
        out.paddr = line;
        if constexpr ((Stub & kStubMmu) == 0) {
            const MmuResult tr = mmu_.translate(line);
            out.paddr = tr.paddr;
            out.temp = tr.temp;
        }
        ++rec.prefetches;
    }
}

template <unsigned Stub>
void
CoreModel::resolveEvent(const BBEvent &ev, Batch::Event &rec)
{
    rec.instrs = ev.instrs;
    instructions_ += ev.instrs;
    if constexpr ((Stub & kStubExec) != 0)
        return;  // Producer-only attribution: count and discard.

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
        Batch::Line &out = batch_.lines.emplace_back();
        out.vaddr = line;
        out.paddr = line;
        if constexpr (!stub_mmu) {
            const MmuResult tr = mmu_.translate(line);
            out.paddr = tr.paddr;
            out.temp = tr.temp;
            out.tlbMiss = tr.tlbMiss;
            fetch_temp = tr.temp;
        }
        ++rec.fetches;
    }

    // --- Branch resolution.
    if (!stub_branch && ev.hasBranch) {
        BranchInfo info = ev.branch;
        info.temp = fetch_temp; // PTE hint for the TRRIP-BTB option.
        const BranchOutcome out = branch_.predictAndUpdate(info);
        // A mispredict dominates a redirect.  The buckets are integer
        // counters, materialized at end of run.
        const unsigned idx =
            (out.mispredicted ? 1u : 0u) |
            ((out.btbMiss && ev.branch.taken) ? 2u : 0u);
        rec.branch = static_cast<std::uint8_t>(idx);
        mispredEvents_ += idx & 1u;
        redirectEvents_ += idx == 2u ? 1u : 0u;
    }

    // --- Data accesses.
    for (std::uint8_t i = 0; i < ev.numData; ++i) {
        const DataAccessEvent &d = ev.data[i];
        Batch::Data &out = batch_.data.emplace_back();
        out.vaddr = d.vaddr;
        out.paddr = d.vaddr;
        out.pc = d.pc;
        out.isStore = d.isStore;
        out.dependent = d.dependent;
        if constexpr (!stub_mmu) {
            const MmuResult tr = mmu_.translate(d.vaddr);
            out.paddr = tr.paddr;
            out.tlbMiss = tr.tlbMiss;
        }
    }
    rec.data = ev.numData;
}

template <unsigned Stub>
void
CoreModel::resolveBatch(InstCount target_instructions)
{
    constexpr bool stub_branch =
        (Stub & (kStubBranch | kStubExec)) != 0;
    batch_.events.clear();
    batch_.lines.clear();
    batch_.data.clear();
    while (instructions_ < target_instructions &&
           batch_.events.size() < kBatchEvents) {
        refill();
        Batch::Event rec;
        if (!stub_branch && fdipScan_) {
            // Lookahead cursor: stamp fdipMispredict exactly when an
            // event enters the window, i.e. with the predictor state
            // an event-at-a-time engine would have sampled.
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
                fdipLines<Stub>(ring_[(head_ + window_ - 1) & mask_],
                                rec);
            }
        }
        const BBEvent &ev = ring_[head_ & mask_];
        if (!stub_branch && fdipScan_ && ev.fdipMispredict)
            --windowMispredicts_;
        resolveEvent<Stub>(ev, rec);
        batch_.events.push_back(rec);
        ++head_;
    }
}

template <unsigned Stub>
void
CoreModel::consumeBatch(Lane &lane) const
{
    if constexpr ((Stub & kStubExec) != 0)
        return;  // Producer-only attribution: the lanes do nothing.
    constexpr bool stub_hier = (Stub & kStubHier) != 0;

    // The lane's state lives in locals for the batch: the hierarchy
    // calls are opaque, and members would be reloaded after each.
    CacheHierarchy &hier = *lane.hier;
    double now = lane.now;
    TopDown td = lane.td;
    double miss_shadow_end = lane.missShadowEnd;
    const double walk = static_cast<double>(params_.tlbWalkPenalty);
    const auto line_request = [](const Batch::Line &l, AccessType type) {
        MemRequest req;
        req.vaddr = l.vaddr;
        req.paddr = l.paddr;
        req.pc = l.vaddr;
        req.type = type;
        req.temp = l.temp;
        return req;
    };

    const Batch::Line *line = batch_.lines.data();
    const Batch::Data *data = batch_.data.data();
    for (const Batch::Event &ev : batch_.events) {
        // --- FDIP prefetches of the window tail.
        for (unsigned k = 0; k < ev.prefetches; ++k, ++line) {
            if constexpr (!stub_hier) {
                hier.instPrefetch(
                    line_request(*line, AccessType::InstPrefetch),
                    static_cast<Cycles>(now));
            }
        }

        // --- Instruction fetch, one access per newly touched line.
        for (unsigned k = 0; k < ev.fetches; ++k, ++line) {
            if (line->tlbMiss) {
                td.other += walk;
                now += walk;
            }
            if constexpr (stub_hier)
                continue;
            const MemRequest req =
                line_request(*line, AccessType::InstFetch);
            const AccessOutcome out =
                hier.instFetch(req, static_cast<Cycles>(now));
            const double exposed =
                out.latency > params_.fetchQueueSlack
                    ? static_cast<double>(out.latency -
                                          params_.fetchQueueSlack)
                    : 0.0;
            td.ifetch += exposed;
            now += exposed;
            if (out.l2DemandMiss) {
                const bool burst = now - lane.lastInstL2Miss <=
                                   params_.starvationBurstWindow;
                lane.lastInstL2Miss = now;
                // Every exposed miss goes to the lane's probe (the
                // costly-miss analysis of Fig. 7); only clustered
                // misses starve decode hard enough to set Emissary's
                // priority bit.
                if (out.latency >= params_.starvationThreshold &&
                    hier.probe()) {
                    hier.probe()->onCostlyMiss(line->vaddr, exposed);
                }
                if (burst &&
                    out.latency >= params_.starvationThreshold &&
                    (lane.starvationEvents++ & 1) == 0) {
                    hier.markL2Priority(req.paddr);
                }
            }
        }

        // --- Branch penalty (0.0 without a penalty: bit-exact).
        now += branchPenalty_[ev.branch];

        // --- Retire plus synthetic backend components.  The backend
        // buckets stay in event order: their per-event products
        // round, so an end-of-run rate * instructions form would
        // drift by ulps -- visible in the byte-reproducible BENCH
        // files.  Only the integer-weighted buckets (mispred) hoist
        // exactly.
        const double instrs = static_cast<double>(ev.instrs);
        const double retire = retireCycles(ev.instrs);
        td.retire += retire;
        td.depend += instrs * backend_.dependStallPerInstr;
        td.issue += instrs * backend_.issueStallPerInstr;
        td.other += instrs * backend_.otherStallPerInstr;
        now += retire + instrs * backendStallPerInstr_;

        // --- Data accesses with MLP-aware exposure.
        for (unsigned i = 0; i < ev.data; ++i, ++data) {
            if (data->tlbMiss) {
                td.other += walk;
                now += walk;
            }
            if constexpr (stub_hier)
                continue;
            MemRequest req;
            req.vaddr = data->vaddr;
            req.paddr = data->paddr;
            req.pc = data->pc;
            req.type =
                data->isStore ? AccessType::Store : AccessType::Load;
            const AccessOutcome out =
                hier.dataAccess(req, static_cast<Cycles>(now));
            if (out.latency == 0)
                continue;
            const double raw = static_cast<double>(out.latency);
            if (data->isStore) {
                const double exposed =
                    raw * params_.storeExposedFraction;
                td.mem += exposed;
                now += exposed;
            } else if (data->dependent) {
                // Pointer chase: the next access needs this value;
                // the OOO window hides almost none of the latency.
                const double exposed =
                    raw * params_.dependentExposedFraction;
                miss_shadow_end = now + raw;
                td.mem += exposed;
                now += exposed;
            } else {
                double exposed = raw * params_.loadExposedFraction;
                if (now < miss_shadow_end)
                    exposed /= params_.overlapMlp;
                miss_shadow_end = now + raw;
                td.mem += exposed;
                now += exposed;
            }
        }
    }
    lane.now = now;
    lane.td = td;
    lane.missShadowEnd = miss_shadow_end;
}

template <unsigned Stub>
void
CoreModel::stepLoop(InstCount target_instructions)
{
    while (instructions_ < target_instructions) {
        resolveBatch<Stub>(target_instructions);
        for (Lane &lane : lanes_)
            consumeBatch<Stub>(lane);
    }
}

SimResult
CoreModel::finalize(std::size_t lane_index) const
{
    const Lane &lane = lanes_.at(lane_index);
    const CacheHierarchy &hier = *lane.hier;
    SimResult res;
    res.instructions = instructions_;
    res.cycles = lane.now;
    res.topdown = lane.td;
    // Materialize the hoisted mispredict bucket.  Its per-event
    // contributions are integer penalties, so every partial sum of a
    // per-event accumulation is an exact integer double and
    // count * penalty reproduces the final value bit for bit -- the
    // one Top-Down bucket that hoists exactly (the fractional
    // backend buckets must stay in event order; see consumeBatch).
    res.topdown.mispred =
        static_cast<double>(params_.mispredictPenalty) *
            static_cast<double>(mispredEvents_) +
        static_cast<double>(params_.btbRedirectPenalty) *
            static_cast<double>(redirectEvents_);
    res.l2InstMpki = hier.l2InstMpki(instructions_);
    res.l2DataMpki = hier.l2DataMpki(instructions_);
    res.l1i = hier.l1i().stats();
    res.l1d = hier.l1d().stats();
    res.l2 = hier.l2().stats();
    res.slc = hier.slc().stats();
    res.prefetch = hier.prefetchStats();
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
    panic_if(lanes_.size() != 1, "CoreModel::run is the one-lane form; ",
             lanes_.size(), " lanes need step() + finalize(lane)");
    step(max_instructions);
    return finalize();
}

} // namespace trrip
