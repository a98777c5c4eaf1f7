#include "workloads/executor.hh"

#include <algorithm>

#include "util/logging.hh"

namespace trrip {

namespace {

/**
 * Handler selection weights: intrinsic tier multiplier times a Zipf
 * rank weight with the run's skew (training and evaluation inputs use
 * different skews, modeling input-set drift).
 */
std::vector<double>
handlerWeights(const SyntheticWorkload &workload, double skew)
{
    const std::size_t n = std::max<std::size_t>(
        1, workload.handlers.size());
    std::vector<double> w(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double tier = i < workload.handlerTierWeight.size()
                                ? workload.handlerTierWeight[i]
                                : 1.0;
        w[i] = tier / std::pow(static_cast<double>(i + 1), skew);
    }
    return w;
}

} // namespace

Executor::Executor(const SyntheticWorkload &workload,
                   const ElfImage &image, const ExecOptions &options) :
    wl_(workload), elf_(image), rng_(options.seed),
    handlerSampler_(handlerWeights(workload,
                                   options.handlerZipfSkew)),
    helperSampler_(zipfWeights(
        std::max<std::size_t>(1, workload.helpers.size()),
        workload.params.helperZipfSkew)),
    regionCursor_(workload.params.regions.size(), 0)
{
    panic_if(elf_.blockAddr.size() != wl_.program.numBlocks(),
             "layout does not match program");

    // Compile the program + layout into the flat tables.
    const Program &prog = wl_.program;
    blocks_.resize(prog.numBlocks());
    for (std::size_t id = 0; id < prog.numBlocks(); ++id) {
        const BasicBlock &bb = prog.blocks()[id];
        BlockInfo &info = blocks_[id];
        info.addr = elf_.blockAddr[id];
        switch (bb.role) {
          case BBRole::LoopEnd:
            info.roleParam = bb.loopIterMean;
            break;
          case BBRole::CallSite:
            info.roleParam = bb.callProb;
            break;
          case BBRole::Plain:
          default:
            info.roleParam = bb.likelyProb;
            break;
        }
        panic_if(bb.instrs > 0xffff, "block too large for BlockInfo");
        panic_if(bb.data.size() > 0xff, "too many data sites");
        panic_if(bb.loopBodyLen > 0xffff,
                 "loop body too long for BlockInfo");
        info.instrs = static_cast<std::uint16_t>(bb.instrs);
        info.loopBodyLen =
            static_cast<std::uint16_t>(bb.loopBodyLen);
        info.dataBegin = static_cast<std::uint32_t>(dataSpecs_.size());
        info.dataCount = static_cast<std::uint8_t>(bb.data.size());
        info.role = bb.role;
        info.callee = bb.callee;
        dataSpecs_.insert(dataSpecs_.end(), bb.data.begin(),
                          bb.data.end());
    }
    funcs_.resize(prog.numFunctions());
    for (std::size_t id = 0; id < prog.numFunctions(); ++id) {
        const Function &fn = prog.functions()[id];
        FuncInfo &info = funcs_[id];
        info.bodyBegin = static_cast<std::uint32_t>(body_.size());
        info.bodyLen = static_cast<std::uint32_t>(fn.body.size());
        info.isDispatcher = fn.kind == FuncKind::Dispatcher;
        body_.insert(body_.end(), fn.body.begin(), fn.body.end());
        rareAfter_.insert(rareAfter_.end(), fn.rareAfter.begin(),
                          fn.rareAfter.end());
    }
    bodyAddrs_.reserve(body_.size());
    for (const std::uint32_t id : body_)
        bodyAddrs_.push_back(blocks_[id].addr);
    regions_.resize(wl_.params.regions.size());
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        const DataRegionSpec &spec = wl_.params.regions[r];
        regions_[r].sizeBytes = spec.sizeBytes;
        regions_[r].localityBytes = std::min<std::uint64_t>(
            spec.localityBytes, spec.sizeBytes);
        regions_[r].localityFraction = spec.localityFraction;
        regions_[r].dependentFraction = spec.dependentFraction;
        regions_[r].base = wl_.regionBase[r];
    }

    pushFrame(wl_.dispatcher);
}

std::uint32_t
Executor::pickCallee(CalleeClass cls)
{
    switch (cls) {
      case CalleeClass::Handler:
        return wl_.handlers[handlerSampler_.sample(rng_)];
      case CalleeClass::Helper:
        return wl_.helpers[helperSampler_.sample(rng_)];
      case CalleeClass::Cold:
        return wl_.coldFuncs[rng_.below(wl_.coldFuncs.size())];
      case CalleeClass::External:
        return wl_.externals[rng_.below(wl_.externals.size())];
    }
    panic("unknown callee class");
}

void
Executor::emitData(const BlockInfo &bb, BBEvent &ev)
{
    const DataAccessSpec *specs = &dataSpecs_[bb.dataBegin];
    for (std::uint16_t s = 0; s < bb.dataCount; ++s) {
        const DataAccessSpec &spec = specs[s];
        // Mean accesses per execution, fractional part stochastic.
        std::uint32_t n = static_cast<std::uint32_t>(spec.count);
        if (rng_.chance(spec.count - static_cast<double>(n)))
            ++n;
        for (std::uint32_t i = 0;
             i < n && ev.numData < ev.data.size(); ++i) {
            const RegionInfo &region = regions_[spec.region];
            std::uint64_t &cursor = regionCursor_[spec.region];
            std::uint64_t offset = 0;
            switch (spec.pattern) {
              case DataPattern::Sequential:
              case DataPattern::Strided:
                // cursor < size, so one conditional subtract replaces
                // the modulo unless the stride itself exceeds size.
                cursor += spec.stride;
                if (cursor >= region.sizeBytes) {
                    cursor = cursor < 2 * region.sizeBytes
                                 ? cursor - region.sizeBytes
                                 : cursor % region.sizeBytes;
                }
                offset = cursor;
                break;
              case DataPattern::Random:
                if (rng_.chance(region.localityFraction)) {
                    // Hot working-set window at the region start.
                    offset = rng_.below(region.localityBytes);
                } else {
                    offset = rng_.below(region.sizeBytes);
                }
                break;
            }
            DataAccessEvent &d = ev.data[ev.numData++];
            d.vaddr = region.base + offset;
            d.pc = ev.vaddr + 8;
            d.isStore = rng_.chance(spec.storeFraction);
            d.dependent = !d.isStore &&
                          rng_.chance(region.dependentFraction);
        }
    }
}

void
Executor::setBranch(BBEvent &ev, Addr target, bool conditional,
                    bool is_call, bool is_return, bool is_indirect)
{
    const Addr fallthrough = ev.vaddr + ev.bytes;
    const bool taken = target != fallthrough;
    if (!conditional && !is_call && !is_return && !taken) {
        // Pure fall-through: no branch instruction at all.
        ev.hasBranch = false;
        return;
    }
    ev.hasBranch = true;
    ev.branch = BranchInfo{};
    ev.branch.pc = ev.vaddr + ev.bytes - 4;
    ev.branch.target = target;
    ev.branch.taken = taken;
    ev.branch.conditional = conditional;
    ev.branch.isCall = is_call;
    ev.branch.isReturn = is_return;
    ev.branch.isIndirect = is_indirect;
}

void
Executor::produce(BBEvent *ring, std::uint32_t mask,
                  std::uint32_t pos, std::uint32_t count)
{
    // next() is a direct (devirtualized) call here, so the per-event
    // work is one non-virtual call into the flat-table walk; the ring
    // indexing is a masked add, no bounds checks.
    for (std::uint32_t k = 0; k < count; ++k)
        next(ring[(pos + k) & mask]);
}

void
Executor::next(BBEvent &ev)
{
    Frame &fr = stack_[depth_ - 1];
    const FuncInfo &fn = funcs_[fr.func];

    const bool is_rare = fr.pendingRare >= 0;
    const std::uint32_t bb_id =
        is_rare ? static_cast<std::uint32_t>(fr.pendingRare)
                : body_[fn.bodyBegin + fr.pos];
    const BlockInfo &bb = blocks_[bb_id];

    ev.bb = bb_id;
    ev.vaddr = bb.addr;
    ev.instrs = bb.instrs;
    ev.bytes = static_cast<std::uint32_t>(bb.instrs) * 4;
    ev.numData = 0;
    ev.hasBranch = false;
    ev.fdipMispredict = false;
    if (bb.dataCount > 0)
        emitData(bb, ev);

    if (is_rare) {
        // Rare block rejoins the body at the next position.
        fr.pendingRare = -1;
        ++fr.pos;
        setBranch(ev, bodyAddr(fn, fr.pos), false, false, false,
                  false);
        return;
    }

    const bool last = fr.pos + 1 == fn.bodyLen;

    if (last) {
        if (fn.isDispatcher) {
            // Dispatcher loops forever.
            fr.pos = 0;
            setBranch(ev, bodyAddr(fn, 0), false, false, false, false);
            return;
        }
        // Return to the caller's resume block.
        panic_if(depth_ < 2, "return from the bottom frame");
        --depth_;
        Frame &caller = stack_[depth_ - 1];
        const Addr resume = bodyAddr(funcs_[caller.func], caller.pos);
        setBranch(ev, resume, false, false, true, false);
        return;
    }

    switch (bb.role) {
      case BBRole::LoopEnd: {
        // Find (or start) the loop anchored at this position; loops
        // are keyed by position so overlapping/nested loops each keep
        // their own trip count.
        ActiveLoop *loop = nullptr;
        for (ActiveLoop &l : fr.loops) {
            if (l.pos == fr.pos) {
                loop = &l;
                break;
            }
        }
        if (!loop) {
            const double jitter = 0.5 + rng_.uniform();
            const auto iters = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(bb.roleParam * jitter));
            fr.loops.push_back(ActiveLoop{
                fr.pos, static_cast<std::uint32_t>(iters - 1)});
            loop = &fr.loops.back();
        }
        if (loop->remaining > 0) {
            --loop->remaining;
            const std::uint32_t back = fr.pos - bb.loopBodyLen;
            fr.pos = back;
            setBranch(ev, bodyAddr(fn, back), true, false, false,
                      false);
        } else {
            // Loop exit: retire this loop's state.
            for (std::size_t i = 0; i < fr.loops.size(); ++i) {
                if (fr.loops[i].pos == fr.pos) {
                    fr.loops.erase(
                        fr.loops.begin() +
                        static_cast<std::ptrdiff_t>(i));
                    break;
                }
            }
            ++fr.pos;
            setBranch(ev, bodyAddr(fn, fr.pos), true, false, false,
                      false);
        }
        return;
      }
      case BBRole::CallSite: {
        const bool can_call =
            depth_ < wl_.params.maxCallDepth &&
            !(bb.callee == CalleeClass::Helper &&
              wl_.helpers.empty()) &&
            !(bb.callee == CalleeClass::Cold &&
              wl_.coldFuncs.empty()) &&
            !(bb.callee == CalleeClass::External &&
              wl_.externals.empty());
        if (can_call && rng_.chance(bb.roleParam)) {
            const std::uint32_t callee = pickCallee(bb.callee);
            ++fr.pos; // Resume point after the call.
            const bool indirect = bb.callee == CalleeClass::Handler ||
                                  bb.callee == CalleeClass::External;
            setBranch(ev, elf_.funcEntry[callee], false, true, false,
                      indirect);
            pushFrame(callee);
        } else {
            // Guard skipped the call.
            ++fr.pos;
            setBranch(ev, bodyAddr(fn, fr.pos), true, false, false,
                      false);
        }
        return;
      }
      case BBRole::Plain:
      default: {
        const std::int32_t rare = rareAfter_[fn.bodyBegin + fr.pos];
        const bool likely = rng_.chance(bb.roleParam);
        if (!likely && rare >= 0) {
            // Detour through the unlikely path, then rejoin.
            fr.pendingRare = rare;
            setBranch(ev,
                      blocks_[static_cast<std::uint32_t>(rare)].addr,
                      true, false, false, false);
        } else {
            ++fr.pos;
            setBranch(ev, bodyAddr(fn, fr.pos),
                      bb.roleParam < 1.0 && rare >= 0, false, false,
                      false);
        }
        return;
      }
    }
}

} // namespace trrip
