#include "cache/hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace trrip {

CacheHierarchy::CacheHierarchy(const HierarchyParams &params) :
    params_(params),
    l1i_(params.l1i, params.l1iPolicy),
    l1d_(params.l1d, params.l1dPolicy),
    l2_(params.l2, params.l2Policy),
    ownSlc_(std::make_unique<Cache>(params.slc, params.slcPolicy)),
    ownDram_(std::make_unique<Dram>(params.dram)),
    slc_(ownSlc_.get()),
    dram_(ownDram_.get()),
    l1dStride_(256, params.l1dStrideDegree),
    l2Stride_(256, params.l2StrideDegree),
    instNextLine_(params.instNextLineDegree, params.l2.lineBytes)
{
    // The hierarchy decomposes addresses through its own params_
    // copies (lineAddr on the prefetch paths), so derive their
    // shift/mask constants up front.
    params_.l1i.check();
    params_.l1d.check();
    params_.l2.check();
    params_.slc.check();
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               Cache &shared_slc, Dram &shared_dram,
                               unsigned core_id,
                               MultiCoreHierarchy *fabric) :
    params_(params),
    l1i_(params.l1i, params.l1iPolicy),
    l1d_(params.l1d, params.l1dPolicy),
    l2_(params.l2, params.l2Policy),
    slc_(&shared_slc),
    dram_(&shared_dram),
    slcOwnerBit_(1u << core_id),
    fabric_(fabric),
    l1dStride_(256, params.l1dStrideDegree),
    l2Stride_(256, params.l2StrideDegree),
    instNextLine_(params.instNextLineDegree, params.l2.lineBytes)
{
    panic_if(core_id >= 32,
             "shared-SLC owner masks carry at most 32 cores");
    params_.l1i.check();
    params_.l1d.check();
    params_.l2.check();
    params_.slc.check();
}

AccessOutcome
CacheHierarchy::instFetch(const MemRequest &req, Cycles now)
{
    panic_if(req.type != AccessType::InstFetch,
             "instFetch called with non-fetch request");
    if (l1i_.access(req))
        return AccessOutcome{};
    return beyondL1(req, now, true);
}

AccessOutcome
CacheHierarchy::dataAccess(const MemRequest &req, Cycles now)
{
    panic_if(req.isInst(), "dataAccess called with instruction request");
    if (l1d_.access(req, /*mark_dirty_on_write_hit=*/true))
        return AccessOutcome{};
    // Train the L1D stride prefetcher on demand misses.
    if (params_.enablePrefetch && !req.isPrefetch()) {
        pfScratch_.clear();
        l1dStride_.train(req.pc, req.paddr, pfScratch_);
        for (Addr a : pfScratch_) {
            MemRequest pf = req;
            pf.vaddr = pf.paddr = a;
            pf.type = AccessType::DataPrefetch;
            issuePrefetch(pf, now);
        }
    }
    // No markDirty needed after the miss path: fillL1 installed the
    // line with dirty = req.isWrite() already.
    return beyondL1(req, now, false);
}

AccessOutcome
CacheHierarchy::beyondL1(const MemRequest &req, Cycles now, bool is_inst)
{
    const Addr line = params_.l2.lineAddr(req.paddr);
    AccessOutcome out;
    out.l1Miss = true;

    if (probe_ && !req.isPrefetch())
        probe_->onL2Access(req);

    // ONE in-flight probe per access.  The slot handle is stable
    // across the L2 lookup (tombstone erasure, no inserts in
    // between), so it serves both the materialize-completed check
    // here and the late-merge check after an L2 miss -- the two
    // separate probes of the pre-fusion hierarchy.
    std::size_t slot = inflight_.findSlot(line);
    if (slot != FlatMap<Inflight>::npos &&
        inflight_.slotValue(slot).ready <= now) {
        // Completed prefetch becomes real L2 content before the
        // lookup; any SLC copy moves up (exclusive) or gains this
        // core's owner bit (inclusive), no DRAM charge.
        inflight_.eraseSlot(slot);
        slot = FlatMap<Inflight>::npos;
        ++pfStats_.covered;
        MemRequest fill = req;
        fill.vaddr = fill.paddr = line;
        fill.type = req.isInst() ? AccessType::InstPrefetch
                                 : AccessType::DataPrefetch;
        if (sharedSlc())
            ensureSlcInclusion(fill, now);
        else
            slc_->invalidate(line);
        fillL2(fill, now, 0);
    }

    Cache &l1 = is_inst ? l1i_ : l1d_;
    const std::uint8_t l1bit = is_inst ? kLineMetaInL1I
                                       : kLineMetaInL1D;

    // The L2 runs the lane's policy, so the probe and fillL2's fill
    // inline the switch over every kind: each lane runs its own
    // policy's hooks with no call.
    if (const Cache::Probe probe = l2_.accessProbeInline(req);
        probe.hit) {
        // The line is about to enter an L1: stamp the residency hint
        // on the slot the probe already bound.
        l2_.orMeta(probe.set, probe.way, l1bit);
        out.servedBy = ServedBy::L2;
        out.latency = params_.l2TagLat + params_.l2DataLat;
        fillL1(l1, req);
        return out;
    }

    out.l2DemandMiss = !req.isPrefetch();

    // A late prefetch merges the demand into the outstanding fill.
    if (slot != FlatMap<Inflight>::npos) {
        const Cycles ready = inflight_.slotValue(slot).ready;
        out.servedBy = ServedBy::Inflight;
        // Fill-and-forward: the demand waits out the remaining fill
        // time; the data is bypassed to the requester on arrival.
        out.latency = ready > now ? ready - now : params_.l2DataLat;
        ++pfStats_.late;
        inflight_.eraseSlot(slot);
        // Data arrives via the prefetch; consume any SLC copy
        // (exclusive) or take ownership of it (inclusive) and
        // install without charging DRAM again.
        if (sharedSlc())
            ensureSlcInclusion(req, now);
        else
            slc_->invalidate(line);
        fillL2(req, now, l1bit);
        fillL1(l1, req);
        return out;
    }

    // Train the L2 prefetchers on true demand misses.
    if (params_.enablePrefetch && !req.isPrefetch()) {
        pfScratch_.clear();
        if (is_inst)
            instNextLine_.train(line, pfScratch_);
        else
            l2Stride_.train(req.pc, req.paddr, pfScratch_);
        for (Addr a : pfScratch_) {
            MemRequest pf = req;
            pf.vaddr = pf.paddr = a;
            pf.type = is_inst ? AccessType::InstPrefetch
                              : AccessType::DataPrefetch;
            issuePrefetch(pf, now);
        }
    }

    bool slc_hit;
    if (sharedSlc()) {
        // Inclusive: the copy stays below; the hit slot gains this
        // core's owner bit in the same probe.
        const Cache::Probe sp = slc_->accessProbe(req);
        slc_hit = sp.hit;
        if (sp.hit)
            slc_->orOwner(sp.set, sp.way, slcOwnerBit_);
    } else {
        slc_hit = slc_->accessInvalidate(req);
    }
    if (slc_hit) {
        out.servedBy = ServedBy::Slc;
        out.latency = params_.l2TagLat + params_.slcTagLat +
                      params_.slcDataLat;
        fillL2(req, now, l1bit);
        fillL1(l1, req);
        return out;
    }

    out.servedBy = ServedBy::Dram;
    out.latency = params_.l2TagLat + params_.slcTagLat +
                  dram_->read(now);
    // Inclusive SLC: the DRAM fill installs below on its way up, so
    // the private L2 copy is covered before fillL2 can even evict.
    if (sharedSlc())
        ensureSlcInclusion(req, now);
    fillL2(req, now, l1bit);
    fillL1(l1, req);
    return out;
}

void
CacheHierarchy::instPrefetch(const MemRequest &req, Cycles now)
{
    panic_if(req.type != AccessType::InstPrefetch,
             "instPrefetch needs an InstPrefetch request");
    issuePrefetch(req, now);
}

void
CacheHierarchy::issuePrefetch(const MemRequest &req, Cycles now)
{
    const Addr line = params_.l2.lineAddr(req.paddr);
    if (l2_.contains(line))
        return;
    // Single probe: reserve the tracker slot, then fill in the ready
    // time (tombstone erasure keeps the slot stable across the prune).
    auto [entry, inserted] = inflight_.tryEmplace(line);
    if (!inserted)
        return;

    Cycles latency = params_.l2TagLat + params_.slcTagLat;
    if (slc_->contains(line)) {
        latency += params_.slcDataLat;
    } else {
        latency += dram_->read(now);
    }
    entry->ready = now + latency;
    ++pfStats_.issued;
    pruneInflight(now);
}

void
CacheHierarchy::pruneInflight(Cycles now)
{
    // Called after the insert, so "more than threshold entries" is
    // the post-insert size exceeding the threshold.  The entry that
    // triggered the call is never expired: its ready time is in the
    // future.
    if (inflight_.size() <= params_.inflightPruneThreshold)
        return;
    const Cycles grace = params_.inflightPruneGraceCycles;
    inflight_.eraseIf([now, grace](Addr, const Inflight &entry) {
        return entry.ready + grace < now;
    });
}

void
CacheHierarchy::fillL2(const MemRequest &req, Cycles now,
                       std::uint8_t l1_residency)
{
    const CacheLine victim = l2_.fillInline(req, l1_residency);
    if (!victim.valid)
        return;

    bool dirty = victim.dirty();
    // Back-invalidate only the L1s whose residency bit is set on the
    // victim (a clear bit proves absence; a stale set bit costs the
    // same no-op probe as the unconditional pre-fusion walk).  A dirty
    // L1D copy folds its data into the victim on the way out (an
    // absent line comes back with meta 0).
    if (victim.meta & kLineMetaInL1I)
        l1i_.invalidate(victim.addr);
    if ((victim.meta & kLineMetaInL1D) &&
        l1d_.invalidate(victim.addr).dirty())
        dirty = true;
    victimToSlc(victim.addr, dirty, victim.meta, now);
}

void
CacheHierarchy::victimToSlc(Addr addr, bool dirty, std::uint8_t meta,
                            Cycles now)
{
    // Inclusive: the data already lives below.  The L2 victim only
    // releases this core's ownership of the SLC copy; a dirty victim
    // folds its writeback into that copy.  Falling through (copy
    // absent) means inclusion was broken -- only possible with no
    // owner directory wired -- and the victim re-installs like an
    // exclusive SLC's.
    if (sharedSlc() && slc_->releaseOwner(addr, slcOwnerBit_, dirty))
        return;
    // Synthetic downstream re-insert built straight from the victim's
    // (addr, meta) identity -- dirty victims write back as stores.
    MemRequest req;
    req.vaddr = req.paddr = addr;
    req.pc = 0;
    req.type = dirty ? AccessType::Store
                     : ((meta & kLineMetaInst) ? AccessType::InstFetch
                                               : AccessType::Load);
    req.temp = decodeTemperature(
        static_cast<std::uint8_t>(meta >> kLineMetaTempShift));
    const CacheLine evicted = slc_->fill(req);
    bool ev_dirty = evicted.valid && evicted.dirty();
    if (evicted.valid && fabric_ &&
        fabric_->dropFromOwners(evicted.addr, evicted.owner)) {
        ev_dirty = true;
    }
    if (ev_dirty)
        dram_->write(now);
}

void
CacheHierarchy::ensureSlcInclusion(const MemRequest &req, Cycles now)
{
    const Addr line = params_.l2.lineAddr(req.paddr);
    if (slc_->stampOwner(line, slcOwnerBit_))
        return;
    MemRequest fill = req;
    fill.vaddr = fill.paddr = line;
    const CacheLine evicted = slc_->fill(fill, 0, slcOwnerBit_);
    if (!evicted.valid)
        return;
    bool dirty = evicted.dirty();
    if (fabric_ &&
        fabric_->dropFromOwners(evicted.addr, evicted.owner)) {
        dirty = true;
    }
    if (dirty)
        dram_->write(now);
}

bool
CacheHierarchy::dropLine(Addr addr)
{
    const CacheLine v = l2_.invalidate(addr);
    bool dirty = v.valid && v.dirty();
    // The inclusive L2's residency bits bound where private copies
    // can live (same contract as fillL2's cascade); an absent line
    // comes back with meta 0 and implicates neither L1.
    if (v.meta & kLineMetaInL1I)
        l1i_.invalidate(addr);
    if ((v.meta & kLineMetaInL1D) && l1d_.invalidate(addr).dirty())
        dirty = true;
    return dirty;
}

void
CacheHierarchy::fillL1(Cache &l1, const MemRequest &req)
{
    const CacheLine evicted = l1.fill(req);
    if (evicted.valid && evicted.dirty()) {
        // Inclusive L2 still holds the line; just mark it dirty.
        l2_.markDirty(evicted.addr);
    }
}

bool
MultiCoreHierarchy::dropFromOwners(Addr addr, std::uint32_t owners)
{
    // The naive reference ignores the masks and probes every core;
    // the masked cascade walks exactly the owner bits.  Because the
    // masks are conservative (a clear bit proves absence and probing
    // an absent line is a stat-free no-op), the two must produce
    // identical outcomes and stats -- the randomized differential's
    // invariant.
    const std::uint32_t probe =
        params_.naiveBackInvalidate ? ~0u : owners;
    bool dirty = false;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        if ((probe >> c) & 1u) {
            if (cores_[c]->dropLine(addr))
                dirty = true;
        }
    }
    return dirty;
}

MultiCoreHierarchy::MultiCoreHierarchy(const MultiCoreParams &params) :
    params_(params),
    slc_(params_.hier.slc, params_.hier.slcPolicy),
    dram_(params_.hier.dram)
{
    panic_if(params_.numCores == 0 || params_.numCores > 32,
             "MultiCoreHierarchy: numCores must be in [1, 32]");
    slc_.enableOwnerMasks();
    cores_.reserve(params_.numCores);
    for (unsigned c = 0; c < params_.numCores; ++c) {
        cores_.push_back(std::make_unique<CacheHierarchy>(
            params_.hier, slc_, dram_, c, this));
    }
}

bool
MultiCoreHierarchy::checkInclusion() const
{
    for (unsigned c = 0; c < numCores(); ++c) {
        const CacheHierarchy &h = core(c);
        if (!h.checkInclusion())
            return false;
        // Every private L2 line must be present in the shared SLC
        // with this core's owner bit set.
        const Cache &l2 = h.l2();
        for (std::uint32_t s = 0; s < l2.geometry().numSets(); ++s) {
            for (std::uint32_t w = 0; w < l2.geometry().assoc; ++w) {
                const CacheLine line = l2.lineAt(s, w);
                if (!line.valid)
                    continue;
                if (((slc_.ownerOf(line.addr) >> c) & 1u) == 0)
                    return false;
            }
        }
    }
    return true;
}

void
CacheHierarchy::markL2Priority(Addr paddr)
{
    l2_.markPriority(paddr);
}

double
CacheHierarchy::l2InstMpki(InstCount instructions) const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(l2_.stats().instDemandMisses) * 1000.0 /
           static_cast<double>(instructions);
}

double
CacheHierarchy::l2DataMpki(InstCount instructions) const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(l2_.stats().dataDemandMisses) * 1000.0 /
           static_cast<double>(instructions);
}

std::vector<std::pair<Addr, Cycles>>
CacheHierarchy::inflightSnapshot() const
{
    std::vector<std::pair<Addr, Cycles>> entries;
    inflight_.forEach([&](Addr line, const Inflight &e) {
        entries.emplace_back(line, e.ready);
    });
    std::sort(entries.begin(), entries.end());
    return entries;
}

bool
CacheHierarchy::checkInclusion() const
{
    // Every valid L1 line must be present in the L2.
    const auto check = [this](const Cache &l1) {
        for (std::uint32_t s = 0; s < l1.geometry().numSets(); ++s) {
            for (std::uint32_t w = 0; w < l1.geometry().assoc; ++w) {
                const CacheLine line = l1.lineAt(s, w);
                if (line.valid && !l2_.contains(line.addr))
                    return false;
            }
        }
        return true;
    };
    return check(l1i_) && check(l1d_);
}

} // namespace trrip
