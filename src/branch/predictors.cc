#include "branch/predictors.hh"

#include "util/logging.hh"

namespace trrip {

GsharePredictor::GsharePredictor(std::size_t entries,
                                 unsigned history_bits) :
    pht_(entries, 1),
    historyMask_((1ull << history_bits) - 1)
{
    panic_if(entries == 0 || (entries & (entries - 1)) != 0,
             "gshare entries must be a power of two");
}

std::size_t
GsharePredictor::index(Addr pc) const
{
    return ((pc >> 2) ^ history_) & (pht_.size() - 1);
}

bool
GsharePredictor::predict(Addr pc) const
{
    return pht_[index(pc)] > 1;
}

void
GsharePredictor::update(Addr pc, bool taken)
{
    // One state machine: the fused form is authoritative, update()
    // just discards the prediction.
    (void)predictAndTrain(pc, taken);
}

bool
GsharePredictor::predictAndTrain(Addr pc, bool taken)
{
    std::uint8_t &ctr = pht_[index(pc)];
    const bool predicted = ctr > 1;
    if (taken)
        ctr += ctr < 3 ? 1 : 0;
    else
        ctr -= ctr > 0 ? 1 : 0;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    return predicted;
}

Btb::Btb(std::size_t entries) : table_(entries)
{
    panic_if(entries == 0 || (entries & (entries - 1)) != 0,
             "BTB entries must be a power of two");
}

bool
Btb::lookup(Addr pc, Addr &target) const
{
    const Entry &e = table_[(pc >> 2) & (table_.size() - 1)];
    if (e.valid && e.pc == pc) {
        target = e.target;
        return true;
    }
    return false;
}

void
Btb::update(Addr pc, Addr target)
{
    Entry &e = table_[(pc >> 2) & (table_.size() - 1)];
    e.valid = true;
    e.pc = pc;
    e.target = target;
}

bool
Btb::lookupAndUpdate(Addr pc, Addr target, Addr &predicted)
{
    Entry &e = table_[(pc >> 2) & (table_.size() - 1)];
    const bool hit = e.valid && e.pc == pc;
    if (hit)
        predicted = e.target;
    e.valid = true;
    e.pc = pc;
    e.target = target;
    return hit;
}

SetAssocBtb::SetAssocBtb(std::size_t entries, std::uint32_t ways,
                         bool temperature_aware) :
    table_(entries), sets_(entries / std::max(1u, ways)), ways_(ways),
    temperatureAware_(temperature_aware)
{
    panic_if(ways == 0 || entries % ways != 0,
             "BTB entries must divide into ways");
    panic_if(sets_ == 0 || (sets_ & (sets_ - 1)) != 0,
             "BTB set count must be a power of two");
}

std::size_t
SetAssocBtb::setIndex(Addr pc) const
{
    return ((pc >> 2) & (sets_ - 1)) * ways_;
}

bool
SetAssocBtb::lookup(Addr pc, Addr &target) const
{
    const std::size_t base = setIndex(pc);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Entry &e = table_[base + w];
        if (e.valid && e.pc == pc) {
            target = e.target;
            return true;
        }
    }
    return false;
}

void
SetAssocBtb::update(Addr pc, Addr target, Temperature temp)
{
    const std::size_t base = setIndex(pc);
    Entry *victim = nullptr;
    // Hit or invalid way first.
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = table_[base + w];
        if (e.valid && e.pc == pc) {
            victim = &e;
            break;
        }
        if (!e.valid && !victim)
            victim = &e;
    }
    if (!victim) {
        // LRU among non-hot entries; LRU overall when all are hot
        // (or when temperature awareness is off).
        Entry *lru_any = &table_[base];
        Entry *lru_cool = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = table_[base + w];
            if (e.lruStamp < lru_any->lruStamp)
                lru_any = &e;
            if (!temperatureAware_ || e.temp != Temperature::Hot) {
                if (!lru_cool || e.lruStamp < lru_cool->lruStamp)
                    lru_cool = &e;
            }
        }
        victim = lru_cool ? lru_cool : lru_any;
    }
    victim->valid = true;
    victim->pc = pc;
    victim->target = target;
    victim->temp = temp;
    victim->lruStamp = ++tick_;
}

double
SetAssocBtb::hotOccupancy() const
{
    std::uint64_t valid = 0, hot = 0;
    for (const Entry &e : table_) {
        valid += e.valid ? 1 : 0;
        hot += (e.valid && e.temp == Temperature::Hot) ? 1 : 0;
    }
    return valid == 0 ? 0.0
                      : static_cast<double>(hot) /
                            static_cast<double>(valid);
}

LoopPredictor::LoopPredictor(std::size_t entries) : table_(entries)
{
    panic_if(entries == 0 || (entries & (entries - 1)) != 0,
             "loop predictor entries must be a power of two");
}

const LoopPredictor::Entry *
LoopPredictor::find(Addr pc) const
{
    const Entry &e = table_[(pc >> 2) & (table_.size() - 1)];
    return (e.valid && e.pc == pc) ? &e : nullptr;
}

LoopPredictor::Entry &
LoopPredictor::slot(Addr pc)
{
    return table_[(pc >> 2) & (table_.size() - 1)];
}

bool
LoopPredictor::predict(Addr pc, bool &taken) const
{
    const Entry *e = find(pc);
    if (!e || e->confidence < 2 || e->tripCount == 0)
        return false;
    // Predict taken until the learned trip count is reached.
    taken = e->currentCount < e->tripCount;
    return true;
}

void
LoopPredictor::update(Addr pc, bool taken)
{
    // One state machine: the fused form is authoritative, update()
    // just discards the prediction.
    bool unused = false;
    (void)predictAndTrain(pc, taken, unused);
}

bool
LoopPredictor::predictAndTrain(Addr pc, bool taken, bool &taken_out)
{
    Entry &e = slot(pc);
    // Pre-update prediction, exactly as predict() would have made it.
    bool predicted = false;
    if (e.valid && e.pc == pc && e.confidence >= 2 &&
        e.tripCount != 0) {
        taken_out = e.currentCount < e.tripCount;
        predicted = true;
    }
    // Update, exactly as update() on the same slot.
    if (!e.valid || e.pc != pc) {
        e = Entry();
        e.valid = true;
        e.pc = pc;
    }
    if (taken) {
        ++e.currentCount;
        return predicted;
    }
    if (e.tripCount == e.currentCount) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.tripCount = e.currentCount;
        e.confidence = 0;
    }
    e.currentCount = 0;
    return predicted;
}

void
ReturnAddressStack::push(Addr ret)
{
    ring_[top_] = ret;
    top_ = top_ + 1 == depth_ ? 0 : top_ + 1;
    if (count_ < depth_)
        ++count_;
}

Addr
ReturnAddressStack::pop()
{
    if (count_ == 0)
        return 0;
    top_ = top_ == 0 ? depth_ - 1 : top_ - 1;
    --count_;
    return ring_[top_];
}

BranchUnit::BranchUnit(const BranchParams &params) :
    params_(params),
    gshare_(params.globalEntries, params.historyBits),
    btb_(params.btbEntries),
    trripBtb_(params.btbEntries, params.btbWays, true),
    indirectBtb_(params.indirectBtbEntries),
    loop_(params.loopEntries),
    ras_(params.rasDepth)
{
}

bool
BranchUnit::btbLookup(Addr pc, Addr &target) const
{
    if (params_.trripBtb)
        return trripBtb_.lookup(pc, target);
    return btb_.lookup(pc, target);
}

bool
BranchUnit::predictDirection(const BranchInfo &info) const
{
    if (!info.conditional)
        return true;
    bool loop_taken = false;
    if (loop_.predict(info.pc, loop_taken))
        return loop_taken;
    return gshare_.predict(info.pc);
}

BranchOutcome
BranchUnit::predictAndUpdate(const BranchInfo &info)
{
    BranchOutcome out;
    ++stats_.branches;

    if (info.isReturn) {
        const Addr predicted = ras_.pop();
        out.mispredicted = predicted != info.target;
    } else if (info.isIndirect) {
        Addr predicted = 0;
        const bool hit = indirectBtb_.lookupAndUpdate(
            info.pc, info.target, predicted);
        out.mispredicted = !hit || predicted != info.target;
    } else {
        // Fused predict + train: one slot access per structure
        // instead of separate predict and update probes.  Prediction
        // values and final state match predictDirection() followed by
        // the individual update() calls exactly (gshare history and
        // the loop slot are untouched between the paired halves).
        bool predicted_taken = true;
        if (info.conditional) {
            bool loop_taken = false;
            const bool loop_confident = loop_.predictAndTrain(
                info.pc, info.taken, loop_taken);
            const bool gshare_taken =
                gshare_.predictAndTrain(info.pc, info.taken);
            predicted_taken =
                loop_confident ? loop_taken : gshare_taken;
        }
        out.mispredicted = predicted_taken != info.taken;
        if (info.taken) {
            Addr predicted = 0;
            bool btb_hit;
            if (params_.trripBtb) {
                btb_hit = trripBtb_.lookup(info.pc, predicted);
                trripBtb_.update(info.pc, info.target, info.temp);
            } else {
                btb_hit = btb_.lookupAndUpdate(info.pc, info.target,
                                               predicted);
            }
            out.btbMiss = !btb_hit || predicted != info.target;
            if (out.btbMiss && !out.mispredicted) {
                // Correct direction but unknown target still redirects
                // the frontend; treat as a (cheaper) misprediction.
                ++stats_.btbMisses;
            }
        }
    }

    if (info.isCall)
        ras_.push(info.pc + 4);

    if (out.mispredicted)
        ++stats_.mispredicts;
    return out;
}

bool
BranchUnit::wouldMispredict(const BranchInfo &info) const
{
    if (info.isReturn)
        return false; // RAS is nearly perfect; don't stall FDIP on it.
    if (info.isIndirect) {
        Addr predicted = 0;
        return !indirectBtb_.lookup(info.pc, predicted) ||
               predicted != info.target;
    }
    if (predictDirection(info) != info.taken)
        return true;
    if (info.taken) {
        // Run-ahead needs the target from the BTB; without it the
        // fetch-target queue cannot follow the path (this is what
        // limits FDIP on large code footprints, paper section 5.2).
        Addr predicted = 0;
        if (!btbLookup(info.pc, predicted) ||
            predicted != info.target) {
            return true;
        }
    }
    return false;
}

} // namespace trrip
