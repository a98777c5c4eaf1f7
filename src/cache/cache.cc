#include "cache/cache.hh"

#include <bit>
#include <cassert>
#include <utility>

#include "cache/replacement/clip.hh"
#include "cache/replacement/drrip.hh"
#include "cache/replacement/emissary.hh"
#include "cache/replacement/lru.hh"
#include "cache/replacement/random.hh"
#include "cache/replacement/rrip.hh"
#include "cache/replacement/ship.hh"
#include "core/trrip_policy.hh"
#include "util/logging.hh"

namespace trrip {

Cache::Cache(const CacheGeometry &geom,
             std::unique_ptr<ReplacementPolicy> policy) :
    geom_(geom), assoc_(geom.assoc), policy_(std::move(policy)),
    tags_(static_cast<std::size_t>(geom.numSets()) * geom.assoc, 0),
    meta_(tags_.size(), 0),
    freeWays_(geom.numSets(), geom.assoc)
{
    geom_.check();
    panic_if(!policy_, geom_.name, ": null replacement policy");
    kind_ = policy_->kind();
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geom_.lineBytes)));
    setMask_ = geom_.numSets() - 1;
    tagShift_ = lineShift_ + static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geom_.numSets())));
    policy_->bindTags(TagView(tags_.data(), meta_.data(), assoc_,
                              lineShift_, tagShift_));
}

Cache::Cache(const CacheGeometry &geom, const PolicySpec &policy) :
    Cache(geom, PolicyRegistry::instance().instantiate(policy, geom))
{
}

/**
 * Run @p fn with the policy downcast to its concrete class.  Every
 * case instantiates the caller's template body once; inside it the
 * hooks are non-virtual calls on a final class, so the optimizer
 * inlines the SoA state updates straight into the cache loop.  The
 * default arm keeps full generality for externally registered
 * policies (PolicyKind::Generic) at the old virtual-dispatch cost.
 */
template <class Fn>
decltype(auto)
Cache::dispatch(Fn &&fn)
{
    switch (kind_) {
      case PolicyKind::Lru:
        return fn(static_cast<LruPolicy &>(*policy_));
      case PolicyKind::Random:
        return fn(static_cast<RandomPolicy &>(*policy_));
      case PolicyKind::Srrip:
        return fn(static_cast<SrripPolicy &>(*policy_));
      case PolicyKind::Brrip:
        return fn(static_cast<BrripPolicy &>(*policy_));
      case PolicyKind::Drrip:
        return fn(static_cast<DrripPolicy &>(*policy_));
      case PolicyKind::Ship:
        return fn(static_cast<ShipPolicy &>(*policy_));
      case PolicyKind::Clip:
        return fn(static_cast<ClipPolicy &>(*policy_));
      case PolicyKind::Emissary:
        return fn(static_cast<EmissaryPolicy &>(*policy_));
      case PolicyKind::Trrip:
        return fn(static_cast<TrripPolicy &>(*policy_));
      case PolicyKind::Generic:
        break;
    }
    return fn(*policy_);
}

template <class Policy>
Cache::Probe
Cache::accessWith(Policy &pol, const MemRequest &req,
                  bool mark_dirty_on_write_hit)
{
    const std::uint32_t set = setOf(req.paddr);
    const Addr tag = tagOf(req.paddr);
    const int way = findWay(set, tag);
    const bool hit = way >= 0;

    if (!req.isPrefetch())
        countDemand(req, hit);

    if (hit) {
        pol.onHit(set, static_cast<std::uint32_t>(way), req);
        if (mark_dirty_on_write_hit && req.isWrite()) {
            meta_[static_cast<std::size_t>(set) * assoc_ +
                  static_cast<std::uint32_t>(way)] |= kLineMetaDirty;
        }
    }
    return Probe{hit, set, hit ? static_cast<std::uint32_t>(way) : 0};
}

bool
Cache::access(const MemRequest &req, bool mark_dirty_on_write_hit)
{
    return accessProbe(req, mark_dirty_on_write_hit).hit;
}

Cache::Probe
Cache::accessProbe(const MemRequest &req, bool mark_dirty_on_write_hit)
{
    return dispatch([&](auto &pol) {
        return accessWith(pol, req, mark_dirty_on_write_hit);
    });
}

template <class Policy>
bool
Cache::accessInvalidateWith(Policy &pol, const MemRequest &req)
{
    const std::uint32_t set = setOf(req.paddr);
    const Addr tag = tagOf(req.paddr);
    const int way = findWay(set, tag);
    const bool hit = way >= 0;

    if (!req.isPrefetch())
        countDemand(req, hit);

    if (hit) {
        const std::size_t idx =
            static_cast<std::size_t>(set) * assoc_ +
            static_cast<std::uint32_t>(way);
        // The policy hit handler still runs (its state -- the LRU
        // order, SHiP outcome bits -- must advance exactly as in
        // access()), then the line leaves the cache.
        pol.onHit(set, static_cast<std::uint32_t>(way), req);
        tags_[idx] = 0;
        meta_[idx] = 0;
        if (!owners_.empty())
            owners_[idx] = 0;
        ++freeWays_[set];
        ++stats_.invalidations;
    }
    return hit;
}

bool
Cache::accessInvalidate(const MemRequest &req)
{
    return dispatch(
        [&](auto &pol) { return accessInvalidateWith(pol, req); });
}

std::optional<CacheLine>
Cache::peek(Addr paddr) const
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return std::nullopt;
    return materialize(set, static_cast<std::size_t>(set) * assoc_ +
                                static_cast<std::uint32_t>(way));
}

CacheLine
Cache::lineAt(std::uint32_t set, std::uint32_t way) const
{
    return materialize(set,
                       static_cast<std::size_t>(set) * assoc_ + way);
}

bool
Cache::markDirty(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return false;
    meta_[static_cast<std::size_t>(set) * assoc_ +
          static_cast<std::uint32_t>(way)] |= kLineMetaDirty;
    return true;
}

void
Cache::markPriority(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way >= 0)
        policy_->onPriorityHint(set, static_cast<std::uint32_t>(way));
}

template <class Policy>
Cache::Victim
Cache::fillWith(Policy &pol, const MemRequest &req,
                std::uint8_t extra_meta, std::uint32_t owner_bits)
{
    const std::uint32_t set = setOf(req.paddr);
    const Addr tag = tagOf(req.paddr);
    assert(findWay(set, tag) < 0 &&
           "fill of already-present line");
    // The packed word stores (tag << 1) | valid: decomposed tags must
    // leave the top bit free (physical addresses stay below 2^63).
    assert((tag >> 63) == 0 && "tag too wide for the packed tag word");

    const std::size_t base = static_cast<std::size_t>(set) * assoc_;

    std::uint32_t way;
    Victim evicted;
    if (freeWays_[set] > 0) {
        // First invalid way, in way order (one bit test per word).
        way = 0;
        while ((tags_[base + way] & 1) != 0)
            ++way;
        --freeWays_[set];
    } else {
        way = pol.victim(set, req);
        panic_if(way >= assoc_,
                 geom_.name, ": policy returned invalid victim way");
        pol.onEvict(set, way);
        const std::uint8_t vmeta = meta_[base + way];
        ++stats_.evictions;
        ++stats_.evictionsByTemp[(vmeta >> kLineMetaTempShift) & 0x3];
        if (vmeta & kLineMetaInst)
            ++stats_.instEvictions;
        else
            ++stats_.dataEvictions;
        if (vmeta & kLineMetaDirty)
            ++stats_.writebacks;
        evicted.valid = true;
        evicted.addr = ((tags_[base + way] >> 1) << tagShift_) |
                       (static_cast<Addr>(set) << lineShift_);
        evicted.meta = vmeta;
        if (!owners_.empty())
            evicted.owner = owners_[base + way];
    }

    // The policy re-initializes its own per-way state in onFill().
    tags_[base + way] = (tag << 1) | 1;
    meta_[base + way] =
        packLineMeta(req.isWrite(), req.isInst(),
                     req.isInst() ? req.temp : Temperature::None) |
        extra_meta;
    if (!owners_.empty())
        owners_[base + way] = owner_bits;

    ++stats_.fills;
    if (req.isPrefetch())
        ++stats_.prefetchFills;
    pol.onFill(set, way, req);
    return evicted;
}

Cache::Victim
Cache::fillProbe(const MemRequest &req, std::uint8_t extra_meta,
                 std::uint32_t owner_bits)
{
    return dispatch([&](auto &pol) {
        return fillWith(pol, req, extra_meta, owner_bits);
    });
}

std::optional<CacheLine>
Cache::fill(const MemRequest &req)
{
    const Victim v = fillProbe(req, 0);
    if (!v.valid)
        return std::nullopt;
    CacheLine line;
    line.addr = v.addr;
    line.tag = v.addr >> tagShift_;
    line.temp = decodeTemperature(
        static_cast<std::uint8_t>(v.meta >> kLineMetaTempShift));
    line.valid = true;
    line.dirty = (v.meta & kLineMetaDirty) != 0;
    line.isInst = (v.meta & kLineMetaInst) != 0;
    return line;
}

std::optional<CacheLine>
Cache::invalidate(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return std::nullopt;
    const std::size_t idx = static_cast<std::size_t>(set) * assoc_ +
                            static_cast<std::uint32_t>(way);
    const CacheLine copy = materialize(set, idx);
    tags_[idx] = 0;
    meta_[idx] = 0;
    if (!owners_.empty())
        owners_[idx] = 0;
    ++freeWays_[set];
    ++stats_.invalidations;
    return copy;
}

Cache::Victim
Cache::invalidateRaw(Addr paddr)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return Victim{};
    const std::size_t idx = static_cast<std::size_t>(set) * assoc_ +
                            static_cast<std::uint32_t>(way);
    Victim v;
    v.valid = true;
    v.addr = ((tags_[idx] >> 1) << tagShift_) |
             (static_cast<Addr>(set) << lineShift_);
    v.meta = meta_[idx];
    tags_[idx] = 0;
    meta_[idx] = 0;
    if (!owners_.empty()) {
        v.owner = owners_[idx];
        owners_[idx] = 0;
    }
    ++freeWays_[set];
    ++stats_.invalidations;
    return v;
}

void
Cache::enableOwnerMasks()
{
    if (owners_.empty())
        owners_.assign(tags_.size(), 0);
}

bool
Cache::stampOwner(Addr paddr, std::uint32_t bits)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return false;
    orOwner(set, static_cast<std::uint32_t>(way), bits);
    return true;
}

bool
Cache::releaseOwner(Addr paddr, std::uint32_t bits, bool dirty)
{
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return false;
    const std::size_t idx = static_cast<std::size_t>(set) * assoc_ +
                            static_cast<std::uint32_t>(way);
    if (!owners_.empty())
        owners_[idx] &= ~bits;
    if (dirty)
        meta_[idx] |= kLineMetaDirty;
    return true;
}

std::uint32_t
Cache::ownerOf(Addr paddr) const
{
    if (owners_.empty())
        return 0;
    const std::uint32_t set = setOf(paddr);
    const int way = findWay(set, tagOf(paddr));
    if (way < 0)
        return 0;
    return owners_[static_cast<std::size_t>(set) * assoc_ +
                   static_cast<std::uint32_t>(way)];
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t word : tags_)
        n += word & 1;
    return n;
}

void
Cache::reset()
{
    tags_.assign(tags_.size(), 0);
    meta_.assign(meta_.size(), 0);
    if (!owners_.empty())
        owners_.assign(owners_.size(), 0);
    freeWays_.assign(freeWays_.size(), assoc_);
    policy_->resetState();
    stats_ = CacheStats();
}

} // namespace trrip
